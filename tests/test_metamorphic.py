"""Metamorphic relations that need no oracle.

- *Precondition basis.*  Under mode `generators` the precondition ideal is
  <Q>, so replacing Q by the reduced basis of <Q>, or by an invertible
  rational combination of Q, keeps the ideal and every answer: `post`'s
  result block, and `check`'s verdict, iterations and space dimension.
- *Duality.*  `check` holds iff every reduced-basis element of pre(φ) lies
  in the precondition ideal of the mode in use: V stays full iff every Lie
  iterate of every postcondition polynomial lies in that ideal.
- *Containment.*  Every reduced-basis element of `post`'s J lies in the
  precondition ideal of the mode in use: J is generated by Lie iterates of
  the template restricted to V, each of which V keeps inside that ideal.
- *Monomial order.*  Lex and grevlex give `post` equal iterations and
  chain dimensions, and their J bases generate one ideal: the lex basis,
  re-parsed over the grevlex universe, has the grevlex basis as its
  reduced basis.
- *Renaming.*  Renaming every variable keeps each report, byte for byte,
  once the names are mapped back.
- *Reordering.*  Reversing `variables` keeps every answer: `iterations`,
  the chain's dimensions, `space_dimension`, the verdict, `invariant` and
  the ideal.

The first four run on corpus entries (the quick ones, or every `post`
entry for the containment and order relations) and on at most 30 small
random systems (2-3 variables, degree <= 2; the monomial-order relation
always takes 3 variables, nonzero drifts, 2-3 precondition generators and
a degree-2 template), drawn by Hypothesis with `derandomize=True`, so
tier-1 stays deterministic.  Renaming and reordering run, numeric check
off, on the quick entries, kepler and 15 small random systems.
"""

import copy
import json
import re
from fractions import Fraction
from importlib import resources

import pytest
import yaml
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from odeinv import (
    HOLDS,
    Ideal,
    ModeError,
    Precondition,
    ResourceLimitError,
    SystemSpec,
    parse_polynomial,
)
from odeinv.algorithms import _MODES, check_safety, post, pre
from odeinv.report import run
from oracles import entry_names, ideal_equal

NAMES = ("x", "y", "z")
# small enough that most random chains finish; a run over them is rejected
CAPS = {"max_iterations": 8, "pair_budget": 400, "max_degree": 8}
RATIONALS = tuple(map(Fraction, ("-2", "-1", "-1/2", "1/3", "1", "3/2", "2")))
RANDOM = settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _corpus(kinds, tier="quick"):
    return [n for n in entry_names(tier) if _data(n)["query"]["kind"] in kinds]


def _data(name) -> dict:
    path = resources.files("odeinv") / "corpus" / f"{name}.yaml"
    return yaml.safe_load(path.read_text(encoding="utf-8"))


def _combination(gens, scales, shears):
    """g'_i = scales[i] * g[σ(i)] + sum over j < i of shears[i][j] * g[σ(j)],
    with σ the reversal: triangular with a nonzero diagonal, so invertible."""
    g = list(reversed(gens))
    out = []
    for i, gi in enumerate(g):
        p = gi * scales[i]
        for j in range(i):
            p = p + g[j] * shears[i][j]
        out.append(p)
    return out


def _presentations(built, scales, shears):
    """The nonzero precondition generators Q, the reduced basis of <Q>, and
    an invertible combination of Q: three generator lists of one ideal."""
    gens = [g for g in built.precondition.generators if not g.is_zero()]
    basis = Ideal(built.universe, gens).reduced_groebner_basis()
    return gens, basis, _combination(gens, scales, shears)


def _answers(data, generators):
    """What the precondition-basis relation keeps, under mode `generators`:
    `post`'s result block, and `check`'s verdict, iterations and space
    dimension."""
    data = copy.deepcopy(data)
    data["precondition"] = {"generators": [str(g) for g in generators], "mode": "generators"}
    spec = SystemSpec(data)
    spec.override(numeric=False)
    result = run(spec.build()).data["result"]
    if spec.query_kind == "check":
        return result["verdict"], result["iterations"], result["space_dimension"]
    return result


def _caps(spec):
    return {
        "max_iterations": spec.max_iterations,
        "pair_budget": spec.pair_budget,
        "max_degree": spec.max_degree,
    }


def _analyses(built, caps):
    """(mode, precondition analysis) for every mode that admits the
    precondition."""
    for mode in _MODES:
        try:
            yield mode, Precondition(built.precondition.generators, mode).analyze(
                built.universe, pair_budget=caps["pair_budget"], max_degree=caps["max_degree"]
            )
        except ModeError:
            continue


def _assert_duality(built, caps):
    """For every mode that admits the precondition: `check` holds iff
    pre(φ) lies in the mode's precondition ideal."""
    phi = [q for q in built.polynomials if not q.is_zero()]
    weakest = pre(phi, built.field, **caps).ideal.reduced_groebner_basis()
    for mode, analysis in _analyses(built, caps):
        holds = check_safety(analysis, phi, built.field, **caps).verdict == HOLDS
        inside = all(analysis.ideal.member(g) for g in weakest)
        assert holds == inside, (mode, [str(g) for g in weakest])


def _assert_containment(built, caps):
    """For every mode that admits the precondition: each reduced-basis
    element of `post`'s J lies in the mode's precondition ideal."""
    for mode, analysis in _analyses(built, caps):
        basis = post(analysis, built.template, built.field, **caps).ideal.reduced_groebner_basis()
        assert all(analysis.ideal.member(g) for g in basis), (mode, [str(g) for g in basis])


def _post_under(data, order):
    """The universe of `data` under `order`, and its `post` result block."""
    spec = SystemSpec({**data, "order": order})
    spec.override(numeric=False)
    built = spec.build()
    return built.universe, run(built).data["result"]


def _assert_order_relation(data):
    """Lex and grevlex give equal iterations and chain dimensions, and the
    lex J basis, re-parsed over the grevlex universe, reduces to the
    grevlex J basis."""
    _, lex = _post_under(data, "lex")
    universe, grevlex = _post_under(data, "grevlex")
    assert lex["iterations"] == grevlex["iterations"]
    dims = [[step["dim"] for step in r["chain_trace"]] for r in (lex, grevlex)]
    assert dims[0] == dims[1]
    reparsed = [parse_polynomial(g, universe) for g in lex["ideal"]["reduced_groebner_basis"]]
    basis = Ideal(universe, reparsed).reduced_groebner_basis()
    assert [str(g) for g in basis] == grevlex["ideal"]["reduced_groebner_basis"]


@pytest.mark.parametrize("name", _corpus({"post", "check"}))
def test_precondition_basis_keeps_every_answer_on_the_corpus(name):
    data = _data(name)
    scales = [Fraction(-3, 2), Fraction(2), Fraction(1, 3)]
    shears = [[Fraction(i + j + 1, 2) for j in range(i)] for i in range(3)]
    gens, *others = _presentations(SystemSpec(data).build(), scales, shears)
    want = _answers(data, gens)
    for other in others:
        assert _answers(data, other) == want, [str(g) for g in other]


@pytest.mark.parametrize("name", _corpus({"check"}))
def test_check_holds_iff_pre_lies_in_the_precondition_ideal_on_the_corpus(name):
    built = SystemSpec(_data(name)).build()
    _assert_duality(built, _caps(built.spec))


@pytest.mark.parametrize("name", _corpus({"post"}, tier=None))
def test_post_ideal_lies_in_the_precondition_ideal_on_the_corpus(name):
    built = SystemSpec(_data(name)).build()
    _assert_containment(built, _caps(built.spec))


@pytest.mark.parametrize("name", _corpus({"post"}, tier=None))
def test_lex_and_grevlex_agree_on_post_on_the_corpus(name):
    _assert_order_relation(_data(name))


# an identifier that does not continue a name or a number
_IDENTIFIER = re.compile(r"(?<![A-Za-z0-9_])[A-Za-z_][A-Za-z0-9_]*")
# the spec keys whose values hold no variable name
_PLAIN = {"name", "description", "tier", "order", "kind", "mode"}


def _rename(value, names):
    """`value` with each identifier in `names` replaced by its image, in
    strings, lists and mappings, keys included, except under `_PLAIN`."""
    if isinstance(value, str):
        return _IDENTIFIER.sub(lambda m: names.get(m[0], m[0]), value)
    if isinstance(value, list):
        return [_rename(v, names) for v in value]
    if isinstance(value, dict):
        return {
            _rename(k, names): v if k in _PLAIN else _rename(v, names) for k, v in value.items()
        }
    return value


def _report(data):
    """The universe of `data` and its report without timings, numeric
    check off."""
    spec = SystemSpec(data)
    spec.override(numeric=False)
    built = spec.build()
    return built.universe, run(built).comparable()


def _answers_free_of_order(result):
    """What reordering the variables keeps of a result block, but its ideal."""
    kept = {k: result[k] for k in ("iterations", "space_dimension", "verdict", "invariant")
            if k in result}
    kept["dims"] = [step["dim"] for step in result.get("chain_trace", ())]
    return kept


def _ideal(result, universe):
    """The ideal of a `post`, `pre` or `invariant` result block's reduced
    basis, parsed over `universe`."""
    basis = result.get("ideal", result)["reduced_groebner_basis"]
    return Ideal(universe, [parse_polynomial(g, universe) for g in basis])


def _assert_renaming_relation(data):
    """Renaming every variable keeps the report once the names are mapped
    back."""
    n = len(data["variables"])
    # fresh names, in the reverse of the old names' order where they sort
    forward = {v: f"v{n - i}" for i, v in enumerate(data["variables"])}
    back = {new: old for old, new in forward.items()}
    _, want = _report(data)
    _, got = _report(_rename(data, forward))
    assert "v1" in json.dumps(got)
    assert _rename(json.dumps(got), back) == json.dumps(want)


def _assert_reversing_relation(data):
    """Reversing `variables` keeps every answer and the ideal."""
    universe, want = _report(data)
    _, got = _report({**data, "variables": data["variables"][::-1]})
    want, got = want["result"], got["result"]
    assert _answers_free_of_order(got) == _answers_free_of_order(want)
    if "verdict" not in want:  # a check reports no ideal
        assert ideal_equal(_ideal(want, universe), _ideal(got, universe))


@pytest.mark.parametrize("name", [*entry_names("quick"), "kepler"])
def test_renaming_the_variables_keeps_every_report(name):
    _assert_renaming_relation(_data(name))


@pytest.mark.parametrize("name", [*entry_names("quick"), "kepler"])
def test_reversing_the_variables_keeps_every_answer(name):
    _assert_reversing_relation(_data(name))


@st.composite
def polynomials(draw, names, max_terms=3, constant=True):
    """The text of a random polynomial of degree <= 2 over `names`; with
    `constant` false it vanishes at the origin."""
    terms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(RATIONALS),
                st.lists(st.sampled_from(names), min_size=0 if constant else 1, max_size=2),
            ),
            min_size=1,
            max_size=max_terms,
        )
    )
    return " + ".join(f"({c})" + "".join(f"*{v}" for v in vs) for c, vs in terms)


@st.composite
def systems(draw, kind, wide=False):
    """A random `post` or `check` spec.  The precondition vanishes at the
    origin, so it is never the unit ideal, where every answer is trivial;
    a postcondition polynomial is random or a combination of the
    precondition's generators, so that both verdicts come up.  A `wide`
    `post` system has 3 variables, no zero drift, 2-3 precondition
    generators of up to 3 terms and a template of degree 2: large enough
    that its Buchberger runs depend on the monomial order."""
    names = NAMES if wide else NAMES[: draw(st.integers(2, 3))]
    # a zero drift makes its variable a constant of motion, so that
    # `post` finds invariants more often
    drifts = polynomials(names) if wide else st.just("0") | polynomials(names)
    size = (3, 2, 3) if wide else (2, 1, 2)  # terms, least and most generators
    gens = draw(
        st.lists(polynomials(names, size[0], constant=False), min_size=size[1], max_size=size[2])
    )
    data = {
        "name": f"random-{kind}",
        "variables": list(names),
        "field": {v: draw(drifts) for v in names},
        "precondition": {"generators": gens},
        "options": dict(CAPS),
    }
    if kind == "post":
        template = {"kind": "complete", "degree": 2 if wide else draw(st.integers(1, 2))}
        data["query"] = {"kind": "post", "template": template}
        return data
    combination = _rationals(len(gens)).map(
        lambda cs: " + ".join(f"({c})*({g})" for c, g in zip(cs, gens))
    )
    phi = st.lists(st.one_of(polynomials(names, 2), combination), min_size=1, max_size=2)
    data["query"] = {"kind": "check", "postcondition": draw(phi)}
    return data


def _built_or_reject(data):
    try:
        return SystemSpec(data).build()
    except ValueError:  # every postcondition polynomial cancelled to 0
        reject()


# 15 random systems of each kind, 30 in all
@settings(RANDOM, max_examples=15)
@given(systems("post"), st.data())
def test_precondition_basis_keeps_post_answers_on_random_systems(data, draw):
    _basis_relation(data, draw)


@settings(RANDOM, max_examples=15)
@given(systems("check"), st.data())
def test_precondition_basis_keeps_check_answers_on_random_systems(data, draw):
    _basis_relation(data, draw)


def _rationals(n):
    return st.lists(st.sampled_from(RATIONALS), min_size=n, max_size=n)


def _basis_relation(data, draw):
    built = _built_or_reject(data)
    scales = draw.draw(_rationals(3))
    shears = [draw.draw(_rationals(i)) for i in range(3)]
    gens, *others = _presentations(built, scales, shears)
    if not gens:
        reject()
    try:
        want = _answers(data, gens)
    except ResourceLimitError:
        reject()
    for other in others:
        assert _answers(data, other) == want, [str(g) for g in other]


@RANDOM
@given(systems("check"))
def test_check_holds_iff_pre_lies_in_the_precondition_ideal_on_random_systems(data):
    built = _built_or_reject(data)
    try:
        _assert_duality(built, CAPS)
    except ResourceLimitError:
        reject()


@RANDOM
@given(systems("post"))
def test_post_ideal_lies_in_the_precondition_ideal_on_random_systems(data):
    built = _built_or_reject(data)
    try:
        _assert_containment(built, CAPS)
    except ResourceLimitError:
        reject()


@RANDOM
@given(systems("post", wide=True))
def test_lex_and_grevlex_agree_on_post_on_random_systems(data):
    try:
        _assert_order_relation(data)
    except ResourceLimitError:
        reject()


@settings(RANDOM, max_examples=15)
@given(st.sampled_from(["post", "check"]).flatmap(systems))
def test_renaming_and_reversing_the_variables_on_random_systems(data):
    _built_or_reject(data)
    try:
        _assert_renaming_relation(data)
        _assert_reversing_relation(data)
    except ResourceLimitError:
        reject()
