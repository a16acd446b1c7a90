"""Metamorphic relations that need no oracle.

- *Precondition basis.*  Under mode `generators` the precondition ideal is
  <Q>, so replacing Q by the reduced basis of <Q>, or by an invertible
  rational combination of Q, keeps the ideal and every answer: `post`'s
  result block, and `check`'s verdict, iterations and space dimension.
- *Duality.*  `check` holds iff every reduced-basis element of pre(φ) lies
  in the precondition ideal of the mode in use: V stays full iff every Lie
  iterate of every postcondition polynomial lies in that ideal.

Each runs on the quick corpus entries and on at most 30 small random
systems (2-3 variables, degree <= 2), drawn by Hypothesis with
`derandomize=True`, so tier-1 stays deterministic.
"""

import copy
from fractions import Fraction
from importlib import resources

import pytest
import yaml
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from odeinv import HOLDS, Ideal, ModeError, Precondition, ResourceLimitError, SystemSpec
from odeinv.algorithms import _MODES, check_safety, pre
from odeinv.report import run
from oracles import entry_names

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


def _corpus(kinds):
    return [n for n in entry_names("quick") if _data(n)["query"]["kind"] in kinds]


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
    result = run(spec.build(), numeric=False).data["result"]
    if spec.query_kind == "check":
        return result["verdict"], result["iterations"], result["space_dimension"]
    return result


def _assert_duality(built, caps):
    """For every mode that admits the precondition: `check` holds iff
    pre(φ) lies in the mode's precondition ideal."""
    phi = [q for q in built.postcondition if not q.is_zero()]
    weakest = pre(phi, built.field, **caps).ideal.reduced_groebner_basis()
    for mode in _MODES:
        try:
            analysis = Precondition(built.precondition.generators, mode).analyze(
                built.universe, pair_budget=caps["pair_budget"], max_degree=caps["max_degree"]
            )
        except ModeError:
            continue
        holds = check_safety(analysis, phi, built.field, **caps).verdict == HOLDS
        inside = all(analysis.ideal.member(g) for g in weakest)
        assert holds == inside, (mode, [str(g) for g in weakest])


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
    spec = built.spec
    _assert_duality(built, {
        "max_iterations": spec.max_iterations,
        "pair_budget": spec.pair_budget,
        "max_degree": spec.max_degree,
    })


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
def systems(draw, kind):
    """A random `post` or `check` spec.  The precondition vanishes at the
    origin, so it is never the unit ideal, where every answer is trivial;
    a postcondition polynomial is random or a combination of the
    precondition's generators, so that both verdicts come up."""
    names = NAMES[: draw(st.integers(2, 3))]
    gens = draw(st.lists(polynomials(names, 2, constant=False), min_size=1, max_size=2))
    data = {
        "name": f"random-{kind}",
        "variables": list(names),
        # a zero drift makes its variable a constant of motion, so that
        # `post` finds invariants more often
        "field": {v: draw(st.just("0") | polynomials(names)) for v in names},
        "precondition": {"generators": gens},
        "options": dict(CAPS),
    }
    if kind == "post":
        template = {"kind": "complete", "degree": draw(st.integers(1, 2))}
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
