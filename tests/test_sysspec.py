import ast
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from yaml.composer import Composer

import odeinv
from odeinv import ResourceLimitError, SpecError, SystemSpec, sysspec
from odeinv.numcheck import MAX_RK4_STEPS
from odeinv.report import run
from odeinv.sysspec import NumericSpec
from oracles import contains, entry_names, exponent_terms, instantiate


RUNNING_YAML = """
name: demo
variables: [x, y]
field:
  x: "y^2"
  y: "x*y"
precondition:
  generators: ["x - y"]
query:
  kind: post
  template:
    kind: complete
    degree: 2
"""


def test_yaml_and_json_accepted_interchangeably():
    spec_yaml = SystemSpec.from_text(RUNNING_YAML)
    as_json = json.dumps(
        {
            "name": "demo",
            "variables": ["x", "y"],
            "field": {"x": "y^2", "y": "x*y"},
            "precondition": {"generators": ["x - y"]},
            "query": {"kind": "post", "template": {"kind": "complete", "degree": 2}},
        }
    )
    spec_json = SystemSpec.from_text(as_json)
    a = run(spec_yaml.build()).comparable()
    b = run(spec_json.build()).comparable()
    assert a == b


def test_explicit_template():
    text = """
variables: [x, y]
field: {x: "y^2", y: "x*y"}
precondition: {generators: ["x - y"]}
query:
  kind: post
  template:
    kind: explicit
    parameters: [a1, a2, a3]
    expression: "a1*(y^2 - x^2) + a2*(x*y - x^2) + a3*(y - x)"
"""
    built = SystemSpec.from_text(text).build()
    assert len(built.template.params) == 3
    report = run(built)
    assert report.data["result"]["space_dimension"] == 3
    # the template does not depend on the state order
    grevlex = SystemSpec.from_text("order: grevlex\n" + text).build().template
    lex = built.template
    assert grevlex.params == lex.params and grevlex.denominator == lex.denominator
    assert grevlex.forms() == lex.forms() and exponent_terms(grevlex) == exponent_terms(lex)


def test_explicit_template_rejects_nonlinear_parameters():
    text = """
variables: [x]
field: {x: "x"}
query:
  kind: post
  template:
    kind: explicit
    parameters: [a1]
    expression: "a1^2*x"
"""
    with pytest.raises(SpecError) as err:
        SystemSpec.from_text(text).build()
    assert str(err.value) == (
        "template expression: polynomial has a term of parameter degree 2; "
        "templates must be parameter-linear"
    )


def test_explicit_template_rejects_constant_term():
    text = """
variables: [x]
field: {x: "x"}
query:
  kind: post
  template:
    kind: explicit
    parameters: [a1]
    expression: "a1*x + 1"
"""
    with pytest.raises(SpecError) as err:
        SystemSpec.from_text(text).build()
    assert str(err.value) == (
        "template expression: polynomial has a term of parameter degree 0; "
        "templates must be parameter-linear"
    )


def test_complete_template_exclude_and_aux():
    text = """
variables: [x, y]
field: {x: "y^2", y: "x*y"}
query:
  kind: post
  template:
    kind: complete
    degree: 2
    exclude: ["x^2"]
    auxiliary_monomials: ["x*y"]
"""
    built = SystemSpec.from_text(text).build()
    # 6 base monomials - x^2 + products x*y*{x, y} (x*y itself is a dup)
    names = {str(p) for p in built.template.unit_instances()}
    assert names == {"1", "x", "y", "y^2", "x*y", "x^2*y", "x*y^2"}


def test_validation_errors():
    bad = [
        ("{}", "variables"),
        ('{"variables": ["x", "x"], "field": {"x": "x"}, "query": {"kind": "pre", "postcondition": ["x"]}}', "duplicate"),
        ('{"variables": ["x"], "field": {}, "query": {"kind": "pre", "postcondition": ["x"]}}', "missing drifts"),
        ('{"variables": ["x"], "field": {"x": "x", "y": "x"}, "query": {"kind": "pre", "postcondition": ["x"]}}', "undeclared"),
        ('{"variables": ["x"], "field": {"x": "x"}, "query": {"kind": "nope"}}', "kind"),
        ('{"variables": ["x"], "field": {"x": "x"}, "query": {"kind": "pre", "postcondition": ["x"]}, "bogus": 1}', "unknown top-level"),
        ('{"variables": ["x"], "field": {"x": "z"}, "query": {"kind": "pre", "postcondition": ["x"]}}', "unknown identifier"),
        ('{"variables": ["x"], "field": {"x": "x"}, "precondition": {"mode": "wat"}, "query": {"kind": "pre", "postcondition": ["x"]}}', "mode"),
        ('{"variables": ["x"], "field": {"x": "x"}, "query": {"kind": "check", "postcondition": []}}', "non-empty"),
    ]
    for text, needle in bad:
        with pytest.raises(SpecError) as err:
            SystemSpec.from_text(text).build()
        assert needle.split()[0] in str(err.value)


_BASE = {"variables": ["x"], "field": {"x": "x"}}
_PRE = {"kind": "pre", "postcondition": ["x"]}
_COMPLETE = {"kind": "complete", "degree": 1}
_EXPLICIT = {"kind": "explicit", "parameters": ["a"], "expression": "a*x"}


@pytest.mark.parametrize(
    "spec, message",
    [
        ({**_BASE, "query": _PRE, "bogus": 1}, "unknown top-level keys: ['bogus']"),
        ({**_BASE, "query": _PRE, "numeric_check": {"bogus": 1}},
         "unknown numeric_check keys: ['bogus']"),
        ({**_BASE, "query": _PRE, "precondition": {"generators": [], "bogus": 1}},
         "unknown precondition keys: ['bogus']"),
        ({**_BASE, "query": _PRE, "options": {"max_degree": 4, "bogus": 1, "also": 2}},
         "unknown option keys: ['also', 'bogus']"),
        ({**_BASE, "query": {"kind": "post", "template": _COMPLETE, "bogus": 1}},
         "unknown post query keys: ['bogus']"),
        ({**_BASE, "query": {**_PRE, "bogus": 1}}, "unknown pre query keys: ['bogus']"),
        ({**_BASE, "query": {"kind": "check", "postcondition": ["x"], "bogus": 1}},
         "unknown check query keys: ['bogus']"),
        ({**_BASE, "query": {"kind": "invariant", "generators": ["x"], "bogus": 1}},
         "unknown invariant query keys: ['bogus']"),
        ({**_BASE, "query": {"kind": "post", "template": {**_COMPLETE, "bogus": 1}}},
         "unknown template keys: ['bogus']"),
        ({**_BASE, "query": {"kind": "post", "template": {**_EXPLICIT, "bogus": 1}}},
         "unknown template keys: ['bogus']"),
    ],
    ids=[
        "top-level", "numeric_check", "precondition", "options", "post-query",
        "pre-query", "check-query", "invariant-query", "complete-template",
        "explicit-template",
    ],
)
def test_unknown_keys_are_rejected(spec, message):
    with pytest.raises(SpecError) as err:
        SystemSpec.from_text(json.dumps(spec)).build()
    assert str(err.value) == message


def test_grevlex_order_option():
    text = """
variables: [x, y]
order: grevlex
field: {x: "y^2", y: "x*y"}
precondition: {generators: ["x - y"]}
query:
  kind: check
  postcondition: ["x^2 - x*y"]
"""
    report = run(SystemSpec.from_text(text).build())
    assert report.data["result"]["verdict"] == "holds"


def test_explicit_template_instantiation_lies_in_result_span():
    # explicit ansatz written parameter-by-monomial; the valuation
    # (0, 0, 0, -1, 0, 1) instantiates to a member of the computed law space
    text = """
variables: [x, y]
field: {x: "y^2", y: "x*y"}
precondition: {generators: ["x - y"]}
query:
  kind: post
  template:
    kind: explicit
    parameters: [a1, a2, a3, a4, a5, a6]
    expression: "a6*x*y + a5*y^2 + a4*x^2 + a3*y + a2*x + a1"
"""
    built = SystemSpec.from_text(text).build()
    from fractions import Fraction

    from odeinv import post
    from conftest import in_span

    res = post(built.precondition, built.template, built.field)
    assert res.space.dim == 3
    instance = instantiate(built.template, [0, 0, 0, -1, 0, 1])
    assert in_span(instance, res.result.unit_instances())
    assert contains(res.space, [0, 0, 0, Fraction(-1), 0, Fraction(1)])


def test_numeric_block_defaults():
    spec = SystemSpec.from_text(RUNNING_YAML)
    assert not spec.numeric.enabled
    spec2 = SystemSpec.from_text(RUNNING_YAML + "\nnumeric_check:\n  samples: 2\n")
    assert spec2.numeric.enabled and spec2.numeric.samples == 2


def test_rk4_step_count_is_capped_on_load_and_in_override():
    # exactly the cap is accepted; one step more is a resource blow-up
    at_cap = NumericSpec.from_dict({"horizon": 4, "step": f"4/{MAX_RK4_STEPS}"})
    assert at_cap.horizon / at_cap.step == MAX_RK4_STEPS
    with pytest.raises(ResourceLimitError, match="RK4 steps"):
        NumericSpec.from_dict({"horizon": 4, "step": f"4/{MAX_RK4_STEPS + 1}"})
    with pytest.raises(ResourceLimitError, match="RK4 steps"):
        SystemSpec.from_text(RUNNING_YAML + "\nnumeric_check:\n  step: 1/100000000\n")
    spec = NumericSpec()
    with pytest.raises(ResourceLimitError, match="RK4 steps"):
        spec.override(horizon=MAX_RK4_STEPS, step="1/2")
    # a horizon that is no whole number of steps stays an input error
    with pytest.raises(SpecError, match="whole number"):
        NumericSpec().override(horizon=f"{2 * MAX_RK4_STEPS + 1}/2", step=1)



@pytest.mark.parametrize(
    "text, value",
    [
        ("1_0e5", 10**6),
        ("2.5E-3", Fraction(1, 400)),
        ("-0e2467", 0),
        # inside the cap a double's underflow is not refused, as before
        ("1e-400", Fraction(1, 10**400)),
        ("10e-2467", Fraction(1, 10**2466)),
    ],
)
def test_a_decimal_exponent_is_read_exactly(text, value):
    assert NumericSpec.from_dict({"points": [{"x": text}]}).points == [{"x": value}]


@pytest.mark.parametrize(
    "text",
    ["1e4000000", "-1e-4000000", "1_0e4_000_000", "5E" + "9" * 5000, "1e2468", "1e-2468", "1e2467"],
    ids=lambda text: text[:16],
)
def test_a_decimal_exponent_far_outside_doubles_is_refused(text):
    # each literal is refused from its exponent, before Fraction multiplies
    # the exponent out; test_cli_decimal_exponent_far_outside_doubles_is_
    # refused_at_once times 1e999999999, which Fraction takes hours over
    with pytest.raises(SpecError, match=f"^point value for x {re.escape(text)} is outside the double range$"):
        NumericSpec.from_dict({"points": [{"x": text}]})
    with pytest.raises(SpecError, match="is outside the double range"):
        SystemSpec.from_text(RUNNING_YAML).override(horizon=text)


def test_override_takes_only_the_cli_setting_names():
    # its names are the CLI flags' dests; what the file alone sets is not one
    spec = SystemSpec.from_text(RUNNING_YAML)
    spec.override(mode="generators", numeric=True, max_degree=None, samples="2")
    assert (spec.precondition_mode, spec.numeric.enabled, spec.numeric.samples) == ("generators", True, 2)
    for name in ("enabled", "points", "steps", "precondition_mode"):
        with pytest.raises(TypeError, match=name):
            spec.override(**{name: 1})

def test_template_parameter_count_is_capped_before_enumerating(monkeypatch):
    # degree 50 over collision-avoidance's 18 variables asks for
    # comb(68, 18), about 1.3e16 monomials: refused when the spec is built
    data = yaml.safe_load(
        (resources.files("odeinv") / "corpus" / "collision-avoidance.yaml").read_text()
    )
    data["query"]["template"]["degree"] = 50
    with pytest.raises(ResourceLimitError, match="12736262814039336 parameters"):
        SystemSpec.from_text(json.dumps(data)).build()
    data["query"]["template"]["degree"] = 4
    assert len(SystemSpec.from_text(json.dumps(data)).build().template.params) == 7315
    # each auxiliary monomial m adds m and m*v for the 2 variables
    monkeypatch.setattr(sysspec, "MAX_TEMPLATE_PARAMETERS", 6)
    assert len(SystemSpec.from_text(RUNNING_YAML).build().template.params) == 6
    with pytest.raises(ResourceLimitError, match="9 parameters"):
        SystemSpec.from_text(
            RUNNING_YAML + "    auxiliary_monomials: [\"x^3\"]\n"
        ).build()


def test_reading_a_spec_imports_neither_the_harness_nor_the_report():
    # importing odeinv and building every bundled spec, as a set-up does,
    # leaves numcheck and report unimported; MAX_RK4_STEPS lives in sysspec
    # for this
    corpus = resources.files("odeinv") / "corpus"
    texts = [p.read_text(encoding="utf-8") for p in corpus.iterdir() if p.name.endswith(".yaml")]
    script = (
        "import json, sys\n"
        "from odeinv import SystemSpec\n"
        "for text in json.loads(sys.stdin.read()):\n"
        "    SystemSpec.from_text(text).build()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = str(Path(odeinv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(texts),
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert texts and "odeinv.sysspec" in loaded
    assert "odeinv.numcheck" not in loaded
    assert "odeinv.report" not in loaded


def _texts_of_this_module():
    """Every YAML or JSON spec text written in this module."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "variables" in node.value
        and isinstance(yaml.load(node.value, yaml.SafeLoader), dict)
    ]


def test_the_spec_loader_reads_as_the_safe_loader_does():
    # libyaml scans and parses where PyYAML has it, and PyYAML's Python
    # composer composes: a composer recursing in C kills the interpreter on
    # deep nesting.  Every bundled spec, and every spec text here as YAML
    # and as JSON, loads to the data `yaml.SafeLoader` gives, as str and as
    # bytes
    loader = sysspec._SpecLoader
    assert (loader is yaml.SafeLoader) == (not yaml.__with_libyaml__)
    assert loader.compose_node is Composer.compose_node
    corpus = resources.files("odeinv") / "corpus"
    texts = [p.read_text(encoding="utf-8") for p in corpus.iterdir() if p.name.endswith(".yaml")]
    assert len(texts) == 10
    mine = _texts_of_this_module()
    assert RUNNING_YAML in mine and any(text.startswith("{") for text in mine)
    texts += mine
    texts += [json.dumps(yaml.load(text, yaml.SafeLoader)) for text in texts]
    for text in texts:
        expected = yaml.load(text, yaml.SafeLoader)
        assert isinstance(expected, dict)
        assert yaml.load(text, loader) == expected
        assert yaml.load(text.encode("utf-8"), loader) == expected


@pytest.mark.parametrize(
    "name",
    [
        "\ud800",  # a lone surrogate: CParser cannot encode the str
        "2001-02-30",  # constructors: ValueError
        "9" * 5000,  # ValueError, over the integer digit limit
        "!!bool x",  # KeyError
        "!!int",  # IndexError
        "!!timestamp x",  # AttributeError
    ],
    ids=["surrogate", "bad-date", "long-integer", "bool-tag", "empty-int-tag", "timestamp-tag"],
)
def test_a_text_the_loader_cannot_read_is_a_spec_error(spec_loader, name):
    with pytest.raises(SpecError, match="not valid YAML/JSON"):
        SystemSpec.from_text(RUNNING_YAML.replace("name: demo", f"name: {name}"))


def test_a_utf16_spec_with_a_byte_order_mark_loads(tmp_path, spec_loader):
    path = tmp_path / "spec.yaml"
    path.write_text(RUNNING_YAML, encoding="utf-16")
    spec = SystemSpec.load(path)
    assert (spec.name, spec.field) == ("demo", {"x": "y^2", "y": "x*y"})


# characters that YAML reads as structure or refuses, and letters
_EDIT_CHARS = "\t\x00\ufeff&*?[]{}:-\"'" + "axyz"


_QUICK_TEXTS = [
    (resources.files("odeinv") / "corpus" / f"{name}.yaml").read_text(encoding="utf-8")
    for name in entry_names("quick")
]


@st.composite
def _mutated_quick_texts(draw):
    """A quick corpus text with 1-4 characters inserted, deleted or
    replaced."""
    text = draw(st.sampled_from(_QUICK_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = "" if kind == "delete" else draw(st.sampled_from(_EDIT_CHARS))
        text = text[:at] + char + text[at + (kind != "insert"):]
    return text


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_mutated_quick_texts())
def test_mutated_spec_text_raises_only_spec_errors(text):
    # raw text, where test_cli_mutated_quick_spec_never_exits_internal
    # mutates data dumped by yaml.safe_dump: reading it either gives a spec
    # or fails as malformed or as too large
    try:
        SystemSpec.from_text(text)
    except (SpecError, ResourceLimitError):
        pass
