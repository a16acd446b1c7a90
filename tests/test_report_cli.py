import ast
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import odeinv
from odeinv import SpecError, SystemSpec
from odeinv.cli import main
from odeinv.report import lie_chain, run
from oracles import entry_names, expected_report, load_entry


def _corpus_path(name):
    from importlib import resources

    return str(resources.files("odeinv") / "corpus" / f"{name}.yaml")


def test_report_determinism():
    spec = load_entry("running-post")
    a = run(spec.build()).comparable()
    b = run(load_entry("running-post").build()).comparable()
    assert a == b
    assert "timings" not in a


def test_reports_do_not_depend_on_the_hash_seed():
    # set and dict iteration follows the hash seed; the reports must not
    script = (
        "import json\n"
        "from odeinv.report import run\n"
        "from oracles import load_entry\n"
        "names = ('kepler', 'running-post')\n"
        "print(json.dumps([run(load_entry(n).build()).comparable() for n in names]))\n"
    )
    src = str(Path(odeinv.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, (src, tests, os.environ.get("PYTHONPATH"))))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "12345")
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    kepler, running = json.loads(outputs[0])
    assert kepler["query"] == "post" and running["numeric_check"]["passed"]
    assert outputs[0] == outputs[1]


def test_report_contains_result_template_and_basis():
    report = run(load_entry("running-post").build()).data
    rt = report["result"]["result_template"]["instances"]
    assert any("y^2" in inst for inst in rt)
    assert report["result"]["ideal"]["reduced_groebner_basis"] == ["x - y"]
    text = run(load_entry("running-post").build()).human_text()
    assert "x - y" in text


def test_quick_corpus_regression():
    for name in entry_names():
        spec = load_entry(name)
        if spec.tier != "quick":
            continue
        expected = expected_report(name)
        assert expected is not None, f"no pinned report for {name}"
        got = run(spec.build()).comparable()
        assert got == expected, f"report drift for corpus entry {name}"


@pytest.mark.extended
def test_extended_corpus_regression():
    for name in entry_names():
        spec = load_entry(name)
        if spec.tier != "extended":
            continue
        expected = expected_report(name)
        assert expected is not None, f"no pinned report for {name}"
        got = run(spec.build()).comparable()
        assert got == expected, f"report drift for corpus entry {name}"


def test_data_only_entries_parse():
    for name in entry_names():
        spec = load_entry(name)
        if spec.tier == "data-only":
            built = spec.build()
            assert built.template is not None
            assert expected_report(name) is None


def test_cli_exit_codes(tmp_path):
    assert main(["post", _corpus_path("running-post"), "--no-numeric"]) == 0
    assert main(["check", _corpus_path("running-check"), "--no-numeric"]) == 0
    assert main(["check", _corpus_path("running-check-corrupted")]) == 1
    assert main(["pre", _corpus_path("running-pre")]) == 0
    assert main(["invariant", _corpus_path("running-invariant"), "--no-numeric"]) == 0


def test_cli_inconclusive_exit_code():
    assert (
        main(
            [
                "check",
                _corpus_path("running-check-corrupted"),
                "--mode",
                "generators",
            ]
        )
        == 2
    )


def test_cli_wrong_subcommand_is_input_error(capsys):
    assert main(["pre", _corpus_path("running-post")]) == 3
    assert "declares" in capsys.readouterr().err


def test_cli_missing_file_is_input_error():
    assert main(["post", "/nonexistent/spec.yaml"]) == 3


def test_cli_report_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["post", _corpus_path("running-post"), "--report", str(out), "--no-numeric"]) == 0
    data = json.loads(out.read_text())
    assert data["query"] == "post"
    assert data["result"]["space_dimension"] == 3


def test_cli_lie_subcommand(capsys):
    assert main(["lie", _corpus_path("running-pre"), "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "L^0" in out and "L^2" in out
    assert "x^2 - x*y" in out


def test_cli_verify_numeric(capsys):
    assert main(["verify-numeric", _corpus_path("ghost-post"), "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "numeric cross-check: passed" in out


def test_cli_verify_numeric_huge_sample_count_finishes(capsys):
    # at most one point per pool value is drawn, however many are asked
    spec = _corpus_path("running-post")
    assert main(["verify-numeric", spec, "--samples", "100000000000"]) == 0
    assert "numeric cross-check: passed" in capsys.readouterr().out


def test_cli_rk4_step_cap_exits_4_before_integrating(capsys):
    # 1e8 checked steps would run for minutes; the cap refuses them at once
    started = time.perf_counter()
    code = main(["verify-numeric", _corpus_path("running-post"), "--step", "1/100000000"])
    elapsed = time.perf_counter() - started
    assert code == 4
    assert "RK4 steps" in capsys.readouterr().err
    assert elapsed < 1.0


def test_cli_template_parameter_cap_exits_4_before_enumerating(tmp_path, capsys):
    # a degree-50 template over 18 variables would enumerate about 1.3e16
    # monomials; the cap refuses it from a binomial coefficient
    data = yaml.safe_load(open(_corpus_path("collision-avoidance"), encoding="utf-8"))
    data["query"]["template"]["degree"] = 50
    spec = tmp_path / "huge.yaml"
    spec.write_text(yaml.safe_dump(data), encoding="utf-8")
    started = time.perf_counter()
    code = main(["post", str(spec)])
    elapsed = time.perf_counter() - started
    assert code == 4
    assert "over the cap of 65536" in capsys.readouterr().err
    assert elapsed < 1.0


def test_cli_power_over_the_product_cap_exits_4(tmp_path, capsys):
    # expanding (x+y+z)^300 ran for minutes; the squaring that would form
    # 314,721 term pairs is refused before it is formed
    data = yaml.safe_load(RATIONAL_LIE_YAML)
    data["variables"] = ["x", "y", "z"]
    data["field"] = {"x": "(x+y+z)^300", "y": "0", "z": "0"}
    spec = tmp_path / "huge-power.yaml"
    spec.write_text(yaml.safe_dump(data), encoding="utf-8")
    started = time.perf_counter()
    code = main(["post", str(spec)])
    elapsed = time.perf_counter() - started
    assert code == 4
    assert "term pairs" in capsys.readouterr().err
    assert elapsed < 2.0


def test_cli_expression_over_the_parse_budget_exits_4(tmp_path, capsys):
    # each (x+y+z)^50 stays under the one-product cap, but eight of them
    # expanded for seconds; their products share one budget per parse,
    # which the second copy exhausts
    data = yaml.safe_load(RATIONAL_LIE_YAML)
    data["variables"] = ["x", "y", "z"]
    data["field"] = {"x": " + ".join(["(x+y+z)^50"] * 8), "y": "0", "z": "0"}
    spec = tmp_path / "many-powers.yaml"
    spec.write_text(yaml.safe_dump(data), encoding="utf-8")
    started = time.perf_counter()
    code = main(["post", str(spec)])
    elapsed = time.perf_counter() - started
    assert code == 4
    assert "term pairs" in capsys.readouterr().err
    assert elapsed < 4.0


def _degenerate_mutations(data):
    """(label, spec) for each fixed degenerate edit of a spec: its
    postcondition or generator list set to 0, 1 or 0, 0; its precondition
    set to 0 or 1, or dropped; each drift set to 0; a complete template set
    to degree 0, with and without the monomial 1."""
    query = data["query"]
    for key in ("postcondition", "generators"):
        for value in (["0"], ["1"], ["0", "0"]) if key in query else ():
            yield f"{key} {value}", {**data, "query": {**query, key: value}}
    for value in (["0"], ["1"]):
        yield f"precondition {value}", {**data, "precondition": {"generators": value}}
    yield "no precondition", {k: v for k, v in data.items() if k != "precondition"}
    for var in data["field"]:
        yield f"drift of {var} 0", {**data, "field": {**data["field"], var: "0"}}
    template = query.get("template")
    if template is not None and template["kind"] == "complete":
        plain = {k: v for k, v in template.items() if k != "exclude"}
        for label, t in (("", plain), (" without 1", {**plain, "exclude": ["1"]})):
            yield f"degree 0{label}", {**data, "query": {**query, "template": {**t, "degree": 0}}}


def test_degenerate_corpus_specs_never_exit_5(tmp_path, capsys):
    # exit 5 is for real bugs only: no degenerate but well-formed spec
    # made from a quick corpus entry may end there
    internal = []
    spec = tmp_path / "mutated.yaml"
    for name in entry_names("quick"):
        data = yaml.safe_load(open(_corpus_path(name), encoding="utf-8"))
        for label, mutated in _degenerate_mutations(data):
            spec.write_text(yaml.safe_dump(mutated), encoding="utf-8")
            if main([data["query"]["kind"], str(spec), "--no-numeric"]) == 5:
                internal.append(f"{name}: {label}")
    capsys.readouterr()
    assert internal == []


@pytest.mark.parametrize("postcondition", [["0"], ["0", "0"]])
def test_cli_check_of_an_all_zero_postcondition_is_input_error(tmp_path, capsys, postcondition):
    data = yaml.safe_load(open(_corpus_path("running-check"), encoding="utf-8"))
    data["query"]["postcondition"] = postcondition
    spec = tmp_path / "zero.yaml"
    spec.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["check", str(spec), "--no-numeric"]) == 3
    assert "nonzero postcondition" in capsys.readouterr().err


RATIONAL_LIE_YAML = """
name: rational-lie
variables: [x, y]
field:
  x: "1/2*y"
  y: "-1/3*x"
precondition:
  generators: ["x - 1"]
query:
  kind: post
  template:
    kind: complete
    degree: 2
numeric_check:
  enabled: false
"""


def test_cli_lie_on_a_rational_field(tmp_path, capsys):
    # the template's drift denominators (lcm 6) are cleared for the
    # derivation and divided out again in every printed instance
    spec = tmp_path / "rational.yaml"
    spec.write_text(RATIONAL_LIE_YAML, encoding="utf-8")
    assert main(["lie", str(spec), "--steps", "3"]) == 0
    assert capsys.readouterr().out == (
        "template:\n"
        "  L^0: a1*(1) + a2*(y) + a3*(x) + a4*(y^2) + a5*(x*y) + a6*(x^2)\n"
        "  L^1: a2*(-1/3*x) + a3*(1/2*y) + a4*(-2/3*x*y) + a5*(-1/3*x^2 + 1/2*y^2)"
        " + a6*(x*y)\n"
        "  L^2: a2*(-1/6*y) + a3*(-1/6*x) + a4*(2/9*x^2 - 1/3*y^2) + a5*(-2/3*x*y)"
        " + a6*(-1/3*x^2 + 1/2*y^2)\n"
        "  L^3: a2*(1/18*x) + a3*(-1/12*y) + a4*(4/9*x*y) + a5*(2/9*x^2 - 1/3*y^2)"
        " + a6*(-2/3*x*y)\n"
    )


@pytest.mark.parametrize(
    "section, key, value",
    [("field", "x", "x^2147483648"), ("precondition", "generators", ["x^2147483648 - y"])],
    ids=["field", "precondition"],
)
def test_cli_exponent_over_the_packed_cap_exits_4(tmp_path, capsys, section, key, value):
    # a packed monomial holds exponents below 2^31: an exponent of 2^31 in
    # the field or in the precondition is refused as a resource limit
    data = yaml.safe_load(RATIONAL_LIE_YAML)
    data[section][key] = value
    spec = tmp_path / "huge-exponent.yaml"
    spec.write_text(yaml.safe_dump(data), encoding="utf-8")
    started = time.perf_counter()
    code = main(["post", str(spec)])
    elapsed = time.perf_counter() - started
    assert code == 4
    assert "exponent cap" in capsys.readouterr().err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "drift, message",
    [
        ("2^3000000*x", "coefficient over the cap"),
        ("(1/3)^30000000*x", "coefficient over the cap"),
        ("1" * 5000 + "*x", "number literal over the cap"),
        ("x^" + "1" * 5000, "exponent cap"),
    ],
    ids=["power-of-two", "power-of-a-third", "long-literal", "long-exponent"],
)
def test_cli_oversized_coefficient_or_exponent_exits_4(tmp_path, capsys, drift, message):
    # a coefficient past Python's int-to-str digit limit could not be
    # printed (exit 5), and a literal or an exponent past it could not be
    # converted: the parse refuses each, before `int()` or at the product
    # that crosses the coefficient cap
    data = yaml.safe_load(Path(_corpus_path("running-post")).read_text(encoding="utf-8"))
    data["field"]["x"] = drift
    spec = tmp_path / "oversized.yaml"
    spec.write_text(yaml.safe_dump(data), encoding="utf-8")
    started = time.perf_counter()
    code = main(["post", str(spec), "--no-numeric"])
    elapsed = time.perf_counter() - started
    assert code == 4
    assert message in capsys.readouterr().err
    assert elapsed < 2.0


_DERIVED_FIELD = {"x": "2^8191*y", "y": "2^8191*z", "z": "0"}


@pytest.mark.parametrize(
    "argv, data",
    [
        (
            ["pre", "--no-numeric"],
            {"variables": ["x", "y", "z"], "field": _DERIVED_FIELD,
             "query": {"kind": "pre", "postcondition": ["x"]}},
        ),
        (
            ["check", "--no-numeric"],
            {"variables": ["x", "y", "z"], "field": _DERIVED_FIELD,
             "precondition": {"generators": ["x", "y", "z - 1"]},
             "query": {"kind": "check", "postcondition": ["x"]}},
        ),
        (["lie", "--steps", "2"], None),
        (
            # one sample, z = 1/2, so the start w = 2^-20000 fits a double
            ["check"],
            {"variables": ["x", "y", "z", "w"], "field": dict.fromkeys("xyzw", "0"),
             "precondition": {"generators": ["w - z^20000"]},
             "query": {"kind": "check", "postcondition": ["w - z^20000"]},
             "numeric_check": {"enabled": True, "samples": 1}},
        ),
    ],
    ids=["pre-closure", "check-witness", "lie-steps", "sampled-start"],
)
def test_cli_oversized_derived_coefficient_exits_4(tmp_path, capsys, argv, data):
    # every number a spec writes is under the parse cap, but a chain
    # derives a coefficient near 2^16382, and sampling a start value of
    # 2^-20000, past Python's int-to-str digit limit: printing either
    # exited 5 (the derivative closure, the witness value, L^2, the point)
    if data is None:
        data = yaml.safe_load(Path(_corpus_path("running-post")).read_text(encoding="utf-8"))
        data["field"]["x"] = "2^8191*x"
    spec = tmp_path / "derived.yaml"
    spec.write_text(yaml.safe_dump({"name": "derived", **data}), encoding="utf-8")
    started = time.perf_counter()
    code = main([argv[0], str(spec), *argv[1:]])
    elapsed = time.perf_counter() - started
    assert code == 4
    assert "too long to print" in capsys.readouterr().err
    assert elapsed < 2.0


def test_resource_cap_exit_code():
    assert (
        main(["post", _corpus_path("running-post"), "--max-iterations", "0"]) == 4
    )


@pytest.mark.parametrize(
    "command, name, flag, value",
    [
        ("post", "running-post", "--max-iterations", "-1"),
        ("pre", "running-pre", "--pair-budget", "-3"),
        ("post", "kepler", "--max-degree", "-1"),
        ("invariant", "running-invariant", "--pair-budget", "-1"),
        ("lie", "running-pre", "--steps", "-2"),
    ],
)
def test_cli_negative_cap_is_input_error(capsys, command, name, flag, value):
    # the same check as for a spec's options, made before any work
    assert main([command, _corpus_path(name), flag, value]) == 3
    assert f"must be >= 0, not {value}" in capsys.readouterr().err


def test_run_rejects_malformed_cap_override():
    with pytest.raises(SpecError, match="pair_budget must be >= 0"):
        run(load_entry("running-post").build(), pair_budget=-1)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("numeric_check", "samples", "abc"),
        ("numeric_check", "samples", -3),
        ("numeric_check", "horizon", -1),
        ("numeric_check", "step", 0),
        ("numeric_check", "tolerance", "x"),
        # non-finite settings and point values
        pytest.param("numeric_check", "horizon", float("inf"), id="horizon-inf"),
        pytest.param("numeric_check", "horizon", float("nan"), id="horizon-nan"),
        pytest.param("numeric_check", "step", float("inf"), id="step-inf"),
        pytest.param("numeric_check", "tolerance", float("inf"), id="tolerance-inf"),
        pytest.param("numeric_check", "tolerance", "inf", id="tolerance-inf-string"),
        pytest.param("numeric_check", "points", [{"x": float("inf"), "y": 1}], id="point-inf"),
        pytest.param("numeric_check", "points", [{"x": float("nan"), "y": 1}], id="point-nan"),
        # the horizon must be a whole number of steps (1/256 by default)
        pytest.param("numeric_check", "step", "2/5", id="step-not-dividing-horizon"),
        pytest.param("numeric_check", "horizon", "1/1000000", id="horizon-below-one-step"),
        ("options", "max_iterations", "x"),
        ("options", "pair_budget", "x"),
        ("options", "max_degree", "x"),
        pytest.param("numeric_check", "points", [{"x": 1}], id="point-unbound"),
        pytest.param("numeric_check", "points", [{"x": 1, "y": 2}], id="point-off-pre"),
        # a string where a list or a bool is wanted is not read character-wise
        ("precondition", "generators", "xy"),
        ("query.template", "exclude", "xy"),
        ("query.template", "auxiliary_monomials", "xy"),
        ("numeric_check", "enabled", "no"),
        # a bool is not an integer degree, though isinstance(True, int) holds
        pytest.param("query.template", "degree", True, id="query.template-degree-true"),
    ],
)
def test_cli_malformed_spec_is_input_error(tmp_path, section, key, value):
    with open(_corpus_path("running-post"), encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    target = data
    for name in section.split("."):
        target = target.setdefault(name, {})
    target[key] = value
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(data))
    assert main(["post", str(spec)]) == 3


@pytest.mark.parametrize(
    "name, generator",
    [("running-invariant", "x - y"), ("running-pre", "x^2 - x*y")],
)
def test_cli_point_off_computed_ideal_is_input_error(tmp_path, capsys, name, generator):
    # pre and invariant queries check user points against the ideal they
    # compute, after the spec is built
    with open(_corpus_path(name), encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["numeric_check"] = {"points": [{"x": 1, "y": 2}]}
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(data))
    assert main(["verify-numeric", str(spec)]) == 3
    assert f"precondition generator {generator}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        pytest.param("--horizon", "wat", id="horizon-wat"),
        pytest.param("--horizon", "-1", id="horizon-negative"),
        pytest.param("--step", "0", id="step-zero"),
        pytest.param("--samples", "0", id="samples-zero"),
        pytest.param("--tolerance", "-1", id="tolerance-negative"),
        pytest.param("--tolerance", "inf", id="tolerance-inf"),
        pytest.param("--step", "2/5", id="step-not-dividing-horizon"),
        pytest.param("--horizon", "1/1000000", id="horizon-below-one-step"),
    ],
)
def test_cli_bad_numeric_literal_is_input_error(flag, value):
    assert main(["verify-numeric", _corpus_path("ghost-post"), flag, value]) == 3


def _planar_invariant(tmp_path, field=("y^2", "x*y"), **numeric):
    """x' = y^2, y' = x*y with the invariant line x = y, numeric check on."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({
        "variables": ["x", "y"],
        "field": dict(zip("xy", field)),
        "query": {"kind": "invariant", "generators": ["x - y"]},
        "numeric_check": {"enabled": True, **numeric},
    }))
    return spec


def test_cli_coefficient_outside_doubles_skips_the_numeric_check(tmp_path, capsys):
    # exact arithmetic takes 10^400; the harness skips it, and the symbolic
    # answer (the line is still invariant) sets the exit code
    spec = _planar_invariant(tmp_path, field=("10^400*y^2", "10^400*x*y"))
    assert main(["invariant", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "invariant ideal: True" in out
    assert "numeric cross-check: skipped (a coefficient" in out
    assert "does not fit a double" in out
    assert "passed" not in out


def test_report_without_a_rational_sample_point_skips_the_numeric_check():
    # x^2 + y^2 is invariant under the rotation, but it binds no variable
    # triangularly, so no rational start point is sampled: the check is
    # skipped, not passed
    spec = SystemSpec.from_text(yaml.safe_dump({
        "variables": ["x", "y"],
        "field": {"x": "-y", "y": "x"},
        "query": {"kind": "invariant", "generators": ["x^2 + y^2"]},
        "numeric_check": {"enabled": True},
    }))
    report = run(spec.build())
    assert report.exit_code == 0
    assert report.data["numeric_check"] == {
        "passed": None,
        "checked": 0,
        "note": "no rational sample point available for this precondition",
        "failures": [],
    }
    assert "numeric cross-check: skipped (no rational sample point" in report.human_text()


def test_cli_post_with_nothing_to_check_skips_the_numeric_check(tmp_path, capsys):
    # from the origin of x' = 1, y' = x no linear form is conserved: V ends
    # at dimension 0 and J = <0>, so no polynomial is left to integrate
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({
        "variables": ["x", "y"],
        "field": {"x": "1", "y": "x"},
        "precondition": {"generators": ["x", "y"]},
        "query": {"kind": "post", "template": {"kind": "complete", "degree": 1}},
        "numeric_check": {"enabled": True},
    }))
    assert main(["post", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "numeric cross-check: skipped (no nonzero polynomial to check)" in out
    assert "passed" not in out
    report = run(SystemSpec.from_text(spec.read_text()).build())
    assert report.data["numeric_check"] == {
        "passed": None,
        "checked": 0,
        "note": "no nonzero polynomial to check",
        "failures": [],
    }


def test_cli_point_outside_doubles_is_input_error(tmp_path, capsys):
    spec = _planar_invariant(tmp_path, points=[{"x": "1e400", "y": "1e400"}])
    assert main(["invariant", str(spec)]) == 3
    assert "outside the double range" in capsys.readouterr().err


def test_cli_step_of_zero_double_is_input_error(tmp_path, capsys):
    # 10^5 whole steps, but both values are 0.0 as doubles
    spec = _planar_invariant(tmp_path, horizon="1e-395", step="1e-400")
    assert main(["invariant", str(spec)]) == 3
    assert "is 0.0 as a double" in capsys.readouterr().err
    spec = _planar_invariant(tmp_path)
    flags = ["--horizon", "1e-395", "--step", "1e-400"]
    assert main(["verify-numeric", str(spec), *flags]) == 3
    assert "is 0.0 as a double" in capsys.readouterr().err


def test_cli_accepts_json_spec(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "variables": ["x", "y"],
                "field": {"x": "y^2", "y": "x*y"},
                "precondition": {"generators": ["x - y"]},
                "query": {"kind": "check", "postcondition": ["x^2 - x*y"]},
            }
        )
    )
    assert main(["check", str(spec)]) == 0


def test_lie_chain_for_templates():
    built = load_entry("running-post").build()
    chains = lie_chain(built, 1)
    assert chains[0]["subject"] == "template"
    assert len(chains[0]["chain"]) == 2


def _public_definitions(tree):
    """(qualified name, name) of every public module-level function and
    class and every public non-dunder method of a module-level class."""
    found = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        found.append((stmt.name, stmt.name))
        if isinstance(stmt, ast.ClassDef):
            found += [
                (f"{stmt.name}.{node.name}", node.name)
                for node in stmt.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            ]
    return found


def _names_read(tree):
    """Every name read as a Name or an Attribute, except a read of a name
    inside a function or class that defines that name itself."""
    read = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return read


def _qualified_reads(tree):
    """(module, name) of every name imported by `from module import name`,
    the module taken by its last dotted part, and of every read
    `module.name`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            found |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add((node.value.id, node.attr))
    return found


def test_every_export_is_used_in_the_package():
    # the package ships only what the queries, the CLI, the report and the
    # benchmark run on: every name odeinv/__init__.py imports, and every
    # public function, class and method a package module defines, is read
    # in a package module or in bench/ outside its own definition.  A
    # module-level function or class is read where it is imported from its
    # module, read as `module.name`, or read inside its own module; the
    # re-exports of __init__.py do not count.  A method is matched by name,
    # so one that shares its name with one the package calls elsewhere
    # passes unseen
    package = Path(odeinv.__file__).resolve().parent
    bench = package.parents[1] / "bench"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined, used, qualified, own = [], set(), set(), {}
    for path in [*package.glob("*.py"), *bench.glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _names_read(tree)
        if path != package / "__init__.py":
            qualified |= _qualified_reads(tree)
        if path.parent == package:
            defined += [(path.stem, q, name) for q, name in _public_definitions(tree)]
            own[path.stem] = _names_read(tree)
    assert {"post", "pre", "SystemSpec"} <= exported
    assert {"Ideal.member", "Template.reduce_by", "buchberger_extend"} <= {q for _, q, _ in defined}
    assert sorted(exported - used) == []
    unread = [
        f"{module}.{q}"
        for module, q, name in defined
        if (name not in used if "." in q else (module, name) not in qualified and name not in own[module])
    ]
    assert unread == []


def test_every_private_module_name_is_read_in_the_package():
    # a module-level _name (not a dunder) defined in a package module is
    # read, as a Name or an Attribute, somewhere in the package outside its
    # own definition: no helper outlives its last caller
    package = Path(odeinv.__file__).resolve().parent
    defined, used = set(), set()
    for path in package.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = set()
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            defined |= {n for n in own if n.startswith("_") and not n.startswith("__")}
            nodes = list(ast.walk(stmt))
            names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            used |= names - own
    assert {"_complete", "_nf_int"} <= defined
    assert sorted(defined - used) == []


# The functions of the package that may turn a packed monomial into an
# exponent tuple or back: where a monomial is read or written as text, or an
# exponent is used as a number.
TUPLE_EDGES = {
    "poly.py": {
        "Packing.pack", "Packing.unpack",  # the two conversions themselves
        "Packing.degree",  # lex degree: Polynomial.degree, complete_template, Buchberger's cap
        "format_terms", "Polynomial.evaluate", "Polynomial.substitute_symbol",
    },
    "dynamics.py": {"VectorField.lie_monomial"},  # the multiplier e of x^e
    "numcheck.py": {"_power_terms"},  # the generated float source
    "sysspec.py": {"_split_template"},  # the joint universe into the state one
}


def _enclosing_functions(tree):
    """(node, qualified name of the innermost enclosing def or class) for
    every node of a module."""
    stack = [(tree, "")]
    while stack:
        node, name = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            yield child, inner
            stack.append((child, inner))


def test_engine_and_templates_do_no_tuple_exponent_arithmetic():
    # a monomial is a packed integer everywhere in the package:
    # `tuple(map(...))`, the idiom of exponent-tuple products, quotients
    # and lcms, must not creep back into the engine or the templates, and
    # `pack` and `unpack` are read only at the named edges
    package = Path(odeinv.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        name = path.name
        for node, owner in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                name in ("groebner.py", "dynamics.py")
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and node.args
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.id == "map"
            ):
                found.append(f"{name}:{node.lineno} tuple(map(...))")
            converts = (
                isinstance(node, ast.Attribute) and node.attr in ("pack", "unpack")
                or isinstance(node, ast.Name) and node.id in ("pack", "unpack")
            )
            if converts and owner not in TUPLE_EDGES.get(name, ()):
                found.append(f"{name}:{node.lineno} {owner}")
    assert found == []


def test_paper_to_code_map_names_live_code_and_tests():
    # every row of README's paper-to-code map names a function the package
    # defines and a test function the suite holds
    root = Path(__file__).resolve().parent.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    section = text.split("## Paper-to-code map", 1)[1].split("\n## ", 1)[0]
    # the header and the rule name no code
    rows = [line.split("|")[2:4] for line in section.splitlines() if line.startswith("|") and "`" in line]
    tests = {
        node.name
        for path in (root / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    missing = []
    for function, test in rows:
        module, *attrs = function.strip(" `").split(".")
        target = importlib.import_module(f"odeinv.{module}")
        for attr in attrs:
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(function)
        if test.strip(" `") not in tests:
            missing.append(test)
    assert len(rows) >= 10 and missing == []


def test_engine_templates_and_linalg_take_no_rationals_apart():
    # rationals enter the integer core through `poly.cleared` only: no
    # package module but poly reads `.numerator`, and the Groebner engine,
    # the templates and the linear algebra never divide with `/`
    package = Path(odeinv.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "numerator" and path.name != "poly.py":
                found.append(f"{path.name}:{node.lineno} .numerator")
            if (
                isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)
                and path.name in ("groebner.py", "dynamics.py", "linalg.py")
            ):
                found.append(f"{path.name}:{node.lineno} /")
    assert found == []


def test_no_package_module_imports_a_name_it_never_reads():
    # every name a package module other than __init__ binds by an import,
    # at any depth, is read as a Name in that module: no import outlives
    # its last use
    package = Path(odeinv.__file__).resolve().parent
    dead = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in nodes
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        dead += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert dead == []
