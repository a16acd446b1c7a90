import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

import odeinv
from odeinv import SpecError, SystemSpec, corpus
from odeinv.cli import main
from odeinv.report import lie_chain, run


def _corpus_path(name):
    from importlib import resources

    return str(resources.files("odeinv") / "corpus" / f"{name}.yaml")


def test_report_determinism():
    spec = corpus.load("running-post")
    a = run(spec.build()).comparable()
    b = run(corpus.load("running-post").build()).comparable()
    assert a == b
    assert "timings" not in a


def test_reports_do_not_depend_on_the_hash_seed():
    # set and dict iteration follows the hash seed; the reports must not
    script = (
        "import json\n"
        "from odeinv import corpus\n"
        "from odeinv.report import run\n"
        "names = ('kepler', 'running-post')\n"
        "print(json.dumps([run(corpus.load(n).build()).comparable() for n in names]))\n"
    )
    src = str(Path(odeinv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
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
    report = run(corpus.load("running-post").build()).data
    rt = report["result"]["result_template"]["instances"]
    assert any("y^2" in inst for inst in rt)
    assert report["result"]["ideal"]["reduced_groebner_basis"] == ["x - y"]
    text = run(corpus.load("running-post").build()).human_text()
    assert "x - y" in text


def test_quick_corpus_regression():
    for name in corpus.entry_names():
        spec = corpus.load(name)
        if spec.tier != "quick":
            continue
        expected = corpus.expected_report(name)
        assert expected is not None, f"no pinned report for {name}"
        got = run(spec.build()).comparable()
        assert got == expected, f"report drift for corpus entry {name}"


@pytest.mark.extended
def test_extended_corpus_regression():
    for name in corpus.entry_names():
        spec = corpus.load(name)
        if spec.tier != "extended":
            continue
        expected = corpus.expected_report(name)
        assert expected is not None, f"no pinned report for {name}"
        got = run(spec.build()).comparable()
        assert got == expected, f"report drift for corpus entry {name}"


def test_data_only_entries_parse():
    for name in corpus.entry_names():
        spec = corpus.load(name)
        if spec.tier == "data-only":
            built = spec.build()
            assert built.template is not None
            assert corpus.expected_report(name) is None


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
        run(corpus.load("running-post").build(), pair_budget=-1)


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
    built = corpus.load("running-post").build()
    chains = lie_chain(built, 1)
    assert chains[0]["subject"] == "template"
    assert len(chains[0]["chain"]) == 2


def test_every_export_is_used_in_the_package():
    # the package exports only what the queries, the CLI and the report run
    # on: every name odeinv/__init__.py imports is read, as a Name or an
    # Attribute, in another package module outside its own definition
    package = Path(odeinv.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(stmt))
            names = {n.id for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            used |= names - {getattr(stmt, "name", None)}
    assert {"post", "pre", "SystemSpec"} <= exported
    assert sorted(exported - used) == []


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
