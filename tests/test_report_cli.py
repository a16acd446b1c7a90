import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import odeinv
from odeinv import SpecError, SystemSpec, sysspec
from odeinv.cli import build_arg_parser, main
from odeinv.parser import MAX_NESTING
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


def test_cli_lie_steps_over_max_iterations_exits_4_at_once(capsys):
    # 2000 derivatives of running-pre ran for minutes; the spec's
    # max_iterations (64 by default) caps the step count before any is taken
    started = time.perf_counter()
    code = main(["lie", _corpus_path("running-pre"), "--steps", "2000"])
    elapsed = time.perf_counter() - started
    assert code == 4
    assert "exceed max_iterations 64" in capsys.readouterr().err
    assert elapsed < 1.0
    assert main(["lie", _corpus_path("running-pre"), "--steps", "64"]) == 0


def test_cli_verify_numeric(capsys):
    assert main(["verify-numeric", _corpus_path("ghost-post"), "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "numeric cross-check: passed" in out


@pytest.mark.parametrize("flag", ["--no-numeric", "--numeric"])
def test_cli_verify_numeric_refuses_the_numeric_switch(capsys, flag):
    # verify-numeric always runs the check: --no-numeric was accepted and
    # ignored, and the check still reported "passed"
    assert main(["verify-numeric", _corpus_path("running-post"), flag]) == 3
    out, err = capsys.readouterr()
    assert "usage: odeinv" in err and "cross-check" not in out


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
    [
        ("field", "x", "x^2147483648"),
        ("precondition", "generators", ["x^2147483648 - y"]),
        # each factor parses, and their product is the first to reach 2^31
        ("field", "x", "x^2147483647*x"),
    ],
    ids=["field", "precondition", "field-product"],
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


@pytest.mark.parametrize("depth, code", [(MAX_NESTING, 0), (MAX_NESTING + 1, 4), (300, 4)])
def test_cli_parentheses_nested_past_the_cap_exit_4(tmp_path, capsys, depth, code):
    # 300 nested parentheses ran the recursive-descent parse out of stack
    # (exit 5); the cap refuses them, and a drift at the cap still parses
    data = yaml.safe_load(RATIONAL_LIE_YAML)
    data["field"]["x"] = "(" * depth + "1/2*y" + ")" * depth
    spec = tmp_path / "nested.yaml"
    spec.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["post", str(spec)]) == code
    assert ("over the nesting cap" in capsys.readouterr().err) == (code == 4)


# a name nested 1,000 flow levels deep, 100,000 flow levels deep, and a
# compact block sequence 100,000 levels deep
_DEEP_NAMES = [
    "name: " + "[" * 1000 + "]" * 1000,
    "name: " + "[" * 100_000 + "]" * 100_000,
    "name:\n  " + "- " * 100_000 + "x",
]


def test_cli_spec_nested_too_deeply_for_yaml_is_input_error(tmp_path, capsys):
    # a name of 1,000 nested lists ran the YAML reader out of stack (exit 5)
    spec = tmp_path / "nested.yaml"
    spec.write_text(
        RATIONAL_LIE_YAML.replace("name: rational-lie", "name: " + "[" * 1000 + "]" * 1000),
        encoding="utf-8",
    )
    assert main(["post", str(spec)]) == 3
    assert "nested too deeply" in capsys.readouterr().err
    # 100,000 levels, flow and block, where a composer recursing in C dies
    # of a segmentation fault; a child process, so that a crash fails the
    # test and leaves pytest running
    src = str(Path(odeinv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for name in _DEEP_NAMES[1:]:
        spec.write_text(RATIONAL_LIE_YAML.replace("name: rational-lie", name), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "odeinv", "post", str(spec)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 3, done.stderr
        assert "nested too deeply" in done.stderr


def test_cli_spec_nested_too_deeply_without_libyaml_is_input_error(tmp_path, capsys, monkeypatch):
    # the same names through `yaml.SafeLoader`, the loader where PyYAML has
    # no libyaml; pure Python, so it runs in this process
    monkeypatch.setattr(sysspec, "_SpecLoader", yaml.SafeLoader)
    spec = tmp_path / "nested.yaml"
    for name in _DEEP_NAMES:
        spec.write_text(RATIONAL_LIE_YAML.replace("name: rational-lie", name), encoding="utf-8")
        assert main(["post", str(spec)]) == 3
        assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [b"name: x\xff\xfe\n", RATIONAL_LIE_YAML.encode("utf-8")[:-3] + b"\xc3(\n"],
    ids=["name", "last-line"],
)
def test_cli_spec_that_is_not_utf8_is_input_error(tmp_path, capsys, spec_loader, text):
    # the spec was decoded before YAML saw it, and the UnicodeDecodeError
    # exited 5; the loader decodes the bytes and fails as YAML
    spec = tmp_path / "bad.yaml"
    spec.write_bytes(text)
    assert main(["post", str(spec)]) == 3
    assert "not valid YAML/JSON" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["top-level", "option"])
def test_cli_unknown_keys_of_two_types_are_input_error(tmp_path, capsys, section):
    # sorting the unknown keys 1 and "bogus" raised TypeError (exit 5)
    data = yaml.safe_load(RATIONAL_LIE_YAML)
    target = data if section == "top-level" else data.setdefault("options", {})
    target.update({1: "a", "bogus": 2})
    spec = tmp_path / "keys.yaml"
    spec.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["post", str(spec)]) == 3
    assert f"unknown {section} keys: [1, 'bogus']" in capsys.readouterr().err


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
    assert main(["pre", _corpus_path("running-pre"), "--max-iterations", "0"]) == 4


def test_cli_failed_numeric_check_exits_1(tmp_path, capsys):
    # the circle is an exact invariant of the rotation, but no double
    # residual meets a tolerance of 1e-300: the numeric check alone fails
    # a query that otherwise exits 0
    data = {
        "name": "circle",
        "variables": ["x", "y"],
        "field": {"x": "-y", "y": "x"},
        "query": {"kind": "invariant", "generators": ["x^2 + y^2 - 1"]},
        "numeric_check": {"points": [{"x": 1, "y": 0}], "tolerance": 1.0e-300},
    }
    spec = tmp_path / "circle.yaml"
    spec.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["invariant", str(spec)]) == 1
    out = capsys.readouterr().out
    assert "invariant ideal: True" in out
    assert "numeric cross-check: FAILED" in out


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


def test_override_rejects_malformed_cap():
    with pytest.raises(SpecError, match="pair_budget must be >= 0"):
        load_entry("running-post").override(pair_budget=-1)


@pytest.mark.parametrize(
    "argv",
    [
        ["post", "running-post", "--max-iterations", "abc"],
        ["post", "running-post", "--max-degree", "1.5"],
        ["post", "running-post", "--pair-budget", "1e3"],
        ["post", "running-post", "--mode", "bogus"],
        ["verify-numeric", "ghost-post", "--samples", "x"],
        ["verify-numeric", "ghost-post", "--tolerance", "abc"],
        ["lie", "running-pre", "--steps", "abc"],
    ],
    ids=lambda argv: "-".join(argv[2:]),
)
def test_cli_malformed_flag_value_is_input_error(capsys, argv):
    # a flag's text is checked as the same setting in the spec file is
    assert main([argv[0], _corpus_path(argv[1]), *argv[2:]]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus", "running-post"],
        ["post"],
        ["post", "running-post", "--bogus"],
        ["post", "running-post", "--numeric", "--no-numeric"],
        ["lie", "running-pre", "--steps"],
    ],
    ids=lambda argv: "-".join(argv) or "empty",
)
def test_cli_usage_error_is_input_error(capsys, argv):
    # main returns 3, as for any malformed input, and raises no SystemExit
    argv = [_corpus_path(a) if a.startswith("running-") else a for a in argv]
    assert main(argv) == 3
    assert "usage: odeinv" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["post", "--help"], ["lie", "-h"]])
def test_cli_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert "usage: odeinv" in capsys.readouterr().out


def test_cli_unwritable_report_path_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(["post", _corpus_path("running-post"), "--no-numeric", "--report", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


# For each setting flag: its arguments, and the (section, key, value) edit
# of the spec file that makes the same setting.
FLAG_SETTINGS = {
    "--mode": (["--mode", "generators"], ("precondition", "mode", "generators")),
    "--max-iterations": (["--max-iterations", "1"], ("options", "max_iterations", 1)),
    "--pair-budget": (["--pair-budget", "0"], ("options", "pair_budget", 0)),
    "--max-degree": (["--max-degree", "1"], ("options", "max_degree", 1)),
    "--numeric": (["--numeric"], ("numeric_check", "enabled", True)),
    "--no-numeric": (["--no-numeric"], ("numeric_check", "enabled", False)),
    "--samples": (["--samples", "2"], ("numeric_check", "samples", 2)),
    "--horizon": (["--horizon", "1/2"], ("numeric_check", "horizon", "1/2")),
    "--step": (["--step", "1/64"], ("numeric_check", "step", "1/64")),
    "--tolerance": (["--tolerance", "1e-3"], ("numeric_check", "tolerance", 1e-3)),
}
# the flags that are not spec settings, by dest
NOT_SETTINGS = {"help", "report", "steps"}
# the corpus entry each subcommand runs here
COMMAND_ENTRIES = {
    "post": "running-post", "pre": "running-pre", "check": "running-check",
    "invariant": "running-invariant", "verify-numeric": "ghost-post",
}


def _setting_flags():
    """(subcommand, option string) for every setting flag of the CLI, each
    flag once, under the first subcommand that has it."""
    parser = build_arg_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seen = {}
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest not in NOT_SETTINGS:
                for flag in action.option_strings:
                    seen.setdefault(flag, command)
    return [(command, flag) for flag, command in seen.items()]


def _cli_outcome(capsys, argv, report):
    code = main([*argv, "--report", str(report)])
    out, err = capsys.readouterr()
    data = json.loads(report.read_text()) if report.exists() else None
    if data is not None:
        del data["timings"]
    return code, out, err, data


@pytest.mark.parametrize("command, flag", _setting_flags())
def test_each_flag_is_the_spec_setting_it_names(tmp_path, capsys, command, flag):
    # a flag without a spec setting has no entry in FLAG_SETTINGS and fails
    flag_argv, (section, key, value) = FLAG_SETTINGS[flag]
    name = COMMAND_ENTRIES[command]
    with open(_corpus_path(name), encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data.setdefault(section, {})[key] = value
    edited = tmp_path / f"{name}.yaml"
    edited.write_text(yaml.safe_dump(data), encoding="utf-8")
    by_flag = _cli_outcome(capsys, [command, _corpus_path(name), *flag_argv], tmp_path / "flag.json")
    by_spec = _cli_outcome(capsys, [command, str(edited)], tmp_path / "spec.json")
    assert by_flag == by_spec



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
        # one variable twice would count its monomials twice against the cap
        pytest.param("query.template", "variables", ["x", "x"], id="template-variables-twice"),
        pytest.param("query.template", "kind", "bogus", id="template-kind-bogus"),
        pytest.param("query.template", "exclude", ["x + y"], id="exclude-not-a-monomial"),
        pytest.param("field", "x", "x^1.5", id="drift-fractional-exponent"),
        pytest.param("field", "x", "x^y", id="drift-symbolic-exponent"),
        pytest.param("field", "x", "y + 3/0", id="drift-zero-denominator"),
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


def _expressions(names):
    """Expressions over `names` from a small grammar: literals a/b with b in
    0..3 (so zero denominators too), 0.5 and a 21-digit integer, joined by
    + - * and raised to powers 0..3."""
    literals = st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 3))
    leaves = st.sampled_from(names) | literals | st.sampled_from(["0.5", "1" * 21])
    return st.recursive(
        leaves,
        lambda e: st.builds("{} {} {}".format, e, st.sampled_from("+-*"), e)
        | st.builds("({})^{}".format, e, st.integers(0, 3)),
        max_leaves=6,
    )


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(entry_names("quick")), st.data())
def test_cli_mutated_quick_spec_never_exits_internal(tmp_path_factory, name, data):
    # a quick spec with 1-3 of a drift, the precondition generators, the
    # query polynomials and the template degree replaced: a bad input exits
    # 3 or 4, and no input exits 5, the exit code of an internal error
    spec = yaml.safe_load(Path(_corpus_path(name)).read_text(encoding="utf-8"))
    query = spec["query"]
    exprs = _expressions(spec["variables"])
    polys = st.lists(exprs, min_size=1, max_size=2)
    targets = ["drift", "precondition"] + [k for k in ("postcondition", "generators") if k in query]
    if query["kind"] == "post":
        targets.append("degree")
    for target in data.draw(st.lists(st.sampled_from(targets), min_size=1, max_size=3, unique=True)):
        if target == "drift":
            spec["field"][data.draw(st.sampled_from(spec["variables"]))] = data.draw(exprs)
        elif target == "degree":
            query["template"]["degree"] = data.draw(st.integers(0, 2))
        elif target == "precondition":
            spec.setdefault("precondition", {})["generators"] = data.draw(polys)
        else:
            query[target] = data.draw(polys)
    path = tmp_path_factory.getbasetemp() / "mutated.yaml"
    path.write_text(yaml.safe_dump(spec), encoding="utf-8")
    assert main([query["kind"], str(path), "--no-numeric"]) != 5


@pytest.mark.parametrize(
    "edit",
    [
        {"name": [1, 2]},
        {"description": {"a": 1}},
        # names that the grammar reads as a number, or as two identifiers
        {"variables": ["x", "2"], "field": {"x": "1", "2": "x"}, "precondition": None},
        {"variables": ["x y"], "field": {"x y": "1"}, "precondition": None},
    ],
    ids=["name-list", "description-mapping", "variable-number", "variable-with-space"],
)
def test_cli_malformed_name_is_input_error(tmp_path, capsys, edit):
    # each exited 0: a name or description of another YAML type was kept
    # as its str(), and a variable the parser cannot read back was printed
    # in the report's expressions
    data = yaml.safe_load(Path(_corpus_path("running-post")).read_text(encoding="utf-8"))
    spec = tmp_path / "names.yaml"
    spec.write_text(yaml.safe_dump({**data, **edit}), encoding="utf-8")
    assert main(["post", str(spec)]) == 3
    assert "must be" in capsys.readouterr().err


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


def _planar_data(field=("y^2", "x*y"), **numeric):
    """x' = y^2, y' = x*y with the invariant line x = y, numeric check on."""
    return {
        "variables": ["x", "y"],
        "field": dict(zip("xy", field)),
        "query": {"kind": "invariant", "generators": ["x - y"]},
        "numeric_check": {"enabled": True, **numeric},
    }


def _planar_invariant(tmp_path, field=("y^2", "x*y"), **numeric):
    """The spec file of `_planar_data` in `tmp_path`."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(_planar_data(field, **numeric)))
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


def test_cli_decimal_exponent_far_outside_doubles_is_refused_at_once(tmp_path):
    # Fraction would multiply each exponent out in full, for hours; each
    # literal is refused first.  A child process runs the three, so that a
    # hang fails the test by its timeout
    for name in ("horizon", "point", "flag"):
        (tmp_path / name).mkdir()
    spec = _planar_invariant(tmp_path / "horizon", horizon="1e999999999")
    point = _planar_invariant(tmp_path / "point", points=[{"x": "1e-999999999", "y": 0}])
    flag = _planar_invariant(tmp_path / "flag")
    script = (
        "import json, sys, time\n"
        "from odeinv.cli import main\n"
        "times = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    t0 = time.perf_counter()\n"
        "    times.append([main(argv), time.perf_counter() - t0])\n"
        "print(json.dumps(times))\n"
    )
    cases = [
        ["invariant", str(spec)],
        ["invariant", str(point)],
        ["verify-numeric", str(flag), "--horizon", "1e999999999"],
    ]
    src = str(Path(odeinv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", script, json.dumps(cases)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=20,
    )
    results = json.loads(child.stdout)
    assert [code for code, _ in results] == [3, 3, 3]
    assert all(seconds < 1.0 for _, seconds in results), results
    assert child.stderr.count("is outside the double range") == 3


# Numbers far outside the double range: a decimal exponent past the cap, or
# hundreds to thousands of digits
_OVERSIZED = st.builds(
    "{}{}e{}{}".format,
    st.sampled_from(["", "-", "0.", "1_0", "0.000"]),
    st.text("0123456789", min_size=1, max_size=30),
    st.sampled_from(["", "-", "+"]),
    st.integers(2468, 10**12),
) | st.builds(str.__mul__, st.sampled_from("123456789"), st.integers(400, 4400))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(key=st.sampled_from(["horizon", "step", "tolerance", "point"]), text=_OVERSIZED, by_flag=st.booleans())
def test_cli_oversized_numeric_settings_exit_3_at_once(tmp_path_factory, key, text, by_flag):
    # in the spec or as a flag, each is refused before a large number is built
    path = tmp_path_factory.getbasetemp() / "oversized.yaml"
    if key == "point":
        path.write_text(yaml.safe_dump(_planar_data(points=[{"x": text, "y": 0}])))
        argv = ["invariant", str(path)]
    elif by_flag:
        path.write_text(yaml.safe_dump(_planar_data()))
        argv = ["verify-numeric", str(path), f"--{key}={text}"]
    else:
        path.write_text(yaml.safe_dump(_planar_data(**{key: text})))
        argv = ["invariant", str(path)]
    err = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stderr(err):
        assert main(argv) == 3
    assert time.perf_counter() - started < 1.0
    assert err.getvalue().startswith("error: ")

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


def test_every_attribute_a_package_class_sets_is_read():
    # no state outlives its last reader: every attribute that a package
    # class sets, by `self.X = ...` or `object.__setattr__(self, "X", ...)`,
    # is loaded as `.X`, or named by a literal `getattr(..., "X")`, in the
    # package, in bench/ or in the tests.  A read is matched by name alone,
    # so an attribute that shares its name with one read elsewhere passes
    package = Path(odeinv.__file__).resolve().parent
    root = package.parents[1]
    written, read = {}, set()
    for path in [*package.glob("*.py"), *(root / "bench").glob("*.py"), *(root / "tests").glob("*.py")]:
        for node, owner in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8"))):
            name = None
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    name = node.attr
            elif (
                isinstance(node, ast.Call)
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "getattr":
                    read.add(node.args[1].value)
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "object"
                ):
                    name = node.args[1].value
            if name is not None and path.parent == package:
                written[f"{owner.split('.')[0]}.{name}"] = name
    assert {"SystemSpec.variables", "Polynomial._terms"} <= set(written)
    assert sorted(q for q, name in written.items() if name not in read) == []


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
