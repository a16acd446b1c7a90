"""Command-line interface.

Exit codes: 0 success (verdict holds), 1 fails, 2 inconclusive, 3 bad
input, 4 resource cap exceeded, 5 internal error.
"""

from __future__ import annotations

import argparse
import sys

from .algorithms import _MODES, ModeError
from .groebner import ResourceLimitError
from .report import lie_chain, run
from .sysspec import SpecError, SystemSpec

EXIT_BAD_INPUT = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


def _add_common(sub):
    sub.add_argument("spec", help="system specification file (YAML or JSON)")
    sub.add_argument("--report", metavar="PATH", help="write the JSON report here")
    sub.add_argument("--mode", choices=_MODES, help="override the radical mode")
    sub.add_argument("--max-iterations", type=int, help="chain iteration cap")
    sub.add_argument("--pair-budget", type=int, help="Buchberger pair budget")
    sub.add_argument("--max-degree", type=int, help="Buchberger degree cap")
    numeric = sub.add_mutually_exclusive_group()
    numeric.add_argument(
        "--numeric", dest="numeric", action="store_true", default=None,
        help="force the RK4 cross-check on",
    )
    numeric.add_argument(
        "--no-numeric", dest="numeric", action="store_false",
        help="force the RK4 cross-check off",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="odeinv",
        description=(
            "Exact algebraic postconditions, preconditions, and invariants "
            "for polynomial ODE systems."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for kind, summary in (
        ("post", "all template-shaped conservation laws valid from the precondition"),
        ("pre", "weakest algebraic precondition of the postcondition"),
        ("check", "decide an algebraic safety assertion"),
        ("invariant", "check Lie-closedness of a polynomial ideal"),
    ):
        _add_common(sub.add_parser(kind, help=summary))

    lie = sub.add_parser("lie", help="print the iterated Lie derivative chain")
    lie.add_argument("spec")
    lie.add_argument("--steps", type=int, default=2, help="derivative order to reach")

    vn = sub.add_parser(
        "verify-numeric", help="re-run the query and the RK4 trajectory check"
    )
    _add_common(vn)
    vn.add_argument("--samples", type=int, help="number of sample points")
    vn.add_argument("--horizon", help="integration horizon (exact literal)")
    vn.add_argument("--step", help="integration step (exact literal)")
    vn.add_argument("--tolerance", type=float, help="relative tolerance")
    return ap


def _overrides(args) -> dict:
    out = {}
    if args.mode is not None:
        out["mode"] = args.mode
    if args.max_iterations is not None:
        out["max_iterations"] = args.max_iterations
    if args.pair_budget is not None:
        out["pair_budget"] = args.pair_budget
    if args.max_degree is not None:
        out["max_degree"] = args.max_degree
    return out


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        spec = SystemSpec.load(args.spec)
        built = spec.build()
        if args.command == "lie":
            for entry in lie_chain(built, args.steps):
                print(f"{entry['subject']}:")
                for j, line in enumerate(entry["chain"]):
                    print(f"  L^{j}: {line}")
            return 0
        if args.command == "verify-numeric":
            given = {k: getattr(args, k) for k in ("samples", "horizon", "step", "tolerance")}
            spec.numeric.override(**{k: v for k, v in given.items() if v is not None})
            report = run(built, numeric=True, **_overrides(args))
        else:
            if args.command != spec.query_kind:
                print(
                    f"error: spec declares a {spec.query_kind!r} query; "
                    f"run `odeinv {spec.query_kind}` (or verify-numeric/lie)",
                    file=sys.stderr,
                )
                return EXIT_BAD_INPUT
            report = run(built, numeric=args.numeric, **_overrides(args))
    except (SpecError, ModeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(report.human_text())
    if args.report:
        report.write(args.report)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
