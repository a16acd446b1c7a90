"""Command-line interface.  Every flag but `--report` and `lie --steps`
is a spec setting, whose text `SystemSpec.override` checks as the file's.

Exit codes: 0 success (verdict holds), 1 fails, 2 inconclusive, 3 bad
input (a usage error too), 4 resource cap exceeded, 5 internal error.
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

# the dests that are not spec settings
_NOT_SETTINGS = ("command", "spec", "report", "steps")


def _add_common(sub):
    sub.add_argument("spec", help="system specification file (YAML or JSON)")
    sub.add_argument("--report", metavar="PATH", help="write the JSON report here")
    sub.add_argument("--mode", help=f"override the radical mode: {', '.join(_MODES)}")
    sub.add_argument("--max-iterations", help="chain iteration cap")
    sub.add_argument("--pair-budget", help="Buchberger pair budget")
    sub.add_argument("--max-degree", help="Buchberger degree cap")
    numeric = sub.add_mutually_exclusive_group()
    numeric.add_argument(
        "--numeric", dest="numeric", action="store_true", default=None,
        help="force the RK4 cross-check on",
    )
    numeric.add_argument(
        "--no-numeric", dest="numeric", action="store_false",
        help="force the RK4 cross-check off",
    )
    sub.add_argument("--samples", help="number of sample points")
    sub.add_argument("--horizon", help="integration horizon (exact literal)")
    sub.add_argument("--step", help="integration step (exact literal)")
    sub.add_argument("--tolerance", help="relative tolerance")


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
    lie.add_argument("--steps", default=2, help="derivative order to reach")
    return ap


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_BAD_INPUT if exc.code else 0
    settings = {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS and v is not None}
    try:
        spec = SystemSpec.load(args.spec)
        spec.override(**settings)
        built = spec.build()
        if args.command == "lie":
            for entry in lie_chain(built, args.steps):
                print(f"{entry['subject']}:")
                for j, line in enumerate(entry["chain"]):
                    print(f"  L^{j}: {line}")
            return 0
        if args.command != spec.query_kind:
            raise SpecError(
                f"spec declares a {spec.query_kind!r} query; "
                f"run `odeinv {spec.query_kind}` (or lie)"
            )
        report = run(built)
        sys.stdout.write(report.human_text())
        if args.report:
            report.write(args.report)
    except (SpecError, ModeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
