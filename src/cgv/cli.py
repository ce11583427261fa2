"""Command-line frontend: `cgv check <suite>` and `cgv eval <expr>`.

Exit codes: 0 = every check completed (refuting a published claim is a
successful run); 1 = internal error; 2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .parsing import ParseError
from .reportlib import RunConfig, render_json, render_text
from .suites import SUITE_NAMES, eval_expr, run_suite

USAGE_EXIT = 2
ERROR_EXIT = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgv",
        description="Exact-arithmetic verification of the tricanonical-system "
                    "and quotient-curve computations on the invariant quintic.",
    )
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("check", help="run a named check suite")
    check.add_argument("suite", choices=SUITE_NAMES)
    check.add_argument("--m", dest="m_expr", default=None,
                       help="specialize the parameter m to an exact expression, e.g. 1 or r^2")
    check.add_argument("--seed", type=int, default=1, help="64-bit seed for the rank survey")
    check.add_argument("--survey", type=int, default=100, help="number of survey points")
    check.add_argument("--bound", type=int, default=5, help="scan bound for the witness search")
    check.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    check.add_argument("--out", default=None, help="write the report to this path instead of stdout")

    ev = sub.add_parser("eval", help="evaluate a polynomial expression to canonical form")
    ev.add_argument("expr")
    return parser


def _glue_m_value(argv):
    """Rewrite `--m VALUE` as `--m=VALUE`.

    argparse reads a value such as `-r` or `-2/3*r^2+5` as an option and
    rejects `--m -r`; glued to its flag, the value is taken as given.
    """
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg == "--m" else None
        out.append(arg if value is None else f"--m={value}")
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_m_value(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize
        return USAGE_EXIT if exc.code not in (0, None) else 0

    if args.command == "eval":
        try:
            print(eval_expr(args.expr))
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return USAGE_EXIT
        return 0

    if args.command == "check":
        try:
            config = RunConfig(m_expr=args.m_expr, seed=args.seed,
                               survey=args.survey, bound=args.bound)
        except (ParseError, ValueError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return USAGE_EXIT
        checks = run_suite(args.suite, config)
        render = render_json if args.fmt == "json" else render_text
        text = render(args.suite, config, checks)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"configuration error: cannot write {args.out}: {exc.strerror}",
                      file=sys.stderr)
                return USAGE_EXIT
        else:
            sys.stdout.write(text)
        return ERROR_EXIT if any(c.error for c in checks) else 0

    parser.print_usage(sys.stderr)
    return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
