"""Command-line frontend: `cgv check <suite>` and `cgv eval <expr>`.

Exit codes: 0 = every check completed (refuting a published claim is a
successful run); 1 = internal error; 2 = usage or configuration error,
or standard output could not be written for another reason than a closed
pipe (`cgv eval 1 > /dev/full`); 3 = standard output was closed before
all of it was written, as when `cgv eval ... | head -c 0` stops reading.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .parsing import ParseError, parse_poly
from .reportlib import RunConfig, render_json, render_text
from .suites import SUITE_NAMES, run_suite

USAGE_EXIT = 2
ERROR_EXIT = 1
PIPE_EXIT = 3


@functools.cache
def _build_parser():
    """The argument parser, the option strings of `cgv check` and the parser
    of each subcommand by name, built once per process; parsing leaves them
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="cgv",
        description="Exact-arithmetic verification of the tricanonical-system "
                    "and quotient-curve computations on the invariant quintic.",
    )
    sub = parser.add_subparsers(dest="command")

    # help is added here rather than by argparse, so that its option strings
    # are listed with the others
    check = sub.add_parser("check", help="run a named check suite", add_help=False)
    check.add_argument("suite", choices=SUITE_NAMES)
    options = (
        check.add_argument("-h", "--help", action="help", help="show this help message and exit"),
        check.add_argument("--m", dest="m_expr", default=None,
                           help="specialize the parameter m to an exact expression, e.g. 1 or r^2"),
        check.add_argument("--seed", type=int, default=1, help="64-bit seed for the rank survey"),
        check.add_argument("--survey", type=int, default=100, help="number of survey points"),
        check.add_argument("--bound", type=int, default=5, help="scan bound for the witness search"),
        check.add_argument("--format", dest="fmt", choices=("text", "json"), default="text"),
        check.add_argument("--out", default=None, help="write the report to this path instead of stdout"),
    )

    ev = sub.add_parser("eval", help="evaluate a polynomial expression to canonical form")
    ev.add_argument("expr")
    return parser, tuple(s for action in options for s in action.option_strings), sub.choices


def _is_check_option(arg, check_options) -> bool:
    """Does argparse read `arg` as one of `check_options`?  As argparse
    does, a long option may be abbreviated to any prefix longer than `--`."""
    name = arg.split("=", 1)[0]
    if name.startswith("--") and len(name) > 2:
        return any(o.startswith(name) for o in check_options)
    return name in check_options


def _shield_dash_values(argv, check_options):
    """Rewrite `--m VALUE` as `--m=VALUE`, and `eval EXPR` as `eval -- EXPR`.

    argparse reads a value such as `-r` or `-2/3*r^2+5` as an option and
    rejects `--m -r` and `eval -r*X`; glued to its flag, or after `--`, the
    value is taken as given.  One of `check_options`, the option strings of
    `cgv check`, abbreviated or not, is never glued, so `--m --form json`
    still lacks its value.  `eval -h` still asks for help.
    """
    out = []
    for arg in argv:
        if out[-1:] == ["--m"] and not _is_check_option(arg, check_options):
            out[-1] = f"--m={arg}"
        else:
            out.append(arg)
    expr = out[1] if out[:1] == ["eval"] and len(out) > 1 else ""
    if expr.startswith("-") and expr not in ("-h", "--help", "--"):
        out.insert(1, "--")
    return out


def _emit(text: str) -> int:
    """Write `text` to stdout and flush it: 0, PIPE_EXIT when the reader has
    closed the pipe, or USAGE_EXIT with one stderr line on any other failed
    write (a full disk, say).  Python flushes stdout again at exit, so on a
    failure stdout is pointed at the null device, and nothing more reaches
    stderr."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return PIPE_EXIT
        print(f"configuration error: cannot write standard output: {exc.strerror}",
              file=sys.stderr)
        return USAGE_EXIT
    return 0


def main(argv=None) -> int:
    # an exact verifier reads and prints integers of any length; Python caps
    # int <-> str conversion at 4,300 digits from 3.10.7 on
    lift_limit = getattr(sys, "set_int_max_str_digits", None)
    if lift_limit is not None:
        lift_limit(0)
    parser, check_options, commands = _build_parser()
    argv = _shield_dash_values(sys.argv[1:] if argv is None else argv, check_options)
    try:
        if argv and argv[0] in commands:
            # straight to the parser that argparse's top-level pass would hand
            # the rest to; leftovers get the error that pass prints
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize.  --help has
        # printed its text to stdout
        return USAGE_EXIT if exc.code not in (0, None) else _emit("")

    if args.command == "eval":
        try:
            value = parse_poly(args.expr)
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return USAGE_EXIT
        # reduced and printed canonically, a scalar as c0 + c1*r + c2*r^2
        return _emit(f"{value.as_nfelem() if value.is_constant() else value}\n")

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
        if args.out is not None:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"configuration error: cannot write {args.out}: {exc.strerror}",
                      file=sys.stderr)
                return USAGE_EXIT
        elif status := _emit(text):
            return status
        return ERROR_EXIT if any(c.error for c in checks) else 0

    parser.print_usage(sys.stderr)
    return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
