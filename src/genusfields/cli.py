"""Command-line front end.

Subcommands: ``compute`` runs one job, ``compare`` is compute with the
comparison section forced on, ``selftest`` runs the reduced property
suites.  The job text is read in one step, from the job file or from
standard input, and a report, or the selftest's lines, is written in
one step, to the ``--output`` file or to standard output, and flushed
there, so a failed read or write is an I/O error like any other.  Exit
codes: 0 success, 2 parse error (including job text, from a file or
standard input, that is not valid UTF-8), 3 invalid descriptor, 4
internal invariant violation (including a prime that fails its
certificate inside factorization), 5 I/O error (job file or standard
input unreadable, or the output file or standard output unwritable),
1 selftest failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace

from .errors import InternalCheckError, InvalidDescriptorError, ParseError
from .report import parse_input, run


def _add_job_options(sub):
    sub.add_argument("job", nargs="?", default="-",
                     help="job file, or - for standard input (default)")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default text)")
    sub.add_argument("--seed", type=int, default=0,
                     help="factorization seed (default 0)")
    sub.add_argument("--strict", action="store_true",
                     help="reject trivial components and non-Kummer m at parse time")
    sub.add_argument("--infinite", action="store_true",
                     help="include the ramification index over the infinite place")
    sub.add_argument("--output", default=None,
                     help="write the report to a file instead of standard output")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="genusfields",
        description="Extended genus fields of Kummer extensions of F_q(T), "
                    "computed exactly.")
    commands = parser.add_subparsers(dest="command", required=True)
    compute = commands.add_parser("compute", help="run one job")
    _add_job_options(compute)
    comp = commands.add_parser("compare",
                               help="run one job with the comparison section on")
    _add_job_options(comp)
    self_p = commands.add_parser("selftest",
                                 help="run the reduced property suites")
    self_p.add_argument("--seed", type=int, default=0)
    return parser


def _write(text: str, output=None) -> int:
    """Write ``text`` to the file ``output``, or to standard output when
    ``output`` is None; 0 on success, else one line on stderr and 5."""
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        where = "standard output" if output is None else "output file"
        print(f"I/O error: cannot write {where}: {exc}", file=sys.stderr)
        return 5
    return 0


def _read(job: str):
    """The bytes of the file ``job``, or of standard input when ``job`` is
    "-"; None after one line on stderr when they cannot be read."""
    try:
        if job == "-":
            if sys.stdin is None:   # file descriptor 0 was closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            return sys.stdin.buffer.read()
        with open(job, "rb") as handle:
            return handle.read()
    except OSError as exc:
        where = "standard input" if job == "-" else "job file"
        print(f"I/O error: cannot read {where}: {exc}", file=sys.stderr)
        return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "selftest":
        from .selftest import run_selftest
        lines = []
        passed = run_selftest(seed=args.seed, write=lines.append)
        return _write("\n".join(lines) + "\n") or (0 if passed else 1)

    data = _read(args.job)
    if data is None:
        return 5

    try:
        config = parse_input(data.decode("utf-8"), strict=args.strict)
    except UnicodeDecodeError:
        print("parse error: job text is not valid UTF-8", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    config = replace(config, seed=args.seed, fmt=args.format,
                     strict=args.strict, include_infinite=args.infinite,
                     include_comparison=(args.command == "compare"))

    try:
        report = run(config)
    except InvalidDescriptorError as exc:
        print(f"invalid descriptor: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4

    rendered = (report.to_json() if config.fmt == "json" else report.to_text())
    return _write(rendered + "\n", args.output)
