"""Command-line front end.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error
(refused before any work), 3 I/O error (the result could not be
written), 4 internal error (any other exception).  Output files are
byte-identical across runs with the same arguments; wall time goes to
stderr only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import __version__, colour, report, ybe
from .scalar import parse_rat

REVERSE_SECTOR_LABELS = {v: k for k, v in report.SECTOR_LABELS.items()}


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix of a flag stands for the flag: "--form" is not "--format"
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # argparse takes "-1/2" for an option; let a negative p/q be a value
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise _UsageError(message)


def _bounded_int(what: str, low: int, high: int):
    """An argparse type: integers outside low..high are refused before any
    work starts.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{what} must be an integer in {low}..{high}, got {text!r}")
        return value

    return parse


_rank = _bounded_int("rank", 2, report.MAX_RANK)
_rungs = _bounded_int("rung count", 0, colour.MAX_RUNGS)


def _spectral(text: str):
    """A spectral parameter p or p/q; malformed text and q = 0 are refused."""
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"spectral parameter must be p or p/q with integers p, q and q != 0, got {text!r}"
        ) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="spincas", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spincas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv")):
        p.add_argument("--r", type=_rank, default=2, help=f"rank (2..{report.MAX_RANK})")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    common(sub.add_parser("gamma", help="gamma-matrix integrity checks"))
    common(sub.add_parser("oracle", help="independent algebra oracles"))
    common(sub.add_parser("invariants", help="invariant recurrences and polynomial tables"))
    common(sub.add_parser("spectra", help="spectral suite, or with --format csv the eigenvalue tables"))

    colour_p = common(sub.add_parser("colour", help="ladder colour factors"), ("json",))
    colour_p.add_argument("--L", type=_rungs, default=2, help=f"rung count (0..{colour.MAX_RUNGS})")
    colour_p.add_argument("--sector", choices=tuple(REVERSE_SECTOR_LABELS), default="pp")

    ybe_p = common(sub.add_parser("ybe", help="Yang-Baxter record: the grid, or one point (--u, --v)"), ("json",))
    ybe_p.add_argument("--mode", choices=("braid", "plain", "full"), default="braid",
                       help="braid or plain form of the sector family, or the full series (braid form)")
    ybe_p.add_argument("--u", type=_spectral, help="spectral parameter, e.g. 2/3")
    ybe_p.add_argument("--v", type=_spectral, help="second spectral parameter, e.g. 5/7")

    report_p = common(sub.add_parser("report", help="run suites and emit a report"))
    report_p.add_argument("--r-max", type=_rank, default=None,
                          help="upper rank bound (default: --r)")
    report_p.add_argument("--suites", default=",".join(report.SUITES),
                          help="comma-separated subset of " + ",".join(report.SUITES))
    return parser


def _suite_report(args, suites: tuple[str, ...], r_max: int) -> tuple[str, int]:
    try:
        cfg = report.SuiteConfig(r_min=args.r, r_max=r_max, suites=suites)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    result = report.run_suite(cfg)
    return report.render_report(result, args.format), 0 if result["ok"] else 1


def _run_command(args) -> tuple[str, int]:
    if args.command == "spectra" and args.format == "csv":
        tables, witness = report.emit_tables(args.r)
        if witness:
            print(f"verification failure: {witness}", file=sys.stderr)
        return tables, 1 if witness else 0

    if args.command in ("gamma", "oracle", "invariants", "spectra"):
        return _suite_report(args, (args.command,), args.r)

    if args.command == "colour":
        spec = colour.LadderSpec(r=args.r, L=args.L, sector=REVERSE_SECTOR_LABELS[args.sector])
        result = colour.colour_report(spec)
        return json.dumps(result, indent=2) + "\n", 0 if result["record"]["ok"] else 1

    if args.command == "ybe":
        return _run_ybe(args)

    if args.command == "report":
        suites = tuple(s for s in args.suites.split(",") if s)
        return _suite_report(args, suites, args.r if args.r_max is None else args.r_max)

    raise _UsageError(f"unknown command {args.command!r}")


def _run_ybe(args) -> tuple[str, int]:
    if args.u is None and args.v is None:
        pairs = ybe.grid_points(args.r)  # pole-free by construction
    elif args.u is not None and args.v is not None:
        if args.mode != "full" and ybe.ybe_pole(ybe.tau_denominator(args.r), args.u, args.v):
            raise _UsageError(f"(u, v) = ({args.u}, {args.v}) is at a pole of the {args.mode} sector family")
        pairs = [(args.u, args.v)]
    else:
        raise _UsageError("provide both --u and --v, or neither for the whole grid")

    if args.mode == "braid":
        record = ybe.ybe_check(args.r, pairs)
    elif args.mode == "plain":
        record = ybe.plain_ybe_spot_check(args.r, "+", pairs)
    else:
        record = ybe.full_ybe_check(args.r, pairs)
    payload = {
        "engine_version": __version__,
        "spec": {"r": args.r, "mode": args.mode},
        "record": record.as_dict(),
    }
    return json.dumps(payload, indent=2) + "\n", 0 if record.ok else 1


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {out}: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        text, code = _run_command(args)
        _write_output(text, args.out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback  # only here, so that start-up does not pay for it

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 4
    print(f"wall time: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
