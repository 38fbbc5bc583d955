"""Command-line interface.

Three subcommands: `analyze` tests panel changes against the
first-digit law over date ranges, `track` follows conformity through
rolling windows, and `synth` writes synthetic panels with a controlled
digit distribution.  Exit codes: 0 on success, 1 for usage or
configuration errors (reported before any input is read), 2 for data
errors such as parse failures or series too short to analyze, and 141
(128 + SIGPIPE) when the reader of standard output closes it early.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from datetime import date

from . import __version__
from .panel import CHANGE_MODES, daily_changes, iso_date, parse_panel, serialize_panel
from .reporting import build_period_report, build_track_report, emit
from .synthetic import KINDS, SynthSpec, synth_panel
from .windows import PeriodSpec, WindowSpec, named_periods

_PERIOD_LABELS = tuple(p.label for p in named_periods())


class _Parser(argparse.ArgumentParser):
    # usage errors exit with 1, leaving 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", default="-", help="panel CSV path, - for stdin")
    sub.add_argument("--out", default="-", help="output path, - for stdout")
    sub.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        help="output format",
    )


def _add_change_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--tenor", action="append", default=None, metavar="TENOR",
        help="restrict to this tenor (repeatable; default all)",
    )
    sub.add_argument(
        "--change-mode", choices=CHANGE_MODES, default="absolute",
        help="daily change definition",
    )
    sub.add_argument(
        "--max-gap-days", type=int, default=None, metavar="DAYS",
        help="drop change pairs further apart than this (default unlimited)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="benfordtrack",
        description="First-digit law conformity testing for time-series panels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = subs.add_parser(
        "analyze",
        help="test daily changes over date ranges",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_io_flags(analyze)
    _add_change_flags(analyze)
    analyze.add_argument(
        "--from", dest="date_from", type=iso_date, default=None,
        metavar="DATE", help="custom range start (YYYY-MM-DD)",
    )
    analyze.add_argument(
        "--to", dest="date_to", type=iso_date, default=None,
        metavar="DATE", help="custom range end (YYYY-MM-DD)",
    )
    analyze.add_argument("--alpha", type=float, default=0.05, help="significance level")
    analyze.add_argument(
        "--period", action="append", choices=_PERIOD_LABELS, default=None,
        help="named period to test (repeatable; default all five)",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    track_cmd = subs.add_parser(
        "track",
        help="follow conformity through rolling windows",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_io_flags(track_cmd)
    _add_change_flags(track_cmd)
    track_cmd.add_argument(
        "--window-len", type=int, default=90, help="observations per window"
    )
    track_cmd.add_argument(
        "--step", type=int, default=45, help="observations between window starts"
    )
    track_cmd.set_defaults(handler=_cmd_track)

    synth = subs.add_parser(
        "synth",
        help="write a synthetic panel CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    synth.add_argument(
        "--kind", choices=KINDS, required=True,
        help="digit distribution of the generated changes",
    )
    synth.add_argument("--n", type=int, required=True, help="number of changes")
    synth.add_argument(
        "--seed", type=int, required=True,
        help="RNG seed (required; there is no silent default)",
    )
    synth.add_argument("--entity", default="SYNTH", help="entity label")
    synth.add_argument("--tenor", default="5Y", help="tenor label")
    synth.add_argument(
        "--start-date", type=iso_date, default=date(2008, 8, 8),
        metavar="DATE", help="first observation date, YYYY-MM-DD (weekdays from here)",
    )
    synth.add_argument(
        "--manip-fraction", type=float, default=None, metavar="FRACTION",
        help="fraction of values to rewrite toward --manip-digit",
    )
    synth.add_argument(
        "--manip-digit", type=int, default=None, metavar="DIGIT",
        help="first digit forced onto the rewritten values",
    )
    synth.add_argument("--out", default="-", help="output path, - for stdout")
    synth.set_defaults(handler=_cmd_synth)

    return parser


def _write_output(path: str, text: str) -> None:
    data = text.encode("utf-8")  # a lone surrogate from argv fails before any output
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()  # a closed pipe surfaces here, not at shutdown
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _closed_pipe() -> int:
    # the reader is gone: drop what is still buffered and exit quietly with
    # 128 + SIGPIPE, as a tool killed by the signal would
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 141


def _load_changes(args):
    with nullcontext(sys.stdin.buffer) if args.input == "-" else open(args.input, "rb") as fh:
        series = parse_panel(fh)
    tenors = set(args.tenor) if args.tenor else None
    kept = [s for s in series if tenors is None or s.tenor in tenors]
    return [
        daily_changes(s, max_gap_days=args.max_gap_days, mode=args.change_mode)
        for s in kept
    ]


def _run_report(parser: _Parser, args, parameters, build):
    """Shared tail of `analyze` and `track`: return the report's emitter.

    Checks the flags both commands share and builds the meta document
    from them and the command's own `parameters`; `build` makes the
    report from the changes and that meta.
    """
    if args.max_gap_days is not None and args.max_gap_days < 1:
        parser.error("--max-gap-days must be at least 1")
    meta = {
        "tool": "benfordtrack",
        "version": __version__,
        "command": args.command,
        "parameters": {
            "change_mode": args.change_mode,
            "max_gap_days": args.max_gap_days,
            "tenor": sorted(set(args.tenor)) if args.tenor else None,
            **parameters,
        },
    }
    return lambda: emit(build(_load_changes(args), meta), args.format)


def _cmd_analyze(parser: _Parser, args):
    if not 0.0 < args.alpha < 1.0:
        parser.error("alpha must lie in (0, 1)")
    if (args.date_from is None) != (args.date_to is None):
        parser.error("--from and --to must be given together")
    if args.date_from is not None:
        if args.date_from > args.date_to:
            parser.error("--from must not be after --to")
        if args.period:
            parser.error("--period cannot be combined with --from/--to")
        periods = [PeriodSpec("custom", args.date_from, args.date_to)]
    else:
        wanted = args.period or list(_PERIOD_LABELS)
        periods = [p for p in named_periods() if p.label in wanted]
    parameters = {
        "alpha": args.alpha,
        "periods": {p.label: [p.start.isoformat(), p.end.isoformat()] for p in periods},
    }
    return _run_report(
        parser, args, parameters,
        lambda changes, meta: build_period_report(changes, periods, args.alpha, meta=meta),
    )


def _cmd_track(parser: _Parser, args):
    try:
        spec = WindowSpec(args.window_len, args.step)
    except ValueError as exc:
        parser.error(str(exc))
    parameters = {"window_length": spec.length, "step": spec.step}
    return _run_report(
        parser, args, parameters,
        lambda changes, meta: build_track_report(changes, spec, meta=meta),
    )


def _cmd_synth(parser: _Parser, args):
    if args.n < 1:
        parser.error("--n must be at least 1")
    if (args.manip_fraction is None) != (args.manip_digit is None):
        parser.error("--manip-fraction and --manip-digit must be given together")
    manipulation = None
    if args.manip_fraction is not None:
        manipulation = (args.manip_fraction, args.manip_digit)
    try:
        spec = SynthSpec(args.kind, args.n, args.seed, manipulation)
        series = synth_panel(spec, entity=args.entity, tenor=args.tenor, start=args.start_date)
    except ValueError as exc:
        parser.error(str(exc))
    return lambda: serialize_panel([series])


def main(argv=None) -> int:
    """Run one command and map its errors to the exit code.

    Each handler checks its flags, exiting with 1 on a usage error, and
    returns the function that makes its output text.  Errors while
    making or writing that text exit with 2, a closed stdout with 141.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    make_output = args.handler(parser, args)
    try:
        _write_output(args.out, make_output())
    except BrokenPipeError:
        return _closed_pipe()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
