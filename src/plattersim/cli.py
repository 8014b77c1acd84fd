"""Command-line front end.

Subcommands: ``run`` one scheduler over a scenario, ``compare`` several
side by side, ``gen`` a seeded random scenario file, ``oracle`` the
exhaustive optimum, ``cases`` to dump the built-in workloads as files.

Exit codes: 0 success, 1 usage errors, 2 bad input (a scenario's parse,
bounds or content error, a ``gen`` or ``--savings`` value out of range, an
unreadable file), 3 oracle refusal on an oversized queue.  Any other
exception, a ``ValueError`` included, is a fault and propagates.

The first ``main`` call builds the parser tree and later calls in the
process share it, so callers must not change it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .geometry import (
    DiskGeometry,
    GeometryBoundsError,
    IndexSyntaxError,
    ParameterError,
    render_index,
)
from .metrics import energy_saved
from .oracle import MAX_ORACLE_REQUESTS, OracleSizeError, optimal_order
from .report import (
    compare_builtin_suite,
    compare_scenario,
    normalize_algorithms,
    render_comparison_csv,
    render_comparison_table,
    render_oracle,
    render_run_csv,
    render_run_table,
)
from .schedulers import ALGORITHM_NAMES, run_scheduler
from .workload import (
    BUILTIN_CASE_IDS,
    GeneratorParams,
    Scenario,
    ScenarioError,
    builtin_case,
    generate,
    parse_scenario,
    render_scenario,
)

_ORDER_TOKENS = {"asc": "ascending", "desc": "descending", "random": "random"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_scenario_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", metavar="FILE", help="scenario file to load")
    source.add_argument(
        "--builtin",
        type=int,
        choices=list(BUILTIN_CASE_IDS),
        help="use a built-in case instead of a file",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``plattersim`` parser tree, built on the first call and shared after.

    Each ``parse_args`` gets its own namespace; do not change the tree.
    """
    parser = _Parser(prog="plattersim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one scheduler over a scenario")
    _add_scenario_source(p_run)
    p_run.add_argument("--alg", required=True, choices=ALGORITHM_NAMES)
    p_run.add_argument("--trace", action="store_true", help="print the per-step trace")
    p_run.add_argument("--format", choices=("table", "csv"), default="table")
    p_run.add_argument(
        "--paper-directions",
        action="store_true",
        help="apply the direction hints stored in the scenario",
    )
    p_run.add_argument(
        "--savings",
        type=int,
        metavar="N",
        help="also report energy/heat saved per resolved bad sector over N projected reads",
    )
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run several schedulers side by side")
    source = p_cmp.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", metavar="FILE")
    source.add_argument(
        "--builtin",
        choices=[str(c) for c in BUILTIN_CASE_IDS] + ["all"],
        help="a built-in case, or 'all' for the aggregate over every case",
    )
    selection = p_cmp.add_mutually_exclusive_group(required=True)
    selection.add_argument("--all", action="store_true", help="every algorithm")
    selection.add_argument("--algs", metavar="A,B,C", help="comma-separated algorithms")
    p_cmp.add_argument("--paper-directions", action="store_true",
                       help="apply the direction hints stored in the scenario")
    p_cmp.add_argument("--format", choices=("table", "csv"), default="table")
    p_cmp.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("gen", help="generate a seeded random scenario file")
    p_gen.add_argument("--out", required=True, metavar="FILE")
    p_gen.add_argument("--requests", required=True, type=int)
    p_gen.add_argument("--platters", required=True, type=int)
    p_gen.add_argument("--tracks", required=True, type=int)
    p_gen.add_argument("--sectors", required=True, type=int)
    p_gen.add_argument("--order", required=True, choices=tuple(_ORDER_TOKENS))
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--bad", type=int, default=0, metavar="K",
                       help="mark K of the requests' addresses unreadable")
    p_gen.set_defaults(func=_cmd_gen)

    p_orc = sub.add_parser("oracle", help="exhaustively search for the optimal order")
    _add_scenario_source(p_orc)
    p_orc.add_argument(
        "--max",
        type=int,
        default=MAX_ORACLE_REQUESTS,
        help=f"largest queue to search exhaustively (default {MAX_ORACLE_REQUESTS})",
    )
    p_orc.set_defaults(func=_cmd_oracle)

    p_cases = sub.add_parser("cases", help="write the built-in cases as scenario files")
    p_cases.add_argument("--out", required=True, metavar="DIR")
    p_cases.set_defaults(func=_cmd_cases)

    return parser


def _load_scenario(args) -> Scenario:
    if getattr(args, "builtin", None) is not None:
        return builtin_case(int(args.builtin))
    return parse_scenario(Path(args.scenario).read_text())


def _cmd_run(args) -> int:
    scenario = _load_scenario(args)
    # energy_saved checks N here, before the run, so a bad N exits 2 with
    # nothing on stdout whether or not the run resolves an address.
    saving = None if args.savings is None else energy_saved(args.savings)
    run = run_scheduler(scenario, args.alg, use_hints=args.paper_directions)
    if args.format == "csv":
        sys.stdout.write(render_run_csv(run, with_trace=args.trace))
    else:
        sys.stdout.write(render_run_table(run, with_trace=args.trace))
    if saving is not None:
        saved = [saving] * len(run.resolved)
        prefix = "# " if args.format == "csv" else ""
        for address, (energy, heat) in zip(run.resolved, saved):
            print(f"{prefix}savings {render_index(address)}: energy={energy:g} fJ heat={heat:g}")
        print(
            f"{prefix}savings total (n={args.savings}): "
            f"energy={sum(e for e, _ in saved):g} fJ heat={sum(h for _, h in saved):g}"
        )
    return 0


def _cmd_compare(args) -> int:
    algorithms = None
    if args.algs is not None:
        names = [token.strip() for token in args.algs.split(",") if token.strip()]
        try:
            algorithms = normalize_algorithms(names)
        except ValueError as exc:
            print(f"plattersim compare: error: {exc}", file=sys.stderr)
            return 1
    if args.builtin == "all":
        report = compare_builtin_suite(algorithms, paper_directions=args.paper_directions)
    else:
        report = compare_scenario(
            _load_scenario(args), algorithms, paper_directions=args.paper_directions
        )
    if args.format == "csv":
        sys.stdout.write(render_comparison_csv(report))
    else:
        sys.stdout.write(render_comparison_table(report))
    return 0


def _cmd_gen(args) -> int:
    geometry = DiskGeometry(
        num_platters=args.platters,
        num_tracks=args.tracks,
        sectors_per_track=args.sectors,
    )
    params = GeneratorParams(
        request_count=args.requests,
        order=_ORDER_TOKENS[args.order],
        seed=args.seed,
        bad_count=args.bad,
    )
    scenario = generate(geometry, params)
    Path(args.out).write_text(render_scenario(scenario))
    print(f"wrote {args.out} ({args.requests} requests)")
    return 0


def _cmd_oracle(args) -> int:
    sys.stdout.write(render_oracle(optimal_order(_load_scenario(args), limit=args.max)))
    return 0


def _cmd_cases(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for case_id in BUILTIN_CASE_IDS:
        path = out / f"case{case_id}.dss"
        path.write_text(render_scenario(builtin_case(case_id)))
        print(f"wrote {path}")
    return 0


# Bad input exits 2.  UnicodeDecodeError is a ValueError, so it is named;
# any other ValueError is a fault in the program and propagates.
_BAD_INPUT = (
    ParameterError, ScenarioError, IndexSyntaxError, GeometryBoundsError, UnicodeDecodeError, OSError
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except OracleSizeError as exc:
        print(f"plattersim: {exc}", file=sys.stderr)
        return 3
    except _BAD_INPUT as exc:
        print(f"plattersim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
