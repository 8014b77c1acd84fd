"""Side-by-side scheduler comparison, and every output format the CLI prints.

The six built-in workloads ship with reference totals for cross-checking.
``compare_scenario`` replays the requested schedulers, reports the replayed
pricing as ground truth, and lists every cell where a bundled reference
disagrees with it.  A report's ``totals`` maps each algorithm to its
``AccessTotals`` in canonical (``ALGORITHM_NAMES``) order.
``compare_builtin_suite`` is the sum of the six per-case reports: totals
summed per algorithm, reference deltas and notes concatenated in case
order.  A report reads its queue length and its two headline percentages
from its totals: the percentages compare the proposed scheduler's ADAT
against the means of the six classic schedulers and the five peer policies.

This module renders every output format: a run, a comparison and the
oracle's answer.  A table (totals, trace, bad sectors) is one header plus
rows, of ints and plain tokens, printed as text padded by one row format,
or as CSV.  All rendering is deterministic: same inputs, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping

from .geometry import render_index
from .metrics import AccessTotals, ServiceStep, improvement
from .schedulers import (
    ALGORITHM_NAMES,
    PROPOSED_ALGORITHM,
    REFERRED_ALGORITHMS,
    TRADITIONAL_ALGORITHMS,
    SchedulerRun,
    run_scheduler,
)
from .workload import BUILTIN_CASE_IDS, Scenario, builtin_case

# Totals bundled with the built-in cases, keyed (case, algorithm) ->
# (tskt, trl, tdtt, tdat).  Cases 1, 3 and 4 only carry the rows that are
# unambiguous in the bundled source material; replayed pricing is
# authoritative wherever the two disagree.
REFERENCE_TOTALS: dict[int, dict[str, tuple[int, int, int, int]]] = {
    1: {
        "fcfs": (231, 67, 20, 318),
        "sstf": (231, 75, 20, 326),
        "scan": (261, 75, 20, 356),
        "cscan": (373, 90, 20, 483),
        "look": (231, 75, 20, 326),
        "clook": (337, 90, 20, 447),
    },
    2: {
        "fcfs": (267, 80, 20, 367),
        "sstf": (204, 78, 20, 302),
        "scan": (260, 78, 20, 358),
        "cscan": (367, 77, 20, 464),
        "look": (204, 78, 20, 302),
        "clook": (283, 77, 20, 380),
        "odsa": (204, 70, 20, 294),
        "hdsa": (204, 78, 20, 302),
        "rp10": (267, 80, 20, 367),
        "smcc": (204, 70, 20, 294),
        "mrsa": (204, 70, 20, 294),
        "modsbsm": (204, 62, 20, 286),
    },
    3: {
        "fcfs": (1392, 75, 20, 1487),
        "sstf": (236, 75, 20, 331),
        "scan": (363, 77, 20, 460),
        "cscan": (365, 66, 20, 451),
    },
    4: {
        "fcfs": (301, 79, 45, 425),
        "sstf": (333, 79, 45, 457),
        "scan": (240, 83, 44, 367),
        "cscan": (381, 74, 43, 498),
        "look": (236, 83, 44, 363),
        "clook": (341, 74, 43, 458),
    },
    5: {
        "fcfs": (308, 80, 51, 439),
        "sstf": (223, 75, 49, 347),
        "scan": (314, 72, 51, 437),
        "cscan": (396, 83, 50, 529),
        "look": (308, 72, 51, 431),
        "clook": (352, 83, 50, 485),
        "odsa": (223, 75, 49, 347),
        "hdsa": (223, 75, 49, 347),
        "rp10": (308, 72, 51, 431),
        "smcc": (223, 75, 49, 347),
        "mrsa": (223, 75, 49, 347),
        "modsbsm": (223, 51, 45, 319),
    },
    6: {
        "fcfs": (1479, 80, 44, 1603),
        "sstf": (269, 80, 52, 401),
        "scan": (293, 80, 51, 424),
        "cscan": (391, 85, 52, 528),
        "look": (225, 80, 51, 356),
        "clook": (293, 85, 52, 430),
        "odsa": (225, 72, 52, 349),
        "hdsa": (225, 80, 52, 357),
        "rp10": (225, 80, 51, 356),
        "smcc": (225, 72, 52, 349),
        "mrsa": (225, 72, 49, 347),
        "modsbsm": (225, 57, 47, 329),
    },
}

_CASE3_NOTE = (
    "case 3: reference totals beyond fcfs/sstf/scan/cscan are not bundled "
    "(the source rows are ambiguous); replayed values are authoritative"
)

_METRIC_NAMES = ("tskt", "trl", "tdtt", "tdat")
_SUMMED_FIELDS = attrgetter("tskt", "trl", "tdtt", "request_count")


@dataclass(frozen=True)
class Discrepancy:
    case_id: int
    algorithm: str
    metric: str
    reference: int
    computed: int


@dataclass(frozen=True)
class ComparisonReport:
    label: str
    totals: dict[str, AccessTotals]
    discrepancies: tuple[Discrepancy, ...]
    notes: tuple[str, ...]

    @property
    def request_count(self) -> int:
        return next(iter(self.totals.values())).request_count

    @property
    def improvement_vs_traditional(self) -> float | None:
        return self._improvement_over(TRADITIONAL_ALGORITHMS)

    @property
    def improvement_vs_referred(self) -> float | None:
        return self._improvement_over(REFERRED_ALGORITHMS)

    def _improvement_over(self, group: tuple[str, ...]) -> float | None:
        """The proposed scheduler's ADAT gain over the group's mean, if the report has them all."""
        totals = self.totals
        if PROPOSED_ALGORITHM not in totals or not all(name in totals for name in group):
            return None
        return improvement([totals[name].adat for name in group], totals[PROPOSED_ALGORITHM].adat)


# Built once: scenarios are frozen, so every report can share them.
_BUILTIN_CASES = tuple((case_id, builtin_case(case_id)) for case_id in BUILTIN_CASE_IDS)


def identify_builtin(scenario: Scenario) -> int | None:
    """Which built-in case this scenario is, if any (exact match)."""
    for case_id, case in _BUILTIN_CASES:
        if scenario == case:
            return case_id
    return None


def normalize_algorithms(algorithms: Iterable[str] | None) -> tuple[str, ...]:
    """Validate a selection and put it in canonical order."""
    if algorithms is None:
        return ALGORITHM_NAMES
    chosen = list(algorithms)
    if not chosen:
        raise ValueError("no algorithms selected")
    for name in chosen:
        if name not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {name!r}")
    return tuple(name for name in ALGORITHM_NAMES if name in chosen)


def _case_discrepancies(
    case_id: int, totals: Mapping[str, AccessTotals]
) -> list[Discrepancy]:
    references = REFERENCE_TOTALS.get(case_id, {})
    found = []
    for name, got_totals in totals.items():
        reference = references.get(name)
        if reference is None:
            continue
        for metric, ref_value, got in zip(_METRIC_NAMES, reference, got_totals.as_tuple()):
            if ref_value != got:
                found.append(Discrepancy(case_id, name, metric, ref_value, got))
    return found


def compare_scenario(
    scenario: Scenario,
    algorithms: Iterable[str] | None = None,
    paper_directions: bool = False,
) -> ComparisonReport:
    """Run the selected schedulers over one scenario and compare totals.

    ``paper_directions`` applies the scenario's direction hints; it defaults
    to False here but to True in ``compare_builtin_suite``.
    """
    names = normalize_algorithms(algorithms)
    totals = {
        name: run_scheduler(scenario, name, use_hints=paper_directions).totals for name in names
    }
    case_id = identify_builtin(scenario)
    discrepancies: tuple[Discrepancy, ...] = ()
    notes: tuple[str, ...] = ()
    label = "scenario"
    if case_id is not None:
        label = f"built-in case {case_id}"
        discrepancies = tuple(_case_discrepancies(case_id, totals))
        if case_id == 3:
            notes = (_CASE3_NOTE,)
    return ComparisonReport(
        label=label,
        totals=totals,
        discrepancies=discrepancies,
        notes=notes,
    )


def compare_builtin_suite(
    algorithms: Iterable[str] | None = None,
    paper_directions: bool = True,
) -> ComparisonReport:
    """The per-algorithm sum of the six built-in cases' reports.

    Each case is reported by ``compare_scenario`` with this
    ``paper_directions``, whose default is True here but False there.  ADAT
    is taken over the combined request count; per-case reference deltas and
    notes are concatenated in case order.
    """
    names = normalize_algorithms(algorithms)
    reports = [compare_scenario(case, names, paper_directions) for _, case in _BUILTIN_CASES]
    totals = {
        name: AccessTotals(*map(sum, zip(*(_SUMMED_FIELDS(r.totals[name]) for r in reports))))
        for name in names
    }
    return ComparisonReport(
        label="built-in cases " + ",".join(str(c) for c in BUILTIN_CASE_IDS),
        totals=totals,
        discrepancies=tuple(d for r in reports for d in r.discrepancies),
        notes=tuple(n for r in reports for n in r.notes),
    )


# ---------------------------------------------------------------------------
# Rendering

TOTALS_HEADER = ("algorithm", "tskt", "trl", "tdtt", "tdat", "adat")
_TOTALS_FORMAT = "{:<10}{:>7}{:>6}{:>6}{:>7}{:>9}"
TRACE_HEADER = ("step", "track", "platter", "sector", "seek", "latency", "transfer", "access")
# The text trace is the paper's T S P ST RL DTT DAT table: the same rows,
# without the step number, under the paper's labels.
_TRACE_LABELS = ("step", "T", "P", "S", "ST", "RL", "DTT", "DAT")
_TRACE_FORMAT = "{1:>5}{3:>4}{2:>4}{4:>6}{5:>5}{6:>5}{7:>6}"
BAD_SECTOR_HEADER = ("index", "bsi", "classification", "prescribed_bit", "finalized")
_BAD_SECTOR_FORMAT = "{:<12}{:>4}  {:<14}{:>15}{:>10}"


def _totals_rows(rows: Iterable[tuple[str, AccessTotals]]) -> list[tuple]:
    return [(name, *t.as_tuple(), t.adat_text) for name, t in rows]


def _trace_rows(steps: Iterable[ServiceStep]) -> list[tuple]:
    return [(k, *s.address, s.seek, s.latency, s.transfer, s.access) for k, s in enumerate(steps, 1)]


def _bad_sector_rows(run: SchedulerRun) -> list[tuple]:
    return [
        (render_index(e.index), e.bsi, e.classification, e.prescribed_bit, e.finalized)
        for e in run.bad_sector_table
    ]


def _text(row_format: str, header: tuple, rows: Iterable[tuple]) -> list[str]:
    """The header and rows as lines, each padded by ``row_format``."""
    return [row_format.format(*row) for row in (header, *rows)]


def _csv(header: tuple, rows: Iterable[tuple]) -> str:
    """The header and rows as comma-separated lines."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _total_line(t: AccessTotals) -> str:
    return f"total: tskt={t.tskt} trl={t.trl} tdtt={t.tdtt} tdat={t.tdat} adat={t.adat_text}"


def trace_csv(steps: Iterable[ServiceStep]) -> str:
    """Render steps as CSV, one row per visit, 1-based step numbers."""
    return _csv(TRACE_HEADER, _trace_rows(steps))


def totals_csv(rows: Iterable[tuple[str, AccessTotals]]) -> str:
    """Render (algorithm, totals) pairs as CSV under ``TOTALS_HEADER``."""
    return _csv(TOTALS_HEADER, _totals_rows(rows))


def _improvements(report: ComparisonReport) -> list[tuple[str, float]]:
    """The report's (group, percentage) pairs, traditional first, skipping any it lacks."""
    pairs = (("traditional", report.improvement_vs_traditional),
             ("referred", report.improvement_vs_referred))
    return [(group, value) for group, value in pairs if value is not None]


def render_comparison_table(report: ComparisonReport) -> str:
    lines = [f"workload: {report.label} ({report.request_count} requests)", ""]
    lines += _text(_TOTALS_FORMAT, TOTALS_HEADER, _totals_rows(report.totals.items()))
    if improvements := _improvements(report):
        lines.append("")
        lines += (f"improvement vs {group} mean: {value:.2f}%" for group, value in improvements)
    if report.discrepancies:
        lines.append("")
        lines.append("reference deltas (replayed value is authoritative):")
        for d in report.discrepancies:
            lines.append(
                f"  case {d.case_id} {d.algorithm} {d.metric}: "
                f"computed {d.computed}, reference {d.reference}"
            )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_comparison_csv(report: ComparisonReport) -> str:
    lines = [f"improvement_vs_{group}={value:.2f}" for group, value in _improvements(report)]
    for d in report.discrepancies:
        lines.append(
            f"delta case={d.case_id} alg={d.algorithm} metric={d.metric} "
            f"computed={d.computed} reference={d.reference}"
        )
    for note in report.notes:
        lines.append(f"note {note}")
    return totals_csv(report.totals.items()) + "".join(f"# {line}\n" for line in lines)


def render_run_table(run: SchedulerRun, with_trace: bool = False) -> str:
    lines = [f"algorithm: {run.algorithm}"]
    if with_trace:
        lines += _text(_TRACE_FORMAT, _TRACE_LABELS, _trace_rows(run.steps))
    lines.append(_total_line(run.totals))
    if run.passes != 1:
        lines.append(f"passes: {run.passes}")
    if run.bad_sector_table:
        lines.append("bad sectors:")
        lines += _text(_BAD_SECTOR_FORMAT, BAD_SECTOR_HEADER, _bad_sector_rows(run))
    if run.abandoned:
        ranks = ",".join(str(rank) for rank in run.abandoned)
        lines.append(f"abandoned requests (arrival ranks): {ranks}")
    if run.note:
        lines.append(f"note: {run.note}")
    return "\n".join(lines) + "\n"


def render_run_csv(run: SchedulerRun, with_trace: bool = False) -> str:
    blocks = []
    if with_trace:
        blocks.append(trace_csv(run.steps))
    blocks.append(totals_csv([(run.algorithm, run.totals)]))
    if run.bad_sector_table:
        blocks.append(_csv(BAD_SECTOR_HEADER, _bad_sector_rows(run)))
    return "\n".join(blocks)


def render_oracle(run: SchedulerRun) -> str:
    """The oracle's queue length, order and totals, as ``plattersim oracle`` prints them."""
    order = " ".join(map(render_index, run.visits))
    return f"requests: {run.totals.request_count}\norder: {order}\n{_total_line(run.totals)}\n"
