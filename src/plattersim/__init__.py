"""Deterministic multi-platter disk scheduling simulator.

Models a disk as tracks x platters x sectors with an abstract integer cost
model (seek = track distance, latency = forward rotation, transfer = platter
distance + 1), implements eleven classic and peer schedulers plus a
cylinder-ordered scheduler with staged bad-sector retirement, and ships an
exhaustive-search oracle, a seeded workload generator, six built-in
workloads with bundled reference totals, and a CLI (``plattersim``).
"""

from .faults import FaultModel, FaultSpec
from .geometry import (
    DiskGeometry,
    GeometryBoundsError,
    IndexSyntaxError,
    PhysicalAddress,
    parse_index,
    render_index,
    validate,
)
from .metrics import (
    AccessTotals,
    SchedulerRun,
    ServiceStep,
    Trace,
    energy_saved,
    improvement,
    replay,
    totals,
)
from .modsbsm import (
    BadSectorEntry,
    DirectionDecision,
    decide_direction,
    execute,
)
from .oracle import (
    MAX_ORACLE_REQUESTS,
    OracleSizeError,
    optimal_order,
    verify_trace,
)
from .report import (
    REFERENCE_TOTALS,
    REFERRED_ALGORITHMS,
    TRADITIONAL_ALGORITHMS,
    ComparisonReport,
    Discrepancy,
    compare_builtin_suite,
    compare_scenario,
    identify_builtin,
    totals_csv,
    trace_csv,
)
from .schedulers import (
    ALGORITHM_NAMES,
    run_scheduler,
)
from .workload import (
    BUILTIN_CASE_IDS,
    GeneratorParams,
    MemoryRequest,
    Scenario,
    ScenarioError,
    builtin_case,
    generate,
    parse_scenario,
    render_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "AccessTotals",
    "BUILTIN_CASE_IDS",
    "BadSectorEntry",
    "ComparisonReport",
    "DirectionDecision",
    "Discrepancy",
    "DiskGeometry",
    "FaultModel",
    "FaultSpec",
    "GeneratorParams",
    "GeometryBoundsError",
    "IndexSyntaxError",
    "MAX_ORACLE_REQUESTS",
    "MemoryRequest",
    "OracleSizeError",
    "PhysicalAddress",
    "REFERENCE_TOTALS",
    "REFERRED_ALGORITHMS",
    "Scenario",
    "ScenarioError",
    "SchedulerRun",
    "ServiceStep",
    "TRADITIONAL_ALGORITHMS",
    "Trace",
    "builtin_case",
    "compare_builtin_suite",
    "compare_scenario",
    "decide_direction",
    "energy_saved",
    "execute",
    "generate",
    "identify_builtin",
    "improvement",
    "optimal_order",
    "parse_index",
    "parse_scenario",
    "render_index",
    "render_scenario",
    "replay",
    "run_scheduler",
    "totals",
    "totals_csv",
    "trace_csv",
    "validate",
    "verify_trace",
]
