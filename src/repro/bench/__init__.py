"""Benchmark harness: Table 1 regeneration, ablations, measurement, reporting.

Speed is measured by the repository benchmark (``benchmarks/ledger``);
this package regenerates the paper's Table 1 and Section 6 ablations
behind ``gcx table1`` and ``gcx ablations``.
"""

from repro.bench.ablation import (
    ABLATION_CONFIGS,
    AblationCell,
    format_ablations,
    run_ablations,
)
from repro.bench.harness import (
    DEFAULT_ENGINES,
    HarnessConfig,
    generate_documents,
    run_table1,
)
from repro.bench.measure import Measurement, format_bytes, format_seconds, measure
from repro.bench.report import format_table1, latency_report, shape_report

__all__ = [
    "HarnessConfig",
    "DEFAULT_ENGINES",
    "generate_documents",
    "run_table1",
    "Measurement",
    "measure",
    "format_bytes",
    "format_seconds",
    "format_table1",
    "shape_report",
    "latency_report",
    "ABLATION_CONFIGS",
    "AblationCell",
    "run_ablations",
    "format_ablations",
]
