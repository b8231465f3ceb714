"""Benchmark harness: Table 1 regeneration, measurement, reporting.

The serving benchmark's names resolve on first use (PEP 562):
``repro.bench.serving`` drives a live ``gcx serve`` and so imports
``repro.serve`` and ``asyncio``, which a cold ``import repro`` should not
pay for.
"""

from repro.bench.ablation import (
    ABLATION_CONFIGS,
    AblationCell,
    format_ablations,
    run_ablations,
)
from repro.bench.concurrency import (
    ConcurrencyPoint,
    ConcurrencyReport,
    format_concurrency_report,
    run_concurrency_benchmark,
)
from repro.bench.baseline import (
    FLOORS,
    Metric,
    MetricDelta,
    benchmark_document,
    compare,
    load_baseline,
    run_quick_suite,
    save_baseline,
)
from repro.bench.multiquery import (
    MULTIQUERY_MIX,
    MultiQueryReport,
    format_multiquery_report,
    run_multiquery_benchmark,
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
    "ConcurrencyPoint",
    "ConcurrencyReport",
    "run_concurrency_benchmark",
    "format_concurrency_report",
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
    "MULTIQUERY_MIX",
    "MultiQueryReport",
    "run_multiquery_benchmark",
    "format_multiquery_report",
    "ServingPoint",
    "ServingReport",
    "run_serving_benchmark",
    "format_serving_report",
    "ABLATION_CONFIGS",
    "AblationCell",
    "run_ablations",
    "format_ablations",
    "Metric",
    "MetricDelta",
    "FLOORS",
    "benchmark_document",
    "run_quick_suite",
    "save_baseline",
    "load_baseline",
    "compare",
]

_SERVING = (
    "ServingPoint",
    "ServingReport",
    "format_serving_report",
    "run_serving_benchmark",
)


def __getattr__(name: str):
    if name not in _SERVING:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.bench import serving

    value = globals()[name] = getattr(serving, name)
    return value
