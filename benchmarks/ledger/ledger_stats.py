"""Arithmetic of the ledger: percentiles, prefix differences, run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def layer_self_times(
    prefixes: Sequence[tuple[str, float | None]],
) -> dict[str, float | None]:
    """Self time of each layer from cumulative pipeline-prefix times.

    ``prefixes`` lists ``(layer, time of the prefix that ends with this
    layer)`` from the lexer outwards.  A layer's self time is its prefix
    minus the longest prefix before it, clamped at 0 (two medians that
    differ by less than the noise may come out in the wrong order).  A
    prefix that could not be measured is ``None``: its layer reports
    ``None`` and its cost lands on the next layer that was measured, so
    the self times still sum to the longest prefix.
    """
    longest = 0.0
    selfs: dict[str, float | None] = {}
    for layer, cumulative in prefixes:
        if cumulative is None:
            selfs[layer] = None
            continue
        selfs[layer] = max(0.0, cumulative - longest)
        longest = max(longest, cumulative)
    return selfs


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the number the driver holds against a metric's bound."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0
