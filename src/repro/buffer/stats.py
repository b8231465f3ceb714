"""Buffer statistics and the memory cost model.

The paper measures the high watermark of non-swapped memory with ``top``.
A Python reproduction cannot compare allocator footprints meaningfully, so
we measure the quantity the paper's argument is actually about — the buffer
high watermark — under an explicit cost model that mirrors the C++ GCX
buffer representation: a fixed per-node overhead (pointers + integer tag),
one byte per character of buffered text, and a small cost per live role
instance.  ``tracemalloc`` peaks can be recorded on top for reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

__all__ = ["BufferAccountant", "BufferCostModel", "BufferStats"]


class BufferAccountant(Protocol):
    """Receiver of live-residency deltas from one or more buffers.

    :class:`~repro.engine.pool.SessionPool` attaches one accountant to
    every checked-out buffer so the pool-wide aggregate (the sum of live
    nodes/bytes across all concurrent runs, and its peak) can be tracked
    without the per-buffer counters having to know about each other.
    Implementations must be thread-safe; calls arrive from whichever
    thread drives each run.
    """

    def on_delta(self, nodes: int, cost: int) -> None: ...


@dataclass(frozen=True)
class BufferCostModel:
    """Bytes charged per buffered object (models the C++ representation)."""

    node_overhead: int = 48  # 5 pointers + tag id + flags, rounded
    text_byte: int = 1
    role_instance: int = 8
    # Multiplier for engines that keep per-use copies of buffered data
    # (models FluXQuery's per-variable buffers, Section 1's "data buffered
    # twice" discussion).  1 for GCX.
    duplication_factor: float = 1.0

    def element_cost(self) -> int:
        return self.node_overhead

    def text_cost(self, content: str) -> int:
        return self.node_overhead + self.text_byte * len(content)


@dataclass
class BufferStats:
    """Counters maintained by the buffer manager.

    ``hwm_*`` fields are the high watermarks the benchmark tables report.
    The role counters implement the safety instrumentation: a correct run
    satisfies ``roles_assigned == roles_removed + roles_cancelled`` and
    ends with an empty buffer (Section 3's requirements (1) and (2)).
    """

    model: BufferCostModel = field(default_factory=BufferCostModel)
    #: Optional pool-wide aggregate receiver (attached per checkout by
    #: SessionPool; ``None`` costs one predicted branch on the hot paths).
    accountant: BufferAccountant | None = field(
        default=None, repr=False, compare=False
    )

    live_nodes: int = 0
    live_bytes: int = 0
    hwm_nodes: int = 0
    hwm_bytes: int = 0

    nodes_created: int = 0
    nodes_purged: int = 0
    nodes_dropped: int = 0  # tokens discarded by projection (never buffered)
    nodes_recycled: int = 0  # creations served from the free list (slab reuse)

    roles_assigned: int = 0
    roles_removed: int = 0
    roles_cancelled: int = 0
    live_role_instances: int = 0

    gc_invocations: int = 0
    signoffs_executed: int = 0
    tokens_read: int = 0
    #: The part of ``tokens_read`` the guided scanner validated but never
    #: materialised (docs/PERFORMANCE.md, "Scan-time projection"); zero
    #: when the run was fed a pre-tokenised stream.
    tokens_skipped: int = 0
    #: The part of ``tokens_read`` received inside copied
    #: :class:`~repro.xmlio.tokens.Span` subtrees (docs/PERFORMANCE.md,
    #: "The COPY row"): a schema-certified direct run's matches, or a
    #: buffered run's copy sites (in the shared pass, those every other
    #: lane is dead at).
    tokens_copied: int = 0
    #: Matches the scanner was to copy but delivered LIVE: a possible
    #: nested match, malformed or non-UTF-8 input, a subtree larger than
    #: one batch, or a match spelled as an attribute.
    copy_fallbacks: int = 0
    #: Sum over emitted output nodes of (tokens read at emission − tokens
    #: read at the node's creation): how long output sat in the buffer.
    #: The earliness pass (docs/EARLINESS.md) exists to shrink this.
    tokens_held_before_emit: int = 0
    #: Output subtrees the evaluator started emitting before their close
    #: tag arrived (watermark flushes).  Zero whenever the earliness pass
    #: is disabled — tests assert this to guard against always-on behavior.
    early_flushes: int = 0
    #: Chain matches the zero-buffer direct runner had to capture because
    #: the document violated the certifying schema (nested matches).  Zero
    #: on conforming documents — and always zero on the buffered path.
    schema_fallbacks: int = 0
    #: Relational-runtime telemetry (repro.engine.relops).  Counts only —
    #: accumulator states and join index entries are not charged to
    #: ``live_bytes``: the hwm tracks *buffered document* residency, and
    #: the join index stores only references to already-charged nodes.
    acc_updates: int = 0  # terminal accumulator credits (count/sum/avg)
    join_indexes_built: int = 0
    join_keys: int = 0  # (key, node) pairs inserted across all indexes
    join_probes: int = 0
    join_probe_hits: int = 0

    def on_create(self, cost: int) -> None:
        self.nodes_created += 1
        self.live_nodes += 1
        self.live_bytes += cost
        if self.accountant is not None:
            self.accountant.on_delta(1, cost)
        self._touch()

    def on_grow(self, cost: int) -> None:
        """A live node's content grew by ``cost`` bytes."""
        self.live_bytes += cost
        if self.accountant is not None:
            self.accountant.on_delta(0, cost)
        self._touch()

    def on_purge(self, cost: int) -> None:
        self.nodes_purged += 1
        self.live_nodes -= 1
        self.live_bytes -= cost
        if self.accountant is not None:
            self.accountant.on_delta(-1, -cost)

    def on_roles(self, delta: int) -> None:
        """``delta`` role instances were added (positive) or removed."""
        if delta > 0:
            self.roles_assigned += delta
        else:
            self.roles_removed += -delta
        self.live_role_instances += delta
        self.live_bytes += delta * self.model.role_instance
        if self.accountant is not None:
            self.accountant.on_delta(0, delta * self.model.role_instance)
        if delta > 0:
            self._touch()

    def on_cancelled(self, count: int) -> None:
        self.roles_cancelled += count

    def _touch(self) -> None:
        if self.live_nodes > self.hwm_nodes:
            self.hwm_nodes = self.live_nodes
        if self.live_bytes > self.hwm_bytes:
            self.hwm_bytes = self.live_bytes

    @property
    def hwm_bytes_modelled(self) -> int:
        """High watermark scaled by the engine's duplication factor."""
        return int(self.hwm_bytes * self.model.duplication_factor)

    def role_accounting_balanced(self) -> bool:
        """Assignments are net of cancellations, so they must equal removals."""
        return self.roles_assigned == self.roles_removed

    def summary(self) -> str:
        return (
            f"hwm {self.hwm_nodes} nodes / {self.hwm_bytes} bytes; "
            f"created {self.nodes_created}, purged {self.nodes_purged}, "
            f"dropped {self.nodes_dropped}; roles {self.roles_assigned} assigned, "
            f"{self.roles_removed} removed, {self.roles_cancelled} cancelled; "
            f"gc x{self.gc_invocations}; {self.tokens_read} tokens read "
            f"({self.tokens_skipped} skipped at scan time)"
            + (
                f"; {self.tokens_copied} copied in spans, "
                f"{self.copy_fallbacks} copy fallbacks"
                if self.tokens_copied or self.copy_fallbacks
                else ""
            )
            + (
                f"; schema fallbacks {self.schema_fallbacks}"
                if self.schema_fallbacks
                else ""
            )
            + (f"; early flushes {self.early_flushes}" if self.early_flushes else "")
            + (f"; acc updates {self.acc_updates}" if self.acc_updates else "")
            + (
                f"; joins {self.join_indexes_built} indexes / "
                f"{self.join_keys} keys / {self.join_probes} probes / "
                f"{self.join_probe_hits} hits"
                if self.join_indexes_built
                else ""
            )
        )
