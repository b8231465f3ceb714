"""Benchmark harness tests (small sizes so they run in seconds)."""

import tracemalloc

import pytest

from repro.bench import (
    HarnessConfig,
    Measurement,
    format_bytes,
    format_seconds,
    format_table1,
    generate_documents,
    measure,
    run_table1,
    shape_report,
)
from repro.xmlio import XMLSyntaxError


class TestMeasure:
    def test_basic_measurement(self):
        cell = measure("gcx", "<o>{for $a in /r/a return $a}</o>", "<r><a>1</a></r>")
        assert cell.supported
        assert cell.seconds > 0
        assert cell.hwm_nodes >= 1
        assert cell.output_bytes > 0

    def test_unsupported_query_is_na(self):
        cell = measure("flux-like", "<o>{for $a in //a return $a}</o>", "<r/>")
        assert not cell.supported
        assert cell.cell == "n/a"

    def test_tracemalloc_option(self):
        cell = measure(
            "gcx",
            "<o>{for $a in /r/a return $a}</o>",
            "<r><a/></r>",
            with_tracemalloc=True,
        )
        assert cell.tracemalloc_peak is not None and cell.tracemalloc_peak > 0
        assert not tracemalloc.is_tracing()

    def test_tracemalloc_stops_when_the_run_raises(self):
        """A failing run must not leave every later measurement traced."""
        with pytest.raises(XMLSyntaxError):
            measure(
                "gcx",
                "<o>{for $a in /r/a return $a}</o>",
                "<r><a></r>",
                with_tracemalloc=True,
            )
        assert not tracemalloc.is_tracing()

    def test_streaming_engines_report_first_output_latency(self):
        cell = measure("gcx", "<o>{for $a in /r/a return $a}</o>", "<r><a>1</a></r>")
        assert cell.first_output_seconds is not None
        assert 0 <= cell.first_output_seconds <= cell.seconds

    def test_materializing_engines_have_no_latency_figure(self):
        cell = measure(
            "naive-dom", "<o>{for $a in /r/a return $a}</o>", "<r><a>1</a></r>"
        )
        assert cell.first_output_seconds is None


class TestFormatting:
    @pytest.mark.parametrize(
        "seconds, expected",
        [(0.18, "0.18s"), (3.5, "3.50s"), (62, "01:02"), (3600, "60:00")],
    )
    def test_seconds(self, seconds, expected):
        assert format_seconds(seconds) == expected

    @pytest.mark.parametrize(
        "count, expected",
        [(512, "512B"), (1536, "1.5KB"), (1258291, "1.2MB"), (2 << 30, "2.00GB")],
    )
    def test_bytes(self, count, expected):
        assert format_bytes(count) == expected

    def test_cell_rendering(self):
        cell = Measurement("gcx", "Q1", 10_000, seconds=0.18, hwm_bytes=1258291)
        assert cell.cell == "0.18s / 1.2MB"
        cell.timed_out = True
        assert cell.cell == "timeout"


class TestDocuments:
    def test_generated_sizes_close_to_targets(self):
        docs = generate_documents((50_000, 100_000), seed=9)
        for target, document in docs.items():
            assert abs(len(document) - target) / target < 0.25

    def test_deterministic(self):
        a = generate_documents((40_000,), seed=1)
        b = generate_documents((40_000,), seed=1)
        assert a == b


class TestHarness:
    @pytest.fixture(scope="class")
    def results(self):
        config = HarnessConfig(
            sizes_bytes=(40_000, 80_000),
            engines=("gcx", "naive-dom", "flux-like"),
            queries=("Q1", "Q6"),
            cell_budget_seconds=60,
        )
        return run_table1(config)

    def test_grid_complete(self, results):
        gcx_cells = [m for m in results if m.engine == "gcx"]
        assert len(gcx_cells) == 4  # 2 queries x 2 sizes

    def test_flux_na_on_q6(self, results):
        q6_flux = [m for m in results if m.engine == "flux-like" and m.query == "Q6"]
        assert q6_flux and not q6_flux[0].supported

    def test_gcx_beats_naive_on_memory(self, results):
        for query in ("Q1", "Q6"):
            gcx = [m for m in results if m.engine == "gcx" and m.query == query]
            naive = [
                m for m in results if m.engine == "naive-dom" and m.query == query
            ]
            for g, n in zip(gcx, naive):
                assert g.hwm_bytes * 5 < n.hwm_bytes

    def test_table_renders(self, results):
        table = format_table1(results)
        assert "Q1" in table and "gcx" in table and "n/a" in table

    def test_shape_report_no_mismatch(self, results):
        report = shape_report(results)
        assert "[MISMATCH]" not in report

    def test_timeout_prediction(self):
        """A tiny budget turns the larger sizes into predicted timeouts."""
        config = HarnessConfig(
            sizes_bytes=(40_000, 80_000, 160_000),
            engines=("gcx",),
            queries=("Q8",),
            cell_budget_seconds=0.001,
        )
        results = run_table1(config)
        assert any(m.timed_out for m in results)
