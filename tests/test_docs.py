"""Documentation health: the fast half of tools/check_docs.py as tests.

CI's docs job additionally smoke-executes the README's ``gcx`` console
blocks; here we keep the checks that run in milliseconds so the tier-1
suite catches doc rot early.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "tools"))
import check_docs  # noqa: E402


class TestModuleDocstrings:
    def test_every_module_has_a_docstring(self):
        assert check_docs.check_module_docstrings() == []


class TestDocFilesExist:
    def test_required_docs_present(self):
        assert check_docs.check_docs_exist() == []

    @pytest.mark.parametrize(
        "name", ["README.md", "docs/CLI.md", "docs/SERVING.md"]
    )
    def test_docs_mention_only_real_subcommands(self, name):
        """Any `gcx <word>` in the docs must be a real CLI subcommand."""
        known = {
            "run",
            "run-multi",
            "serve",
            "serve-batch",
            "analyze",
            "table1",
            "xmark",
            "ablations",
            "dtd",
        }
        text = (REPO / name).read_text(encoding="utf-8")
        used = set(re.findall(r"\bgcx ([a-z0-9_-]+)\b", text))
        assert used <= known, f"unknown subcommands referenced: {used - known}"


class TestDocSymbols:
    def test_docs_name_only_symbols_that_exist(self):
        assert check_docs.check_doc_symbols() == []

    def test_a_missing_symbol_is_reported(self, tmp_path, monkeypatch):
        """The check itself: a stale name and a stale member both fail,
        members resolve through base classes, file names are skipped."""
        doc = tmp_path / "docs" / "STALE.md"
        doc.parent.mkdir()
        doc.write_text(
            "`LaneView` and `Evaluator._stream_node` are gone;\n"
            "`SessionPool.run_streaming` is inherited, `BENCHMARK.json` a file,\n"
            "`ThreadPoolExecutor` allowlisted and `StopIteration` a builtin.\n",
            encoding="utf-8",
        )
        for root in check_docs.SYMBOL_ROOTS:
            (tmp_path / root).symlink_to(REPO / root)
        monkeypatch.setattr(check_docs, "REPO", tmp_path)
        failures = check_docs.check_doc_symbols()
        assert len(failures) == 2
        assert failures[0].startswith("docs/STALE.md:1 names `LaneView`")
        assert failures[1].startswith("docs/STALE.md:1 names `Evaluator._stream_node`")

    def test_a_missing_bare_call_is_reported(self, tmp_path, monkeypatch):
        """A stale ``name()`` fails; a defined one, a builtin and the XQuery
        node tests pass, and a ``Class.member()`` is the member check's."""
        doc = tmp_path / "docs" / "STALE.md"
        doc.parent.mkdir()
        doc.write_text(
            "`run_sink()` is gone; `finish_document()` and `len()` are not,\n"
            "`$x/text()` and `dos::node()` are node tests, `text()` too;\n"
            "`SessionPool.run_streaming()` is inherited.\n",
            encoding="utf-8",
        )
        for root in check_docs.SYMBOL_ROOTS:
            (tmp_path / root).symlink_to(REPO / root)
        monkeypatch.setattr(check_docs, "REPO", tmp_path)
        failures = check_docs.check_doc_symbols()
        assert len(failures) == 1
        assert failures[0].startswith("docs/STALE.md:1 names `run_sink()`")


class TestReadmeStructure:
    def test_console_blocks_present(self):
        assert check_docs.readme_console_commands(), "README quickstart lost"

    def test_package_map_lists_every_package(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        for package in (REPO / "src" / "repro").iterdir():
            if package.is_dir() and (package / "__init__.py").exists():
                assert f"src/repro/{package.name}" in text, (
                    f"README package map is missing src/repro/{package.name}"
                )


class TestDocstringExamples:
    def test_package_docstring_session_example_works(self):
        """The compile-once example in repro.__doc__ must actually run."""
        import doctest

        import repro

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0


class TestPublicSymbolDocstrings:
    def test_every_public_export_documented(self):
        import inspect

        import repro

        undocumented = [
            name
            for name in repro.__all__
            if callable(getattr(repro, name))
            and not inspect.getdoc(getattr(repro, name))
        ]
        assert undocumented == []
