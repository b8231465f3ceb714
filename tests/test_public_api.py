"""Public API tests: the documented entry points keep working."""

import pytest

import repro


class TestTopLevelApi:
    def test_evaluate_one_shot(self):
        output = repro.evaluate(
            "<o>{for $b in /bib/book return $b/title}</o>",
            "<bib><book><title>T</title></book></bib>",
        )
        assert output == "<o><title>T</title></o>"

    @pytest.mark.parametrize("engine", ["gcx", "naive-dom", "projection-only"])
    def test_evaluate_engine_parameter(self, engine):
        output = repro.evaluate(
            "<o>{for $a in /r/a return <hit/>}</o>", "<r><a/><a/></r>", engine=engine
        )
        assert output == "<o><hit/><hit/></o>"

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_example(self):
        """The example in the package docstring must actually work."""
        query = "<out>{for $b in /bib/book return $b/title}</out>"
        doc = (
            "<bib><book><title>T1</title></book>"
            "<book><title>T2</title></book></bib>"
        )
        result = repro.GCXEngine().run(query, doc)
        assert result.output == "<out><title>T1</title><title>T2</title></out>"


class TestCompileApi:
    def test_compile_query_returns_artifacts(self):
        compiled = repro.compile_query(
            "<o>{for $b in /bib/book return $b/title}</o>"
        )
        assert compiled.projection_tree.node_count() >= 3
        assert compiled.variables.names[0] == "$root"
        assert compiled.rewritten is not compiled.normalized

    def test_compile_options_roundtrip(self):
        options = repro.CompileOptions(early_updates=False)
        compiled = repro.compile_query("<o>{$root/a}</o>", options)
        assert compiled.options == options

    def test_parse_unparse_exports(self):
        query = repro.parse_query("<o>{()}</o>")
        assert repro.unparse(query) == "<o/>"


class TestSchemaApi:
    DTD = (
        "<!ELEMENT bib (book*)>\n"
        "<!ELEMENT book (title)>\n"
        "<!ELEMENT title (#PCDATA)>\n"
    )

    def test_schema_exported_at_top_level(self):
        schema = repro.Schema.from_dtd_text(self.DTD)
        assert schema.tags == {"bib", "book", "title"}

    def test_load_dtd_exported(self, tmp_path):
        path = tmp_path / "bib.dtd"
        path.write_text(self.DTD)
        assert repro.load_dtd(path).roots == {"bib"}

    def test_compile_query_schema_keyword(self):
        compiled = repro.compile_query(
            "<o>{for $b in /bib/book return $b/title}</o>",
            schema=repro.Schema.from_dtd_text(self.DTD),
        )
        assert isinstance(compiled.constraints, repro.SchemaConstraints)
        assert compiled.certified_zero_buffer

    def test_compile_query_positional_back_compat(self):
        """compile_query(query, options) keeps working unchanged."""
        options = repro.CompileOptions(early_updates=False)
        compiled = repro.compile_query("<o>{$root/a}</o>", options)
        assert compiled.options == options
        assert compiled.constraints is None

    def test_engine_session_schema_keyword(self):
        schema = repro.Schema.from_dtd_text(self.DTD)
        session = repro.GCXEngine().session(
            "<o>{for $b in /bib/book return $b/title}</o>", schema=schema
        )
        doc = "<bib><book><title>T</title></book></bib>"
        result = session.run(doc)
        assert result.output == "<o><title>T</title></o>"
        assert result.stats.hwm_bytes == 0

    def test_schema_violation_exported(self):
        with pytest.raises(repro.SchemaViolation):
            repro.Schema.from_dtd_text("garbage")


class TestEngineRegistry:
    def test_engines_share_interface(self):
        for name, factory in repro.ENGINES.items():
            engine = factory()
            assert hasattr(engine, "compile")
            assert hasattr(engine, "run")
            assert hasattr(engine, "name")
            assert engine.name == name

    def test_xmark_exports(self):
        assert len(repro.TABLE1_QUERIES) == 5
        doc = repro.generate_xmark(0.0005, seed=1)
        assert doc.startswith("<site>")


class TestNoEnvironmentSwitches:
    def test_the_package_reads_no_environment_variable(self):
        """Behaviour is chosen by arguments and options, never by the
        process environment: nothing under ``src/repro`` touches
        ``os.environ``/``os.getenv`` (walked on the AST, so a docstring
        that mentions one does not count)."""
        import ast
        from pathlib import Path

        offenders = []
        for source in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if name in ("environ", "environb", "getenv", "putenv"):
                    offenders.append(f"{source}:{node.lineno}")
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    offenders += [
                        f"{source}:{node.lineno}"
                        for alias in node.names
                        if alias.name in ("environ", "environb", "getenv", "putenv")
                    ]
        assert not offenders, offenders


class TestNoTimerOnTheServeOpPath:
    def test_the_server_never_sleeps(self):
        """Every wait in ``serve/server.py`` is on an event — a future, a
        queue, the transport — never on a clock: no ``asyncio.sleep`` or
        ``time.sleep`` call, by any import spelling.  (A 5 ms settle poll
        once cost every op 5 ms and took two PRs of profiling to find.)"""
        import ast
        from pathlib import Path

        source = Path(repro.__file__).parent / "serve" / "server.py"
        offenders = []
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "attr", None) or getattr(callee, "id", None)
                if name == "sleep":
                    offenders.append(f"{source}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("asyncio", "time"):
                offenders += [
                    f"{source}:{node.lineno}"
                    for alias in node.names
                    if alias.name == "sleep"
                ]
        assert not offenders, offenders


class TestImportCost:
    def test_import_repro_does_not_import_the_server(self):
        """A cold ``import repro`` pays for neither ``repro.serve`` nor
        ``asyncio`` — while every documented name still resolves."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys, repro\n"
            "loaded = [m for m in ('asyncio', 'repro.serve') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "import repro.bench\n"
            "assert all(hasattr(repro.bench, n) for n in repro.bench.__all__)\n"
            "assert all(hasattr(repro, n) for n in repro.__all__)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
