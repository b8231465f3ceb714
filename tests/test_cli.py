"""CLI tests (driving ``gcx`` through its main function)."""

import pytest

from repro.cli import main


@pytest.fixture
def files(tmp_path):
    query = tmp_path / "q.xq"
    query.write_text("<out>{for $b in /bib/book return $b/title}</out>")
    doc = tmp_path / "d.xml"
    doc.write_text("<bib><book><title>T</title></book></bib>")
    return query, doc


class TestRun:
    def test_run_outputs_result(self, files, capsys):
        query, doc = files
        assert main(["run", str(query), str(doc)]) == 0
        out = capsys.readouterr().out
        assert "<out><title>T</title></out>" in out

    def test_run_with_stats(self, files, capsys):
        query, doc = files
        assert main(["run", str(query), str(doc), "--stats"]) == 0
        assert "hwm" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["naive-dom", "projection-only", "flux-like"])
    def test_run_other_engines(self, files, capsys, engine):
        query, doc = files
        assert main(["run", str(query), str(doc), "--engine", engine]) == 0
        assert "<title>T</title>" in capsys.readouterr().out

    def test_unsupported_reports_na(self, tmp_path, capsys):
        query = tmp_path / "q.xq"
        query.write_text("<out>{for $a in //a return $a}</out>")
        doc = tmp_path / "d.xml"
        doc.write_text("<r><a/></r>")
        assert main(["run", str(query), str(doc), "--engine", "flux-like"]) == 1
        assert "n/a" in capsys.readouterr().err

    def test_run_many_documents_compiles_once(self, files, capsys):
        """Several documents after one query: one result line each."""
        query, doc = files
        other = doc.parent / "d2.xml"
        other.write_text("<bib><book><title>U</title></book></bib>")
        assert main(["run", str(query), str(doc), str(other)]) == 0
        out = capsys.readouterr().out
        assert "<out><title>T</title></out>" in out
        assert "<out><title>U</title></out>" in out

    def test_buffered_matches_streaming_output(self, files, capsys):
        query, doc = files
        assert main(["run", str(query), str(doc)]) == 0
        streamed = capsys.readouterr().out
        assert main(["run", str(query), str(doc), "--buffered"]) == 0
        assert capsys.readouterr().out == streamed

    def test_streaming_stats_report_first_output(self, files, capsys):
        query, doc = files
        assert main(["run", str(query), str(doc), "--stats"]) == 0
        err = capsys.readouterr().err
        assert "hwm" in err
        assert "first output" in err

    def test_stats_report_join_plan(self, tmp_path, capsys):
        query = tmp_path / "q.xq"
        query.write_text(
            "<out>{for $p in /r/p return for $t in /r/t return "
            "if ($t/k = $p/k) then <m/> else ()}</out>"
        )
        doc = tmp_path / "d.xml"
        doc.write_text("<r><p><k>1</k></p><t><k>1</k></t></r>")
        assert main(["run", str(query), str(doc), "--stats"]) == 0
        err = capsys.readouterr().err
        assert "join plan: for $t" in err
        assert "joins 1 indexes" in err

    def test_stats_report_no_join_plan_and_acc_updates(self, files, capsys):
        query, doc = files
        query.write_text("<out>{count($root//book)}</out>")
        assert main(["run", str(query), str(doc), "--stats"]) == 0
        err = capsys.readouterr().err
        assert "join plan: no equi-join loops" in err
        assert "acc updates 1" in err


class TestAnalyze:
    def test_analyze_shows_tree_and_rewriting(self, tmp_path, capsys):
        query = tmp_path / "q.xq"
        query.write_text(
            "<r>{for $bib in /bib return for $b in $bib/book return $b/title}</r>"
        )
        assert main(["analyze", str(query)]) == 0
        out = capsys.readouterr().out
        assert "projection tree" in out
        assert "signOff" in out
        assert "n1: /" in out


class TestXmarkCommand:
    def test_generate_to_file(self, tmp_path, capsys):
        target = tmp_path / "doc.xml"
        assert main(["xmark", "0.0005", "-o", str(target)]) == 0
        content = target.read_text()
        assert content.startswith("<site>")
        assert content.endswith("</site>")


class TestTable1Command:
    def test_small_table(self, capsys):
        assert (
            main(
                [
                    "table1",
                    "--sizes",
                    "30k",
                    "--engines",
                    "gcx,naive-dom",
                    "--queries",
                    "Q1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Q1" in out
        assert "Shape checks" in out


class TestAblationsCommand:
    def test_runs_and_renders(self, capsys):
        assert main(["ablations", "--scale", "0.0005", "--queries", "Q1"]) == 0
        out = capsys.readouterr().out
        assert "base-scheme" in out
        assert "identical outputs" in out


@pytest.mark.parametrize(
    "argv, option",
    [
        (["table1", "--engines", "bogus"], "--engines"),
        (["table1", "--queries", "Q99"], "--queries"),
        (["ablations", "--queries", "Q99"], "--queries"),
        (["table1", "--sizes", "4x"], "--sizes"),
        (["table1", "--sizes", "0"], "--sizes"),
    ],
    ids=["engines-bogus", "table1-Q99", "ablations-Q99", "sizes-4x", "sizes-0"],
)
def test_bad_benchmark_arguments_are_usage_errors(argv, option, capsys):
    """Rejected at parse time with a usage error, never a traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}" in err
    assert "Traceback" not in err


class TestDtdCommand:
    def test_prints_dtd(self, capsys):
        assert main(["dtd"]) == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT site" in out
        assert "ATTLIST" not in out


class TestServeBatch:
    @pytest.fixture
    def batch(self, tmp_path):
        query = tmp_path / "q.xq"
        query.write_text("<out>{for $b in /bib/book return $b/title}</out>")
        docs = []
        for i in range(6):
            doc = tmp_path / f"d{i}.xml"
            doc.write_text(f"<bib><book><title>T{i}</title></book></bib>")
            docs.append(doc)
        return query, docs

    def test_outputs_in_document_order(self, batch, capsys):
        query, docs = batch
        argv = ["serve-batch", str(query)] + [str(d) for d in docs]
        assert main(argv + ["--workers", "3"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines == [f"<out><title>T{i}</title></out>" for i in range(6)]

    def test_matches_sequential_run_output(self, batch, capsys):
        query, docs = batch
        assert main(["run", str(query)] + [str(d) for d in docs]) == 0
        sequential = capsys.readouterr().out
        argv = ["serve-batch", str(query)] + [str(d) for d in docs]
        assert main(argv + ["--workers", "4", "--chunksize", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_stats_report_aggregate_hwm(self, batch, capsys):
        query, docs = batch
        argv = ["serve-batch", str(query)] + [str(d) for d in docs]
        assert main(argv + ["--stats"]) == 0
        err = capsys.readouterr().err
        assert "aggregate hwm" in err
        assert "docs/s" in err
        assert f"{docs[0]}: hwm" in err

    def test_rejects_bad_worker_count(self, batch, capsys):
        query, docs = batch
        argv = ["serve-batch", str(query), str(docs[0]), "--workers", "0"]
        assert main(argv) == 2
        assert "--workers" in capsys.readouterr().err

    def test_rejects_bad_chunksize(self, batch, capsys):
        query, docs = batch
        argv = ["serve-batch", str(query), str(docs[0]), "--chunksize", "0"]
        assert main(argv) == 2
        assert "--chunksize" in capsys.readouterr().err


class TestRunMulti:
    @pytest.fixture
    def multi(self, tmp_path):
        names = tmp_path / "names.xq"
        names.write_text(
            "<names>{for $b in /bib/book return $b/title/text()}</names>"
        )
        count = tmp_path / "isbns.xq"
        count.write_text(
            "<isbns>{for $b in /bib/book return $b/isbn/text()}</isbns>"
        )
        doc = tmp_path / "d.xml"
        doc.write_text(
            "<bib><book><title>T1</title><isbn>111</isbn></book>"
            "<book><title>T2</title><isbn>222</isbn></book></bib>"
        )
        return names, count, doc

    def test_sections_per_query_in_order(self, multi, capsys):
        names, isbns, doc = multi
        assert main(["run-multi", str(names), str(isbns), "-d", str(doc)]) == 0
        out = capsys.readouterr().out
        assert out.index("== names ==") < out.index("== isbns ==")
        assert "<names>T1T2</names>" in out
        assert "<isbns>111222</isbns>" in out

    def test_matches_single_query_runs(self, multi, capsys):
        names, isbns, doc = multi
        assert main(["run", str(names), str(doc)]) == 0
        expected_names = capsys.readouterr().out.strip()
        assert main(["run-multi", str(names), str(isbns), "-d", str(doc)]) == 0
        assert expected_names in capsys.readouterr().out

    def test_stats_report_one_scan(self, multi, capsys):
        names, isbns, doc = multi
        argv = ["run-multi", str(names), str(isbns), "-d", str(doc), "--stats"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "one scan" in err
        assert "saved by routing" in err

    def test_union_flag_prints_masks(self, multi, capsys):
        names, isbns, doc = multi
        argv = ["run-multi", str(names), str(isbns), "-d", str(doc), "--union"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "union projection tree" in out
        assert "{names,isbns}" in out

    def test_multiple_documents_are_labelled(self, multi, capsys):
        names, isbns, doc = multi
        other = doc.parent / "d2.xml"
        other.write_text("<bib><book><title>U</title><isbn>3</isbn></book></bib>")
        argv = ["run-multi", str(names), str(isbns), "-d", str(doc), "-d", str(other)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"# {doc}" in out
        assert f"# {other}" in out
        assert "<names>U</names>" in out

    def test_duplicate_query_names_rejected(self, multi, tmp_path, capsys):
        names, _isbns, doc = multi
        clash_dir = tmp_path / "other"
        clash_dir.mkdir()
        clash = clash_dir / "names.xq"
        clash.write_text("<x>{()}</x>")
        argv = ["run-multi", str(names), str(clash), "-d", str(doc)]
        assert main(argv) == 2
        assert "duplicate" in capsys.readouterr().err


class TestDocumentErrors:
    """A malformed or missing document ends in one ``ERROR:`` line and
    exit status 1, not a traceback."""

    @pytest.fixture
    def bad(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<bib>\n<book><title>T</titl></book></bib>")
        return bad

    @staticmethod
    def argv(command, query, doc):
        if command == "run-multi":
            return ["run-multi", str(query), "-d", str(doc)]
        return [command, str(query), str(doc)]

    @pytest.mark.parametrize("command", ["run", "run-multi", "serve-batch"])
    def test_malformed_document(self, command, files, bad, capsys):
        query, _doc = files
        assert main(self.argv(command, query, bad)) == 1
        err = capsys.readouterr().err
        assert err == (
            f"ERROR: {bad}: line 2, column 15: mismatched closing tag "
            "</titl>, expected </title> (at offset 20)\n"
        )

    @pytest.mark.parametrize("command", ["run", "run-multi", "serve-batch"])
    def test_missing_document(self, command, files, tmp_path, capsys):
        query, _doc = files
        missing = tmp_path / "missing.xml"
        assert main(self.argv(command, query, missing)) == 1
        err = capsys.readouterr().err
        assert err == f"ERROR: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["run", "run-multi", "serve-batch"])
    def test_tag_name_not_utf8(self, command, files, tmp_path, capsys):
        query, _doc = files
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<bib><book><title>T</title><\xff/></book></bib>")
        assert main(self.argv(command, query, bad)) == 1
        err = capsys.readouterr().err
        assert err == (
            f"ERROR: {bad}: line 1, column 28: tag name is not UTF-8 "
            "(at offset 27)\n"
        )

    @pytest.mark.parametrize("command", ["run", "run-multi", "serve-batch"])
    def test_output_text_not_utf8(self, command, files, tmp_path, capsys):
        query, _doc = files
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<bib><book><title>\xff</title></book></bib>")
        assert main(self.argv(command, query, bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err

    def test_buffered_run_of_a_document_not_utf8(self, files, tmp_path, capsys):
        query, _doc = files
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<bib><book><title>T</title><\xff/></book></bib>")
        assert main(["run", "--buffered", str(query), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR: {bad}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("command", ["run", "run-multi", "serve-batch"])
    def test_path_below_a_file(self, command, files, capsys):
        query, doc = files
        below = doc / "x.xml"
        assert main(self.argv(command, query, below)) == 1
        assert capsys.readouterr().err == f"ERROR: {below}: Not a directory\n"

    def test_buffered_run_reports_the_document(self, files, bad, capsys):
        query, _doc = files
        assert main(["run", "--buffered", str(query), str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"ERROR: {bad}: line 2,")

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_serve_batch_names_the_document_inside_a_chunk(
        self, position, files, bad, capsys
    ):
        query, doc = files
        documents = [str(doc)] * 3
        documents[position] = str(bad)
        argv = ["serve-batch", str(query), *documents, "--chunksize", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ERROR: {bad}: line 2,")


BIB_DTD = """
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author*, price?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""


@pytest.fixture
def dtd(tmp_path):
    path = tmp_path / "bib.dtd"
    path.write_text(BIB_DTD)
    return path


class TestSchemaFlag:
    def test_run_with_schema_matches_without(self, files, dtd, capsys):
        query, doc = files
        assert main(["run", str(query), str(doc)]) == 0
        plain = capsys.readouterr().out
        assert main(["run", str(query), str(doc), "--schema", str(dtd)]) == 0
        assert capsys.readouterr().out == plain

    def test_run_stats_report_schema_constraints(self, files, dtd, capsys):
        query, doc = files
        argv = ["run", str(query), str(doc), "--schema", str(dtd), "--stats"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "schema constraints" in err

    def test_certified_query_runs_with_empty_buffer(self, files, dtd, capsys):
        query, doc = files
        argv = [
            "run", str(query), str(doc),
            "--schema", str(dtd), "--stats", "--buffered",
        ]
        assert main(argv) == 0
        assert "hwm 0 nodes / 0 bytes" in capsys.readouterr().err

    def test_run_baseline_engine_with_schema(self, files, dtd, capsys):
        query, doc = files
        argv = [
            "run", str(query), str(doc),
            "--engine", "flux-like", "--schema", str(dtd),
        ]
        assert main(argv) == 0
        assert "<title>T</title>" in capsys.readouterr().out

    def test_flux_like_rejects_tags_outside_schema(self, tmp_path, dtd, capsys):
        query = tmp_path / "q.xq"
        query.write_text("<out>{for $m in /bib/movie return $m}</out>")
        doc = tmp_path / "d.xml"
        doc.write_text("<bib/>")
        argv = [
            "run", str(query), str(doc),
            "--engine", "flux-like", "--schema", str(dtd),
        ]
        assert main(argv) == 1
        assert "n/a" in capsys.readouterr().err

    def test_run_multi_with_schema_matches_without(self, files, dtd, capsys):
        query, doc = files
        argv = ["run-multi", str(query), "-d", str(doc)]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--schema", str(dtd)]) == 0
        assert capsys.readouterr().out == plain

    def test_analyze_prints_constraint_report(self, files, dtd, capsys):
        query, _doc = files
        assert main(["analyze", str(query), "--schema", str(dtd)]) == 0
        out = capsys.readouterr().out
        assert "== schema constraints ==" in out
        assert "zero-buffer" in out
