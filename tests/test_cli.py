from __future__ import annotations

import json

import pytest

from topicsift import cli, default_lexicon, save_lexicon

from conftest import write_corpus


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def composite_file(tmp_path, angina_reference, capsys):
    path = tmp_path / "composite.json"
    code, _, _ = run(capsys, "build", str(angina_reference), str(path))
    assert code == 0
    return path


# --- build ---------------------------------------------------------------------

def test_build_reports_documents_and_topics(tmp_path, angina_reference, capsys):
    out_path = tmp_path / "c.json"
    code, out, _ = run(capsys, "build", str(angina_reference), str(out_path))
    assert code == 0
    assert "documents=4" in out
    assert "topics=7" in out
    assert out_path.exists()


def test_build_empty_directory_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code, _, err = run(capsys, "build", str(tmp_path / "empty"), str(tmp_path / "c.json"))
    assert code == 2
    assert "cannot build norm from empty corpus" in err


def test_build_unreadable_file_exits_1(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c", {"a.md": "# A\n"})
    (corpus / "bad.md").write_bytes(b"\xff\xfe nope")
    code, _, err = run(capsys, "build", str(corpus), str(tmp_path / "c.json"))
    assert code == 1
    assert "bad.md" in err


def test_build_checks_align_threshold_on_one_document(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c", {"a.md": "# A\n"})
    code, _, err = run(capsys, "build", str(corpus), str(tmp_path / "c.json"), "--align-threshold", "7")
    assert code == 2
    assert err.startswith("error: ") and "align-threshold" in err
    assert not (tmp_path / "c.json").exists()


def test_build_to_unwritable_path_exits_1(tmp_path, angina_reference, capsys):
    out_path = tmp_path / "missing" / "c.json"
    code, out, err = run(capsys, "build", str(angina_reference), str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write composite file") and str(out_path) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/c.json", "file.txt/c.json", "outdir"])
def test_build_rejects_unwritable_path_before_loading(tmp_path, angina_reference, capsys, monkeypatch, target):
    def fail(directory):
        raise AssertionError("the corpus was loaded before the output path was checked")

    (tmp_path / "file.txt").write_text("x", encoding="utf-8")
    (tmp_path / "outdir").mkdir()
    monkeypatch.setattr(cli, "load_corpus", fail)
    out_path = tmp_path / target
    code, out, err = run(capsys, "build", str(angina_reference), str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write composite file {out_path}: ")
    assert err.count("\n") == 1


def test_rebuild_is_byte_identical(tmp_path, angina_reference, capsys):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert run(capsys, "build", str(angina_reference), str(one))[0] == 0
    assert run(capsys, "build", str(angina_reference), str(two))[0] == 0
    assert one.read_bytes() == two.read_bytes()


# --- summarize -----------------------------------------------------------------

def test_summary_text_mode(composite_file, angina_docs, capsys):
    code, out, _ = run(
        capsys, "summarize", str(angina_docs), "--composite", str(composite_file), "--query", "angina"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("- ") for line in lines)


def test_text_and_trace_modes_agree(composite_file, angina_docs, capsys):
    base = ["summarize", str(angina_docs), "--composite", str(composite_file), "--query", "angina"]
    _, text_out, _ = run(capsys, *base)
    _, trace_out, _ = run(capsys, *base, "--format", "trace")
    trace_lines = trace_out.splitlines()
    summary_section = trace_lines[trace_lines.index("summary:") + 1 :]
    assert summary_section == text_out.strip().splitlines()
    bullet_lines = [l.removeprefix("  bullet: ") for l in trace_lines if l.startswith("  bullet: ")]
    assert bullet_lines == summary_section


def test_summarize_is_deterministic(composite_file, angina_docs, capsys):
    base = ["summarize", str(angina_docs), "--composite", str(composite_file), "--query", "angina", "--seed", "7"]
    first = run(capsys, *base)
    second = run(capsys, *base)
    assert first == second


def test_missing_composite_exits_2(tmp_path, angina_docs, capsys):
    code, _, err = run(
        capsys, "summarize", str(angina_docs), "--composite", str(tmp_path / "nope.json"), "--query", "angina"
    )
    assert code == 2
    assert "not found" in err


def test_corrupt_composite_exits_2(tmp_path, angina_docs, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "1"}', encoding="utf-8")
    code, _, err = run(capsys, "summarize", str(angina_docs), "--composite", str(bad), "--query", "angina")
    assert code == 2
    assert "error" in err


def test_deeply_nested_composite_exits_2(tmp_path, angina_docs, capsys):
    depth = 3000
    node = '{"id": %d, "forms": ["t"], "position": 0.0, "support": 1, "children": ['
    text = (
        '{"version": "1", "domain_genre": "g", "doc_count": 1, "root": '
        + "".join(node % level for level in range(depth))
        + "]}" * depth
        + "}"
    )
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "summarize", str(angina_docs), "--composite", str(path), "--query", "angina")
    assert code == 2
    assert out == ""
    assert err == f"error: composite file {path} is nested too deeply\n"


def test_empty_query_exits_2(composite_file, angina_docs, capsys):
    code, _, err = run(capsys, "summarize", str(angina_docs), "--composite", str(composite_file), "--query", "  ")
    assert code == 2
    assert "query" in err


def test_bad_params_exit_2(composite_file, angina_docs, capsys):
    code, _, err = run(
        capsys,
        "summarize", str(angina_docs), "--composite", str(composite_file),
        "--query", "angina", "--alpha", "1.5",
    )
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("flag, value", [("--align-threshold", "7"), ("--limit", "0")])
def test_bad_params_are_rejected_before_any_file_is_read(tmp_path, capsys, flag, value):
    code, _, err = run(
        capsys,
        "summarize", str(tmp_path / "no-docs"), "--composite", str(tmp_path / "no-composite.json"),
        "--query", "angina", flag, value,
    )
    assert code == 2
    assert err.startswith("error: ") and flag.lstrip("-") in err
    assert len(err.splitlines()) == 1


def test_empty_document_set_yields_notice_and_exit_0(tmp_path, composite_file, capsys):
    (tmp_path / "docs").mkdir()
    code, out, _ = run(
        capsys, "summarize", str(tmp_path / "docs"), "--composite", str(composite_file), "--query", "angina"
    )
    assert code == 0
    assert out.strip() == "No documents matched the query."


def test_unmatched_query_warns_per_document(tmp_path, composite_file, capsys):
    docs = write_corpus(tmp_path / "docs", {"garden.md": "# Gardening\n## Roses\n"})
    code, out, err = run(capsys, "summarize", str(docs), "--composite", str(composite_file), "--query", "angina")
    assert code == 0
    assert "garden.md" in err
    assert "matched no topic" in err
    # the document still lands in a bullet (irrelevant category)
    assert "Gardening" in out


def test_lexicon_gap_exits_3(tmp_path, composite_file, angina_docs, capsys):
    lexicon = default_lexicon()
    del lexicon.descriptions["atypical"]
    gap_path = tmp_path / "gappy.json"
    save_lexicon(lexicon, gap_path)
    code, _, err = run(
        capsys,
        "summarize", str(angina_docs), "--composite", str(composite_file),
        "--query", "angina", "--lexicon", str(gap_path),
    )
    assert code == 3
    assert "atypical" in err


def test_explicit_lexicon_file_matches_builtin(tmp_path, composite_file, angina_docs, capsys):
    lex_path = tmp_path / "lexicon.json"
    save_lexicon(default_lexicon(), lex_path)
    base = ["summarize", str(angina_docs), "--composite", str(composite_file), "--query", "angina"]
    _, builtin_out, _ = run(capsys, *base)
    _, file_out, _ = run(capsys, *base, "--lexicon", str(lex_path))
    assert builtin_out == file_out


def test_invalid_lexicon_file_exits_2(tmp_path, composite_file, angina_docs, capsys):
    bad = tmp_path / "bad_lexicon.json"
    bad.write_text(json.dumps({"version": "0"}), encoding="utf-8")
    code, _, err = run(
        capsys,
        "summarize", str(angina_docs), "--composite", str(composite_file),
        "--query", "angina", "--lexicon", str(bad),
    )
    assert code == 2
    assert "lexicon" in err


def test_deeply_nested_lexicon_exits_2(tmp_path, composite_file, angina_docs, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run(
        capsys,
        "summarize", str(angina_docs), "--composite", str(composite_file),
        "--query", "angina", "--lexicon", str(path),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: lexicon file {path} is nested too deeply\n"


# JSON texts of version values whose repr runs to kilobytes
HUGE_VERSIONS = {
    "nested-900": "[" * 900 + "]" * 900,
    "string-10kB": json.dumps("v" * 10_000),
    "integer-5000-digits": "1" * 5000,
}


def _assert_one_short_error_line(err: str, path) -> None:
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.replace(str(path), "")) <= 200


@pytest.mark.parametrize("version", HUGE_VERSIONS.values(), ids=HUGE_VERSIONS.keys())
def test_huge_composite_version_gives_one_short_error_line(tmp_path, angina_docs, capsys, version):
    path = tmp_path / "composite.json"
    path.write_text('{"version": %s, "domain_genre": "g", "doc_count": 1, "root": {}}' % version, encoding="utf-8")
    code, out, err = run(capsys, "summarize", str(angina_docs), "--composite", str(path), "--query", "angina")
    assert code == 2
    assert out == ""
    _assert_one_short_error_line(err, path)


@pytest.mark.parametrize("version", HUGE_VERSIONS.values(), ids=HUGE_VERSIONS.keys())
def test_huge_lexicon_version_gives_one_short_error_line(tmp_path, composite_file, angina_docs, capsys, version):
    path = tmp_path / "lexicon.json"
    path.write_text('{"version": %s, "descriptions": {}, "patterns": {}, "morphology": {}}' % version, encoding="utf-8")
    code, out, err = run(
        capsys,
        "summarize", str(angina_docs), "--composite", str(composite_file),
        "--query", "angina", "--lexicon", str(path),
    )
    assert code == 2
    assert out == ""
    _assert_one_short_error_line(err, path)


def test_trace_categories_match_the_brute_force_oracle(composite_file, angina_docs, capsys):
    """Every per-document category in the trace equals what the independent
    table evaluator derives from the traced distribution counts."""
    import re

    from oracles import oracle_classify

    code, out, _ = run(
        capsys,
        "summarize", str(angina_docs), "--composite", str(composite_file),
        "--query", "angina", "--format", "trace",
    )
    assert code == 0
    pattern = re.compile(
        r"  distribution: typical=(\d+) rare=(\d+) intricate=(\d+) irrelevant=(\d+)"
        r" total=\d+ covered-typical=(\d+) possible-typical=(\d+)\n  category: (\w+)"
    )
    matches = pattern.findall(out)
    assert len(matches) == 4
    for typical, rare, intricate, irrelevant, covered, possible, category in matches:
        assert category == oracle_classify(
            int(typical), int(rare), int(intricate), int(irrelevant), int(covered), int(possible)
        )
