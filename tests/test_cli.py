from __future__ import annotations

import contextlib
import copy
import errno
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from topicsift import Lexicon, LexiconError, cli, default_lexicon, save_lexicon
from topicsift.model import brief_repr

from conftest import FIXTURES, write_corpus


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


# --- start-up ------------------------------------------------------------------

def test_importing_the_command_line_loads_neither_dataclasses_nor_inspect():
    """Every command starts a fresh interpreter and pays for each module the
    package imports; these two took a third of that start-up. -S keeps
    whatever site-packages import at start-up out of the check."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = "import sys, topicsift.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


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


def test_feature_subsets_name_documents_by_position_when_titles_repeat(tmp_path, composite_file, capsys):
    """d1.md and d3.md are both titled Angina and d3.md alone has video: the
    video sentence names d3.md's place in the category, not the first
    document of that title."""
    body = "# Angina\n\n## Definition\n\nA short definition.\n\n## What are the risks?\n\nRisk discussion.\n"
    docs = write_corpus(
        tmp_path / "docs",
        {
            "d1.md": "---\ntitle: Angina\ncontent_types: text\n---\n" + body,
            "d2.md": "---\ntitle: Angina overview\n---\n" + body,
            "d3.md": "---\ntitle: Angina\ncontent_types: text\nspecial_content: video\n---\n" + body,
        },
    )
    code, out, _ = run(capsys, "summarize", str(docs), "--composite", str(composite_file), "--query", "angina")
    assert code == 0
    assert "(Angina, Angina and Angina overview). The first two documents contain text as well." in out
    assert out.endswith(" The second document contains video as well.\n")


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


def test_the_query_case_changes_only_the_lines_that_echo_the_query(composite_file, angina_docs, capsys):
    """"angina" and "Angina" type, classify and plan the angina documents
    alike: their document blocks, categories, plan and messages match line
    for line. Only the query line and the sentence, bullet and summary lines
    that echo the query differ, each only in the case of the echoed query."""
    traces = []
    for query in ("angina", "Angina"):
        code, out, _ = run(
            capsys, "summarize", str(angina_docs), "--composite", str(composite_file), "--query", query, "--format", "trace"
        )
        assert code == 0
        traces.append(out.splitlines())
    lower, upper = traces
    assert len(lower) == len(upper)
    summary = lower.index("summary:")
    differing = set()
    for number, (a, b) in enumerate(zip(lower, upper)):
        if a != b:
            differing.add("summary" if number > summary else a.split(":")[0].strip())
            spots = [index for index, (x, y) in enumerate(zip(a, b)) if x != y]
            assert len(a) == len(b)
            assert all(a.startswith("angina", index) and b.startswith("Angina", index) for index in spots), (a, b)
    assert differing == {"query", "sentence", "bullet", "summary"}


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


@pytest.mark.parametrize("depth", [sys.getrecursionlimit() // 2 + 2, 3000])
def test_deeply_nested_composite_exits_2(tmp_path, angina_docs, capsys, depth):
    """Nodes in a chain, the deepest one level past half the recursion limit
    or far past it: json refuses the file on some Pythons, the norm loader
    on the others."""
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


def test_composite_form_that_is_not_utf8_exits_2(composite_file, angina_docs, capsys):
    """A JSON escape can put a lone surrogate in a norm's form, which
    neither the norm file nor the trace could hold: summarize refuses the
    norm with one error line and writes nothing."""
    payload = json.loads(composite_file.read_text(encoding="utf-8"))
    child = payload["root"]["children"][0]
    child["forms"].append("Risks\udcff")
    composite_file.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(
        capsys, "summarize", str(angina_docs), "--composite", str(composite_file), "--query", "angina", "--format", "trace"
    )
    assert (code, out) == (2, "")
    assert err == f"error: node {child['id']}: form 'Risks\\udcff' holds text that is not valid UTF-8\n"


def test_empty_query_exits_2(composite_file, angina_docs, capsys):
    code, _, err = run(capsys, "summarize", str(angina_docs), "--composite", str(composite_file), "--query", "  ")
    assert code == 2
    assert "query" in err


@pytest.mark.parametrize("query", ["angina\ndocument: x", "angina\r", "angina\u2029x", "angina\udcff"])
@pytest.mark.parametrize("output", ["text", "trace"])
def test_query_that_is_not_one_line_of_utf8_exits_2(composite_file, angina_docs, capsys, query, output):
    """A line break in the query would forge a trace line; a lone surrogate
    (an undecodable argv byte) cannot be written to a UTF-8 stdout."""
    code, out, err = run(
        capsys, "summarize", str(angina_docs), "--composite", str(composite_file), "--query", query, "--format", output
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: query ") and err.count("\n") == 1


def test_undecodable_query_exits_2_where_stdout_encodes_utf8_strictly(composite_file, angina_docs):
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "topicsift.cli", "summarize", str(angina_docs), "--composite", str(composite_file)]
    result = subprocess.run(argv + ["--query", b"angina\xff"], env=env, capture_output=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == b"error: query 'angina\\udcff' holds text that is not valid UTF-8\n"


_BAD_NAMES = ["forged\ndocument: x.md", "forged\u2028x.md", os.fsdecode(b"bad\xff.md")]


def _with_a_badly_named_file(source: Path, directory: Path, name: str) -> Path:
    shutil.copytree(source, directory)
    (directory / name).write_text("no headers, so the name would be the title\n", encoding="utf-8")
    return directory


@pytest.mark.parametrize("name", _BAD_NAMES)
@pytest.mark.parametrize("output", ["text", "trace"])
def test_docs_file_name_that_is_not_one_line_of_utf8_exits_2(tmp_path, composite_file, angina_docs, capsys, name, output):
    """A docs file's name becomes its doc id and title: a line break would
    forge trace lines and split a bullet, an undecodable byte cannot be
    written to a UTF-8 stdout. The file is refused, not skipped."""
    docs = _with_a_badly_named_file(angina_docs, tmp_path / "docs", name)
    code, out, err = run(
        capsys, "summarize", str(docs), "--composite", str(composite_file), "--query", "angina", "--format", output
    )
    fault = "text that is not valid UTF-8" if name.startswith("bad") else "a line break"
    assert (code, out) == (2, "")
    assert err == f"error: the name of corpus file {brief_repr(name)} holds {fault}\n"


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_reference_file_name_that_is_not_one_line_of_utf8_exits_2_and_keeps_the_old_norm(
    tmp_path, composite_file, angina_reference, capsys, name
):
    reference = _with_a_badly_named_file(angina_reference, tmp_path / "reference", name)
    before = composite_file.read_bytes()
    code, out, err = run(capsys, "build", str(reference), str(composite_file))
    assert (code, out) == (2, "")
    assert err.startswith("error: the name of corpus file ") and err.count("\n") == 1
    assert composite_file.read_bytes() == before


def test_file_names_that_are_not_utf8_exit_2_where_stdout_encodes_utf8_strictly(tmp_path, angina_reference, angina_docs):
    """Under a strict UTF-8 stdout, neither a docs file name nor the OUT path
    of build may hold an undecodable byte: each run exits 2 with one error
    line and writes nothing, where it used to end in a traceback."""
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    command = [sys.executable, "-m", "topicsift.cli"]
    out_path = os.fsencode(tmp_path) + b"/out\xff.json"
    built = subprocess.run(command + ["build", str(angina_reference), out_path], env=env, capture_output=True, timeout=60)
    assert (built.returncode, built.stdout) == (2, b"")
    assert built.stderr.startswith(b"error: composite path ") and built.stderr.endswith(b" holds text that is not valid UTF-8\n")
    assert not os.path.exists(out_path)

    composite = tmp_path / "composite.json"
    assert subprocess.run(command + ["build", str(angina_reference), str(composite)], env=env, timeout=60).returncode == 0
    docs = _with_a_badly_named_file(angina_docs, tmp_path / "docs", os.fsdecode(b"bad\xff.md"))
    summarized = subprocess.run(
        command + ["summarize", str(docs), "--composite", str(composite), "--query", "angina", "--format", "trace"],
        env=env, capture_output=True, timeout=60,
    )
    assert (summarized.returncode, summarized.stdout) == (2, b"")
    assert summarized.stderr == b"error: the name of corpus file 'bad\\udcff.md' holds text that is not valid UTF-8\n"


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


def test_byte_order_marked_composite_and_lexicon_load(tmp_path, composite_file, angina_docs, capsys):
    """A composite or lexicon file saved with a leading UTF-8 byte-order
    mark reads as the file without it."""
    lex_path = tmp_path / "lexicon.json"
    save_lexicon(default_lexicon(), lex_path)
    marked_composite, marked_lexicon = tmp_path / "marked_composite.json", tmp_path / "marked_lexicon.json"
    marked_composite.write_bytes(b"\xef\xbb\xbf" + composite_file.read_bytes())
    marked_lexicon.write_bytes(b"\xef\xbb\xbf" + lex_path.read_bytes())
    base = ["summarize", str(angina_docs), "--query", "angina", "--format", "trace"]
    plain = run(capsys, *base, "--composite", str(composite_file), "--lexicon", str(lex_path))
    marked = run(capsys, *base, "--composite", str(marked_composite), "--lexicon", str(marked_lexicon))
    assert plain[0] == 0
    assert marked == plain


@pytest.mark.parametrize("flag", ["--composite", "--lexicon"])
@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
def test_a_cut_byte_order_mark_is_refused_as_not_utf8(tmp_path, composite_file, angina_docs, capsys, flag, data):
    """A composite or lexicon file of the first bytes of a byte-order mark is
    not UTF-8, as for a corpus file, rather than an empty JSON text."""
    cut = tmp_path / "cut.json"
    cut.write_bytes(data)
    inputs = {"--composite": str(composite_file), flag: str(cut)}
    argv = ["summarize", str(angina_docs), "--query", "angina", *(part for pair in inputs.items() for part in pair)]
    code, _, err = run(capsys, *argv)
    what = flag[2:]
    assert code == 2
    assert err.startswith(f"error: cannot read {what} file {cut}: 'utf-8' codec can't decode")


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


def test_lexicon_lemma_named_after_a_content_slot_exits_2(tmp_path, composite_file, angina_docs, capsys):
    lexicon = default_lexicon()
    lexicon.morphology["members"] = ("MEMBER-VERB", "MEMBER-VERBS")
    lexicon.morphology["description"] = ("D1", "D2")
    path = tmp_path / "slot_lemmas.json"
    save_lexicon(lexicon, path)
    code, out, err = run(
        capsys,
        "summarize", str(angina_docs), "--composite", str(composite_file),
        "--query", "angina", "--lexicon", str(path),
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "content slot" in err


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


def test_missing_lexicon_exits_2(tmp_path, composite_file, angina_docs, capsys):
    path = tmp_path / "absent.json"
    code, out, err = run(
        capsys,
        "summarize", str(angina_docs), "--composite", str(composite_file),
        "--query", "angina", "--lexicon", str(path),
    )
    assert (code, out, err) == (2, "", f"error: lexicon file not found: {path}\n")


# each place where lexicon text reaches an output line: (what the error calls
# it, the list or object of a lexicon payload that holds it, its index or key)
_LEXICON_TEXTS = {
    "description": ("description phrase", lambda p: p["descriptions"]["prototypical"], 0),
    "pattern-id": ("pattern id", lambda p: p["patterns"]["overview_list"][0], "id"),
    "pattern-text": ("pattern text", lambda p: p["patterns"]["overview_list"][0], "text"),
    "morphology": ("morphology form", lambda p: p["morphology"]["be"], 1),
}
# a line break would forge an output line; a lone surrogate (a JSON escape)
# cannot be written to a UTF-8 stdout
_LEXICON_FAULTS = {"line-break": ("\ncategory: forged", "a line break"), "surrogate": ("\ud800", "text that is not valid UTF-8")}


def _lexicon_with(path: Path, place: str, fault: str) -> str:
    """Write the default lexicon to path with fault appended to the text at
    place, escaped as ASCII JSON; returns the faulty text."""
    save_lexicon(default_lexicon(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    _, container, key = _LEXICON_TEXTS[place]
    holder = container(payload)
    holder[key] += _LEXICON_FAULTS[fault][0]
    path.write_text(json.dumps(payload), encoding="ascii")
    return holder[key]


@pytest.mark.parametrize("place", list(_LEXICON_TEXTS))
@pytest.mark.parametrize("fault", list(_LEXICON_FAULTS))
@pytest.mark.parametrize("output", ["text", "trace"])
def test_lexicon_text_that_is_not_one_line_of_utf8_exits_2(tmp_path, composite_file, angina_docs, capsys, place, fault, output):
    path = tmp_path / "lexicon.json"
    text = _lexicon_with(path, place, fault)
    code, out, err = run(
        capsys, "summarize", str(angina_docs), "--composite", str(composite_file),
        "--query", "angina", "--lexicon", str(path), "--format", output,
    )
    assert (code, out) == (2, "")
    assert err == f"error: {_LEXICON_TEXTS[place][0]} {brief_repr(text)} holds {_LEXICON_FAULTS[fault][1]}\n"


@pytest.mark.parametrize("output", ["text", "trace"])
def test_undecodable_lexicon_description_exits_2_where_stdout_encodes_utf8_strictly(tmp_path, composite_file, angina_docs, output):
    """A lone surrogate in a description phrase used to end the run in a
    UnicodeEncodeError traceback once the summary reached stdout."""
    path = tmp_path / "lexicon.json"
    _lexicon_with(path, "description", "surrogate")
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "topicsift.cli", "summarize", str(angina_docs), "--composite", str(composite_file)]
    result = subprocess.run(
        argv + ["--query", "angina", "--lexicon", str(path), "--format", output], env=env, capture_output=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"error: description phrase ")
    assert result.stderr.endswith(b" holds text that is not valid UTF-8\n") and result.stderr.count(b"\n") == 1


@pytest.mark.parametrize("command", ["build", "summarize"])
@pytest.mark.parametrize("error", [ValueError, OSError, KeyError, RuntimeError])
def test_unexpected_exception_escapes_main(tmp_path, composite_file, angina_reference, angina_docs, monkeypatch, command, error):
    """Only the exact error classes of the exit-code table map to a code;
    any other exception is a program fault and keeps its traceback."""

    def fault(*args, **kwargs):
        raise error("unexpected")

    if command == "build":
        monkeypatch.setattr(cli, "build_composite", fault)
        argv = ["build", str(angina_reference), str(tmp_path / "out.json")]
    else:
        monkeypatch.setattr(cli, "summarize", fault)
        argv = ["summarize", str(angina_docs), "--composite", str(composite_file), "--query", "angina"]
    with pytest.raises(error, match="unexpected"):
        cli.main(argv)


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


@pytest.mark.parametrize("section", ["morphology", "patterns", "descriptions"])
def test_huge_lexicon_key_gives_one_short_error_line(tmp_path, composite_file, angina_docs, capsys, section):
    """A bad entry under a 10,000-character lemma, relation or category key."""
    path = tmp_path / "lexicon.json"
    save_lexicon(default_lexicon(), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[section]["k" * 10_000] = 1
    path.write_text(json.dumps(payload), encoding="utf-8")
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


class _UnstatableEntry:
    """A directory entry whose lookup fails with EACCES, as under a directory
    that lets names be listed but not looked up."""

    def __init__(self, entry: os.DirEntry) -> None:
        self.name = entry.name

    def is_file(self) -> bool:
        raise PermissionError(errno.EACCES, "Permission denied")


@pytest.mark.parametrize("command", ["build", "summarize"])
@pytest.mark.parametrize("method, error", [
    ("iterdir", "cannot list corpus directory {docs}: Permission denied"),
    ("is_file", "cannot read corpus file ama_angina_guide.md: [Errno 13] Permission denied"),
    ("open", "cannot read corpus file ama_angina_guide.md: [Errno 13] Permission denied: {first!r}"),
], ids=["iterdir", "is_file", "open"])
def test_unreadable_corpus_directory_exits_1(
    tmp_path, composite_file, angina_docs, capsys, monkeypatch, command, method, error
):
    # patched rather than chmod, which does not stop root from reading; the
    # loader lists the directory with os.scandir, asks each entry is_file and
    # opens each file with os.open
    scandir, open_fd = os.scandir, os.open

    def refuse_open(path, *args, **kwargs):
        if os.path.dirname(os.fspath(path)) == os.fspath(angina_docs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return open_fd(path, *args, **kwargs)

    def refuse(path, *args, **kwargs):
        if os.fspath(path) != os.fspath(angina_docs):
            return scandir(path, *args, **kwargs)
        if method == "iterdir":
            raise PermissionError(errno.EACCES, "Permission denied")
        with scandir(path) as listing:
            return contextlib.nullcontext([_UnstatableEntry(entry) for entry in listing])

    if method == "open":
        monkeypatch.setattr(os, "open", refuse_open)
    else:
        monkeypatch.setattr(os, "scandir", refuse)
    if command == "build":
        args = ["build", str(angina_docs), str(tmp_path / "c.json")]
    else:
        args = ["summarize", str(angina_docs), "--composite", str(composite_file), "--query", "angina"]
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    first = os.path.join(angina_docs, "ama_angina_guide.md")
    assert err == "error: " + error.format(docs=angina_docs, first=first) + "\n"


def _deny_lookup(monkeypatch, target):
    """Make stat, listing and opening target fail with EACCES, as they do
    under a directory without search permission; patched rather than chmod,
    which does not stop root. Before Python 3.13, Path.is_file, is_dir and
    exists raise this error instead of returning False."""
    def denied(call):
        def refuse(path, *args, **kwargs):
            if isinstance(path, (str, os.PathLike)) and os.fspath(path) == os.fspath(target):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            return call(path, *args, **kwargs)
        return refuse

    for name in ("stat", "scandir"):
        monkeypatch.setattr(os, name, denied(getattr(os, name)))
    for method in ("stat", "open"):
        monkeypatch.setattr(Path, method, denied(getattr(Path, method)))


def test_denied_composite_lookup_exits_2(composite_file, angina_docs, capsys, monkeypatch):
    _deny_lookup(monkeypatch, composite_file)
    code, out, err = run(capsys, "summarize", str(angina_docs), "--composite", str(composite_file), "--query", "angina")
    assert (code, out) == (2, "")
    assert err == f"error: cannot read composite file {composite_file}: [Errno 13] Permission denied\n"


@pytest.mark.parametrize("command", ["build", "summarize"])
def test_denied_corpus_directory_lookup_exits_1(tmp_path, composite_file, angina_docs, capsys, monkeypatch, command):
    _deny_lookup(monkeypatch, angina_docs)
    if command == "build":
        args = ["build", str(angina_docs), str(tmp_path / "c.json")]
    else:
        args = ["summarize", str(angina_docs), "--composite", str(composite_file), "--query", "angina"]
    code, out, err = run(capsys, *args)
    assert (code, out) == (1, "")
    assert err == f"error: cannot list corpus directory {angina_docs}: Permission denied\n"


def test_denied_output_directory_lookup_exits_1(tmp_path, angina_reference, capsys, monkeypatch):
    (tmp_path / "out").mkdir()
    _deny_lookup(monkeypatch, tmp_path / "out")
    out_path = tmp_path / "out" / "c.json"
    code, out, err = run(capsys, "build", str(angina_reference), str(out_path))
    assert (code, out) == (1, "")
    # from Python 3.13 on, is_dir and exists return False: the directory then looks missing
    prefix = f"error: cannot write composite file {out_path}: "
    assert err in (prefix + "Permission denied\n", prefix + "No such file or directory\n")


# --- the collector pause ----------------------------------------------------------

@pytest.fixture
def collections():
    """The generation of each collection the cyclic collector starts."""
    started: list[int] = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield started
    finally:
        gc.callbacks.remove(record)


@pytest.fixture
def collector_setting():
    """Put the collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _summarize_argv(docs, composite, *extra):
    return ["summarize", str(docs), "--composite", str(composite), "--query", "angina", *extra]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", ["exit-0", "exit-1", "exit-2", "exit-3", "unknown-flag", "fault"])
def test_main_pauses_the_collector_and_restores_the_callers_setting_on_every_exit(
    tmp_path, composite_file, angina_docs, monkeypatch, collections, collector_setting, enabled, path
):
    """No automatic collection runs during a command; afterwards the
    collector is as the caller left it, and one young collection ran if it
    was enabled. A disabled collector stays disabled and collects nothing."""
    docs, extra = angina_docs, []
    if path == "exit-1":
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "bad.md").write_bytes(b"\xff")
    elif path == "exit-2":
        extra = ["--k", "0"]
    elif path == "exit-3":
        lexicon = default_lexicon()
        del lexicon.descriptions["atypical"]
        save_lexicon(lexicon, tmp_path / "gappy.json")
        extra = ["--lexicon", str(tmp_path / "gappy.json")]
    elif path == "unknown-flag":
        extra = ["--nope"]
    elif path == "fault":
        def fault(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "summarize", fault)
    argv = _summarize_argv(docs, composite_file, *extra)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    del collections[:]
    if path.startswith("exit-"):
        assert cli.main(argv) == int(path[-1])
    else:
        with pytest.raises(SystemExit if path == "unknown-flag" else RuntimeError):
            cli.main(argv)
    assert gc.isenabled() is enabled
    assert collections == ([0] if enabled else [])


def test_the_cyclic_garbage_of_a_summarize_run_does_not_grow_with_its_documents(
    tmp_path, composite_file, angina_docs, capsys, collector_setting
):
    """Reference counting frees a run's norm, corpus and results: the few
    cycles it leaves (argparse's) are as many for 40 documents as for 4."""
    many = tmp_path / "many"
    many.mkdir()
    for copy in range(10):
        for path in angina_docs.iterdir():
            (many / f"{copy}-{path.name}").write_bytes(path.read_bytes())

    def garbage(docs) -> int:
        gc.collect()
        gc.disable()
        assert cli.main(_summarize_argv(docs, composite_file, "--format", "trace")) == 0
        capsys.readouterr()
        return gc.collect()

    garbage(angina_docs)  # a first run fills module-level caches
    few = garbage(angina_docs)
    assert few < 1000
    assert garbage(many) == few


# --- a failed save leaves the file it would replace --------------------------

def test_unencodable_domain_genre_exits_2_and_keeps_the_old_norm(composite_file, angina_reference, capsys):
    before = composite_file.read_bytes()
    # argv carries an undecodable byte as a lone surrogate
    code, out, err = run(capsys, "build", str(angina_reference), str(composite_file), "--domain-genre", "x\udcff")
    assert (code, out) == (2, "")
    assert err == "error: the norm for domain genre 'x\\udcff' holds text that is not valid UTF-8\n"
    assert composite_file.read_bytes() == before


def test_undecodable_corpus_directory_name_exits_2_and_keeps_the_old_norm(
    tmp_path, composite_file, angina_reference, capsys
):
    corpus = tmp_path / os.fsdecode(b"ref\xff")
    shutil.copytree(angina_reference, corpus)
    before = composite_file.read_bytes()
    code, out, err = run(capsys, "build", str(corpus), str(composite_file))
    assert (code, out) == (2, "")
    assert err == "error: the norm for domain genre 'ref\\udcff' holds text that is not valid UTF-8\n"
    assert composite_file.read_bytes() == before


@pytest.mark.parametrize("genre", ["a\nb", "a\r\nb", "a\x85b", "a\u2028b"])
def test_domain_genre_with_a_line_break_exits_2_and_keeps_the_old_norm(composite_file, angina_reference, capsys, genre):
    before = composite_file.read_bytes()
    code, out, err = run(capsys, "build", str(angina_reference), str(composite_file), "--domain-genre", genre)
    assert (code, out) == (2, "")
    assert err.startswith("error: the norm for domain genre ") and err.endswith(" holds a line break\n")
    assert err.count("\n") == 1
    assert composite_file.read_bytes() == before


def test_corpus_directory_name_with_a_line_break_exits_2_and_keeps_the_old_norm(
    tmp_path, composite_file, angina_reference, capsys
):
    corpus = tmp_path / "ref\nx"
    shutil.copytree(angina_reference, corpus)
    before = composite_file.read_bytes()
    code, out, err = run(capsys, "build", str(corpus), str(composite_file))
    assert (code, out) == (2, "")
    assert err == "error: the norm for domain genre 'ref\\nx' holds a line break\n"
    assert composite_file.read_bytes() == before


@pytest.mark.parametrize(
    "section, text",
    [
        ("descriptions", "on \udcff {QUERY}"),
        ("descriptions", "on {QUERY}\ncategory: forged"),
        ("morphology", "is\ncategory: forged"),
    ],
    ids=["unencodable-phrase", "phrase-line-break", "verb-form-line-break"],
)
def test_lexicon_text_load_lexicon_would_refuse_keeps_the_old_file(tmp_path, section, text):
    path = tmp_path / "lexicon.json"
    lexicon = default_lexicon()
    save_lexicon(lexicon, path)
    before = path.read_bytes()
    descriptions, morphology = dict(lexicon.descriptions), dict(lexicon.morphology)
    if section == "descriptions":
        descriptions["prototypical"] = [text]
    else:
        morphology["be"] = (text, "are")
    broken = Lexicon(descriptions=descriptions, patterns=lexicon.patterns, morphology=morphology)
    with pytest.raises(LexiconError, match="holds"):
        save_lexicon(broken, path)
    assert path.read_bytes() == before


# --- the whole command line, fuzzed in-process ----------------------------------

# flag values argparse accepts, so each reaches the program's own checks; a
# lone surrogate is how argv carries an undecodable byte
_TEXT_PIECES = ["angina", "treatment", "x", "é", " ", "\n", "-", "\udcff", "\ud800"]
_TEXTS = st.lists(st.sampled_from(_TEXT_PIECES), max_size=4).map("".join)
_INTS = st.sampled_from(["0", "-1", "-7", str(10**30), "1", "2"])
_FLOATS = st.sampled_from(["nan", "inf", "-inf", "-0.0", "1e400", "0", "0.3", "1"])
_JSON_VALUES = st.sampled_from([None, True, 0, -1, 10**30, 0.5, -0.0, 1e308, math.nan, math.inf, "", "\udcff", [], {}])

_BUILD = st.tuples(
    st.just("build"),
    st.fixed_dictionaries({}, optional={"--align-threshold": _FLOATS, "--domain-genre": _TEXTS}),
    st.none(),
)
_SUMMARIZE = st.tuples(
    st.just("summarize"),
    st.fixed_dictionaries(
        {"--query": _TEXTS},
        optional={
            "--k": _INTS,
            "--limit": _INTS,
            "--seed": _INTS,
            "--alpha": _FLOATS,
            "--tau": _FLOATS,
            "--align-threshold": _FLOATS,
            "--format": st.sampled_from(["text", "trace"]),
        },
    ),
    # one field of the composite or lexicon file: (file, field number, delete it?, new value)
    st.none() | st.tuples(st.sampled_from(["composite", "lexicon"]), st.integers(0, 10**4), st.booleans(), _JSON_VALUES),
)


def _fields(value, path=()):
    """The path of every member and item of a JSON value, in document order."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _mutate(payload, number: int, delete: bool, value):
    """payload with one field replaced by value, or deleted when it is an
    object member and delete is set."""
    payload = copy.deepcopy(payload)
    paths = list(_fields(payload))
    *head, key = paths[number % len(paths)]
    parent = payload
    for step in head:
        parent = parent[step]
    if delete and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = value
    return payload


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding the angina norm and the built-in lexicon, and the
    JSON payload of each."""
    work = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["build", str(FIXTURES / "angina" / "reference"), str(work / "composite.json")]) == 0
    save_lexicon(default_lexicon(), work / "lexicon.json")
    return work, {name: json.loads((work / f"{name}.json").read_text(encoding="utf-8")) for name in ("composite", "lexicon")}


@settings(max_examples=200, deadline=None)
@given(st.one_of(_BUILD, _SUMMARIZE))
@example(("build", {"--domain-genre": "x\udcff"}, None))
@example(("summarize", {"--query": "--"}, None))
def test_command_line_exits_0_to_3_with_one_error_line_on_failure(fuzz_inputs, case):
    work, payloads = fuzz_inputs
    command, flags, mutation = case
    norm_bytes = (work / "composite.json").read_bytes()
    out_path = work / "out.json"
    if command == "build":
        out_path.write_bytes(norm_bytes)
        argv = ["build", str(FIXTURES / "angina" / "reference"), str(out_path)]
    else:
        files = {"composite": work / "composite.json"}
        if mutation is not None:
            name, number, delete, value = mutation
            files[name] = work / f"mutated-{name}.json"
            # ensure_ascii writes a lone surrogate as its \u escape, which loads back as one
            files[name].write_text(json.dumps(_mutate(payloads[name], number, delete, value)), encoding="ascii")
        argv = ["summarize", str(FIXTURES / "angina" / "docs"), "--composite", str(files["composite"])]
        if "lexicon" in files:
            argv += ["--lexicon", str(files["lexicon"])]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    event(f"{command} exit {code}")
    errors = [line for line in stderr.getvalue().split("\n") if line.startswith("error: ")]
    assert code in (0, 1, 2, 3)
    assert len(errors) == (code != 0)
    if command == "build" and code != 0:
        assert out_path.read_bytes() == norm_bytes


# --- a corpus, fuzzed end to end ------------------------------------------------

# (edit, number, piece): number picks the file and the place in it
_CORPUS_EDITS = st.one_of(
    st.tuples(st.just("bytes"), st.integers(0, 10**4), st.sampled_from([b"\xff", b"\x00", b"\xef\xbb\xbf", b"\xc3", b"#"])),
    st.tuples(st.just("breaks"), st.integers(0, 10**4), st.sampled_from(["\r\n", "\r", "\x0b", "\x85", "\u2028"])),
    st.tuples(
        st.just("header"),
        st.integers(0, 10**4),
        st.sampled_from(["# ", "#######", "###### deep", "# angina", "#\tTab", "  # indented", "# \udcff"]),
    ),
    st.tuples(
        st.just("front"),
        st.integers(0, 10**4),
        st.sampled_from([
            "---\n", "---\ntitle: \n---\n", "---\ntitle: T\ncontent_types: a, ,b\n---\n", "---\n:bad\n---\n",
            "\ufeff---\ntitle: Marked\n---\n", "---\ntitle: line\x85break\n---\n",
        ]),
    ),
    st.tuples(
        st.just("name"),
        st.integers(0, 10**4),
        st.sampled_from(["x\n.md", "\udcff.md", ".md", "x.MD", "x.md.", "y.txt", "line\u2028.md", "sub.md/"]),
    ),
    st.tuples(st.just("drop"), st.integers(0, 10**4), st.none()),
)


def _edited_corpus(source: Path, directory: Path, edits) -> Path:
    """A copy of the source corpus with each edit applied: bytes inserted,
    line breaks replaced, a header or front matter added, a file renamed (a
    name ending in "/" becomes an empty directory) or dropped."""
    files = {path.name: path.read_bytes() for path in sorted(source.iterdir())}
    for edit, number, piece in edits:
        if not files:
            break
        name = sorted(files)[number % len(files)]
        data = files[name]
        if edit == "bytes":
            at = number % (len(data) + 1)
            files[name] = data[:at] + piece + data[at:]
        elif edit == "breaks":
            files[name] = data.replace(b"\n", piece.encode("utf-8"))
        elif edit == "header":
            lines = data.split(b"\n")
            lines.insert(number % (len(lines) + 1), piece.encode("utf-8", "surrogateescape"))
            files[name] = b"\n".join(lines)
        elif edit == "front":
            files[name] = piece.encode("utf-8") + data
        elif edit == "name":
            files[piece] = files.pop(name)
        else:
            del files[name]
    directory.mkdir()
    for name, data in files.items():
        if name.endswith("/"):
            (directory / name).mkdir()
        else:
            (directory / name).write_bytes(data)
    return directory


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["build", "text", "trace"]), st.lists(_CORPUS_EDITS, min_size=1, max_size=4))
def test_a_mutated_corpus_exits_0_to_3_with_one_error_line_on_failure(fuzz_inputs, command, edits):
    work, _ = fuzz_inputs
    with tempfile.TemporaryDirectory() as scratch:
        if command == "build":
            corpus = _edited_corpus(FIXTURES / "angina" / "reference", Path(scratch) / "reference", edits)
            argv = ["build", str(corpus), str(Path(scratch) / "out.json")]
        else:
            corpus = _edited_corpus(FIXTURES / "angina" / "docs", Path(scratch) / "docs", edits)
            argv = ["summarize", str(corpus), "--composite", str(work / "composite.json"), "--query", "angina"]
            argv += ["--format", command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    event(f"{command} exit {code}")
    errors = [line for line in stderr.getvalue().split("\n") if line.startswith("error: ")]
    assert code in (0, 1, 2, 3)
    assert len(errors) == (code != 0)


@pytest.mark.parametrize("edits, expected", [
    ([("name", 0, "\udcff.md")], 2),
    ([("bytes", 7, b"\xff")], 1),
    ([("header", 3, "# \udcff")], 1),
    ([("breaks", 1, "\u2028"), ("front", 2, "---\ntitle: Marked\n---\n"), ("name", 0, "x.md.")], 0),
], ids=["undecodable-name", "undecodable-byte", "undecodable-header", "breaks-front-matter-name"])
def test_a_mutated_corpus_exits_with_one_error_line_where_stdout_encodes_utf8_strictly(
    tmp_path, composite_file, edits, expected
):
    """The in-process fuzz above, for a few corpora, as a process of its own
    whose standard streams encode UTF-8 strictly."""
    env = {**os.environ, "PYTHONIOENCODING": "utf-8", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    corpus = _edited_corpus(FIXTURES / "angina" / "docs", tmp_path / "docs", edits)
    argv = [sys.executable, "-m", "topicsift.cli", "summarize", str(corpus), "--composite", str(composite_file)]
    result = subprocess.run(argv + ["--query", "angina", "--format", "trace"], env=env, capture_output=True, timeout=60)
    lines = result.stderr.decode("utf-8").splitlines()
    assert result.returncode == expected
    assert [line for line in lines if line.startswith("error: ")] == lines[:1] * (expected != 0)
    assert (result.stdout == b"") == (expected != 0)
