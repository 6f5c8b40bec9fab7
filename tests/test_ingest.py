from __future__ import annotations

import logging
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from topicsift import (
    CorpusNameError,
    CorpusReadError,
    CorpusSet,
    DocumentMetadata,
    load_corpus,
    parse_document,
    parse_metadata,
)
from topicsift import ingest
from topicsift.model import LINE_BREAKS, brief_repr

from conftest import write_corpus
from oracles import (
    nested,
    oracle_load_corpus,
    oracle_parse_document,
    oracle_parse_metadata,
    oracle_split_front_matter,
)


def labels(doc):
    return doc.labels


def shape(doc):
    """A document as nested (label, [children]) pairs."""
    def nest(node):
        return (node.label[0], [nest(child) for child in node.children])

    return nest(nested(doc))


def test_parse_disease_article_shape():
    text = "# Coronary Artery Disease\n\n## Definition\n\n## Symptoms\n\n### Angina\n"
    doc = parse_document(text, "cad.md")
    assert shape(doc) == (
        "Coronary Artery Disease",
        [("Definition", []), ("Symptoms", [("Angina", [])])],
    )


def test_no_headers_yields_single_node_named_after_doc():
    doc = parse_document("just some text\nwith no structure\n", "x")
    assert shape(doc) == ("x", [])


def test_level_jump_attaches_to_nearest_ancestor():
    doc = parse_document("# A\n\n### B\n", "d.md")
    assert shape(doc) == ("A", [("B", [])])


def test_deep_jump_back_out():
    doc = parse_document("# A\n## B\n#### C\n## D\n", "d.md")
    assert shape(doc) == ("A", [("B", [("C", [])]), ("D", [])])


def test_second_top_level_header_nests_under_first():
    doc = parse_document("# A\n# B\n", "d.md")
    assert shape(doc) == ("A", [("B", [])])


def test_top_headers_below_level_one_get_synthesized_root():
    doc = parse_document("## A\n## B\n", "d.md")
    assert shape(doc) == ("d.md", [("A", []), ("B", [])])


def test_header_before_first_level_one_keeps_document_order():
    doc = parse_document("### Early\n# Late\n", "d.md")
    assert labels(doc) == ["d.md", "Early", "Late"]


def test_front_matter_title_becomes_root():
    text = "---\ntitle: AMA Guide\ncontent_types: figures, tables\n---\n# Chapter one\n## Sub\n"
    doc = parse_document(text, "d.md")
    assert shape(doc) == ("AMA Guide", [("Chapter one", [("Sub", [])])])
    assert doc.metadata.title == "AMA Guide"
    assert doc.metadata.content_types == {"figures", "tables"}


def test_metadata_direct_mapping():
    meta = parse_metadata("title: AMA Guide\ncontent_types: figures, tables")
    assert meta.title == "AMA Guide"
    assert meta.content_types == {"figures", "tables"}
    assert meta.special_content == frozenset()


def test_metadata_empty_block():
    meta = parse_metadata("")
    assert meta.title is None
    assert meta.content_types == frozenset()
    assert meta.special_content == frozenset()


def test_metadata_special_content_tag():
    meta = parse_metadata("special_content: credit hours")
    assert meta.special_content == {"credit hours"}


def test_metadata_tags_are_normalized():
    meta = parse_metadata("content_types:  Figures ,  TABLES. , ")
    assert meta.content_types == {"figures", "tables"}


def test_metadata_unknown_keys_ignored():
    meta = parse_metadata("author: someone\ntitle: T")
    assert meta.title == "T"


def test_metadata_malformed_line_warns_but_survives(caplog):
    with caplog.at_level(logging.WARNING):
        meta = parse_metadata("not a metadata line\ntitle: T")
    assert meta.title == "T"
    assert any("malformed metadata line" in r.message for r in caplog.records)


def test_unterminated_front_matter_is_plain_body(caplog):
    with caplog.at_level(logging.WARNING):
        doc = parse_document("---\ntitle: T\n# H\n", "d.md")
    assert doc.metadata.title is None
    assert shape(doc) == ("H", [])
    assert [r.getMessage() for r in caplog.records] == [
        "unterminated front-matter fence in d.md; treating file as plain body"
    ]


def test_unterminated_fence_warning_names_the_source_path(caplog):
    with caplog.at_level(logging.WARNING):
        parse_document("---\n# H\n", "d.md", source_path="corpus/d.md")
    assert "unterminated front-matter fence in corpus/d.md" in caplog.text


# the lines a front-matter block is made of: fences, lines that are almost
# fences, blank and tab lines, metadata lines with repeated, blank, spaced
# and unknown keys, and malformed lines
front_lines = st.sampled_from([
    "---", "--- ", "---\t", "----", "-- -", " ---", "", "\t", " \t ",
    "title: T", "title: Other", "title:", "Title  :\tSpaced ", "content_types: figures, Tables.",
    "content_types: video", "special_content: credit hours, ", "special_content:", "key: value",
    "author: someone", "not a metadata line", "9key: x", ": no key", "# Header",
])
front_texts = st.tuples(
    st.sampled_from(["", "---\n", "--- \n"]), st.lists(front_lines, max_size=10), st.sampled_from(["", "\n"])
).map(lambda parts: parts[0] + "\n".join(parts[1]) + parts[2])


@settings(max_examples=300, deadline=None)
@given(front_texts)
@example("---")
@example("---\n---")
@example("---\n---\n---\ntitle: Inside\n---\n")
@example("---\ntitle: First\ntitle: Last\n---\n")
@example("---\ntitle: First\ntitle:\n---\n# H\n")
@example("---\ncontent_types: video\nspecial_content: quiz\ncontent_types: figures, Tables.\nspecial_content: credit hours\n---\n")
@example("---\t\n\t\n\ntitle: T\n---  \n")
def test_one_match_front_matter_matches_the_per_line_oracles(text):
    """The fences, the block between them and the metadata read from it, as
    the per-line fence finder and the regex-free metadata reader give them;
    a block opens on the first line and closes at the next fence."""
    front, body_start = ingest._split_front_matter(text, "d.md")
    block, expected_start = oracle_split_front_matter(text)
    # the package's block starts at the break that ends the opening fence's
    # line, and its body at the break that ends the closing fence's
    assert front == ("\n" + block if expected_start else "")
    assert expected_start == body_start + (expected_start > 0 and text.startswith("\n", body_start))
    assert parse_metadata(front, "d.md") == oracle_parse_metadata(front, "d.md") == oracle_parse_metadata(block, "d.md")
    assert parse_document(text, "d.md").metadata == oracle_parse_document(text, "d.md").metadata


def test_front_matter_gathers_repeated_tags_and_takes_the_last_title():
    meta = parse_metadata(
        "title: First\ncontent_types: video\nspecial_content: quiz\ncontent_types: figures, Tables.\n"
        "special_content: credit hours, quiz\ntitle: Last"
    )
    assert meta == DocumentMetadata("Last", frozenset({"video", "figures", "tables"}), frozenset({"quiz", "credit hours"}))
    assert parse_metadata("title: First\ntitle:").title is None


@pytest.mark.parametrize("source_path, source", [("corpus/d.md", "corpus/d.md"), ("", "d.md")])
@pytest.mark.parametrize(
    "text, message",
    [
        ("---\nnot a metadata line\ntitle: T\n---\n# H\n", "skipping malformed metadata line 'not a metadata line' in {}"),
        ("---\ntitle: T\n\t\n-- -\n# H\n", "unterminated front-matter fence in {}; treating file as plain body"),
    ],
)
def test_a_front_matter_fault_warns_once(caplog, text, message, source_path, source):
    """Each fault warns once, naming the file, or the doc id of a text parsed
    without a source path; the metadata keeps the source path as given."""
    with caplog.at_level(logging.WARNING):
        doc = parse_document(text, "d.md", source_path=source_path)
    assert [r.getMessage() for r in caplog.records] == [message.format(source)]
    assert doc.metadata == oracle_parse_document(text, "d.md", source_path).metadata
    assert doc.metadata.source_path == source_path


def test_hash_without_space_is_not_a_header():
    doc = parse_document("#NoSpace\n####### seven\n# Real\n", "d.md")
    assert labels(doc) == ["Real"]


def test_blank_header_is_body_text():
    doc = parse_document("# Disease\n#  \n## \t\n## Symptoms\n", "d")
    assert labels(doc) == ["Disease", "Symptoms"]


def test_parse_is_deterministic():
    text = "# A\n## B\n### C\n## D\n"
    doc = parse_document(text, "d.md")
    assert doc == parse_document(text, "d.md")
    assert (doc.labels, doc.parents, doc.depths) == (["A", "B", "C", "D"], [-1, 0, 1, 0], [0, 1, 2, 1])


def test_a_synthesized_root_needs_a_non_blank_doc_id():
    with pytest.raises(ValueError, match="non-blank doc id"):
        parse_document("## A\n", " \t")
    assert parse_document("# A\n", " ").labels == ["A"]


_header_sequences = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6)), min_size=0, max_size=12
)


@given(_header_sequences)
def test_preorder_traversal_matches_header_sequence(levels):
    """For any header level sequence the parse is total and pre-order labels
    equal the header sequence, plus a synthesized root when the first header
    is not a level-1 title."""
    headers = [(level, f"topic {index}") for index, (level,) in enumerate(levels)]
    text = "".join("#" * level + f" {label}\n" for level, label in headers)
    doc = parse_document(text, "doc-id")
    expected = [label for _, label in headers]
    if not (headers and headers[0][0] == 1):
        expected = ["doc-id"] + expected
    assert labels(doc) == expected


def test_load_corpus_sorted_by_name(tmp_path):
    corpus_dir = write_corpus(
        tmp_path / "c",
        {"b.md": "# B\n", "a.txt": "# A\n", "c.md": "# C\n", "skip.rst": "# nope\n"},
    )
    corpus = load_corpus(corpus_dir)
    assert [d.doc_id for d in corpus.docs] == ["a.txt", "b.md", "c.md"]
    assert corpus.origin == str(corpus_dir)


def test_load_corpus_empty_directory(tmp_path):
    (tmp_path / "empty").mkdir()
    corpus = load_corpus(tmp_path / "empty")
    assert corpus.docs == []


def test_load_corpus_names_undecodable_file(tmp_path):
    corpus_dir = write_corpus(tmp_path / "c", {"a.md": "# A\n", "c.md": "# C\n"})
    (corpus_dir / "b.md").write_bytes(b"# B\n\xff\xfe broken")
    with pytest.raises(CorpusReadError, match="b.md"):
        load_corpus(corpus_dir)


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb", b"\xef\xbbx"])
def test_load_corpus_refuses_a_cut_byte_order_mark(tmp_path, data):
    """A file of the first bytes of a byte-order mark is not UTF-8. (A
    text-mode reader with the utf-8-sig codec returns "" for the first two.)"""
    directory = tmp_path / "c"
    directory.mkdir()
    (directory / "cut.md").write_bytes(data)
    with pytest.raises(CorpusReadError, match="cannot read corpus file cut.md: 'utf-8' codec can't decode"):
        load_corpus(directory)


def test_load_corpus_drops_a_byte_order_mark(tmp_path, angina_docs):
    """Editors often save UTF-8 with a leading byte-order mark; it must hide
    neither the front matter nor the first header."""
    files = {path.name: path.read_text(encoding="utf-8") for path in angina_docs.iterdir()}
    files["front.md"] = "---\ntitle: Angina guide\ncontent_types: tables\n---\n# Symptoms\nChest pain.\n"
    files["top.md"] = "# Angina\n## Symptoms\n"
    plain = load_corpus(write_corpus(tmp_path / "plain", files))
    marked = load_corpus(write_corpus(tmp_path / "marked", {name: "\ufeff" + text for name, text in files.items()}))
    assert [doc.doc_id for doc in marked.docs] == [doc.doc_id for doc in plain.docs]
    for original, copy in zip(plain.docs, marked.docs):
        assert (copy.labels, copy.parents, copy.depths) == (original.labels, original.parents, original.depths)
        meta = original.metadata
        assert copy.metadata == DocumentMetadata(
            title=meta.title,
            content_types=meta.content_types,
            special_content=meta.special_content,
            source_path=copy.metadata.source_path,
        )
    by_name = {doc.doc_id: doc for doc in marked.docs}
    assert by_name["front.md"].metadata.title == "Angina guide"
    assert shape(by_name["front.md"]) == ("Angina guide", [("Symptoms", [])])
    assert shape(by_name["top.md"]) == ("Angina", [("Symptoms", [])])


def test_load_corpus_rejects_missing_directory(tmp_path):
    with pytest.raises(CorpusReadError):
        load_corpus(tmp_path / "nope")


@pytest.mark.parametrize(
    "name",
    [f"forged{mark}document: x.md" for mark in LINE_BREAKS] + [os.fsdecode(b"bad\xff.md")],
)
def test_load_corpus_refuses_a_file_name_that_is_not_one_line_of_utf8(tmp_path, name):
    """A file name becomes the doc id, which the trace and the summary print
    on one line, to a stdout that may encode strictly: a line break or an
    undecodable byte in it stops the load, with the name escaped."""
    corpus_dir = write_corpus(tmp_path / "c", {"a.md": "# A\n"})
    (corpus_dir / name).write_text("no headers\n", encoding="utf-8")
    with pytest.raises(CorpusNameError) as caught:
        load_corpus(corpus_dir)
    fault = "a line break" if name.startswith("forged") else "text that is not valid UTF-8"
    assert str(caught.value) == f"the name of corpus file {brief_repr(name)} holds {fault}"
    assert str(caught.value).isprintable()


# names around the suffix rule: a dot that starts or ends the name leaves no
# suffix, the last dot counts, case is folded
_CORPUS_NAMES = [
    "a.md", "b.txt", "c.MD", "d.Txt", ".md", "..md", "x.md.", "İ.md", "x.txt~", "x.md.txt", "x.markdown",
    "notes", "e\n.md", "\udcff.md",
]
_CORPUS_TEXTS = [
    b"# A\n## B\n", b"---\ntitle: T\n---\n# H\n", b"\xef\xbb\xbf# Marked\n", b"", b"no headers\r\n",
    b"# bad \xff byte\n",
    # load_corpus reads bytes, so the parser, not text mode, rewrites these breaks
    b"---\r\ntitle: T\r\n---\r\n# H\r\n## I\r\n",
    b"# A\r## B\rbody\r### C\r",
    "# A\r\n## B\u2028### C\r\nbody\u2028".encode(),
    b"\xef\xbb\xbf---\r\ntitle: Marked\r\n---\r\n## H\r\n",
    # decode errors after a byte-order mark and beyond the first 8 KiB
    b"\xef\xbb\xbf# bad \xfe byte\n",
    b"# Long\n" + b"body line\n" * 1000 + b"# bad \xff byte\n",
    # larger than 64 KiB, with a character of several bytes
    b"# Large\n" + "## S\u00e9ance\nbody line\n".encode() * 3000,
]


def _place_corpus(base: Path, files: dict[str, bytes], extras: set[str]) -> Path:
    directory = base / "d"
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    if "subdirectory" in extras:
        (directory / "sub.md").mkdir()
    if "dangling" in extras:
        (directory / "dangling.md").symlink_to(base / "missing.md")
    if "loop" in extras:
        (directory / "loop.md").symlink_to(directory / "loop.md")
    if "link" in extras:
        (base / "target.txt").write_bytes(b"# Linked\n")
        (directory / "link.md").symlink_to(base / "target.txt")
    return directory


def _loaded(load, directory):
    try:
        return load(directory)
    except (CorpusReadError, CorpusNameError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_CORPUS_NAMES), st.sampled_from(_CORPUS_TEXTS), max_size=6),
    st.sets(st.sampled_from(["subdirectory", "dangling", "loop", "link"])),
    st.sampled_from(["d", "d/", "./d", "d//", ".", "absolute"]),
)
def test_load_corpus_equals_the_per_file_path_loader(files, extras, spelling):
    """load_corpus lists with os.scandir and builds no Path per file; for
    any directory and any spelling of it, it loads what one Path per file
    loads (doc ids, source paths, origin) or fails with the same error."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as base:
        directory = _place_corpus(Path(base), files, extras)
        try:
            os.chdir(directory if spelling == "." else base)
            argument = str(directory) if spelling == "absolute" else spelling
            expected = _loaded(oracle_load_corpus, argument)
            event("loaded" if isinstance(expected, CorpusSet) else expected[0].__name__)
            assert _loaded(load_corpus, argument) == expected
            assert _loaded(load_corpus, Path(argument)) == expected
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("fault", ["size zero", "half the size", "double the size", "short read"])
def test_load_corpus_reads_on_when_one_read_misses_the_size(tmp_path, monkeypatch, fault):
    """load_corpus reads each file in one os.read of one byte more than
    os.fstat reports; when that read does not return exactly the reported
    size (the size is misreported, or the read stops short), it reads on to
    the end of the file, and loads what the per-file path loader loads, or
    fails with its error."""
    directories = []
    for index, text in enumerate(_CORPUS_TEXTS):
        directory = tmp_path / str(index)
        directory.mkdir()
        (directory / "d.md").write_bytes(text)
        directories.append((directory, _loaded(oracle_load_corpus, directory)))
    fstat, read = os.fstat, os.read
    if fault == "short read":
        monkeypatch.setattr(ingest.os, "read", lambda fd, size: read(fd, max(1, size // 2)))
    else:
        scale = {"size zero": 0, "half the size": 0.5, "double the size": 2}[fault]
        monkeypatch.setattr(ingest.os, "fstat", lambda fd: SimpleNamespace(st_size=int(fstat(fd).st_size * scale)))
    for directory, expected in directories:
        assert _loaded(load_corpus, directory) == expected
