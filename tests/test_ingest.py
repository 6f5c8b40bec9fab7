from __future__ import annotations

import logging
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topicsift import CorpusNameError, CorpusReadError, DocumentMetadata, load_corpus, parse_document, parse_metadata
from topicsift.model import LINE_BREAKS, brief_repr

from conftest import write_corpus
from oracles import nested


def labels(doc):
    return doc.labels


def shape(doc):
    """A document as nested (label, [children]) pairs."""
    def nest(node):
        return (node.label.canonical, [nest(child) for child in node.children])

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
