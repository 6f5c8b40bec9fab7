from __future__ import annotations

import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topicsift import CorpusReadError, load_corpus, parse_document, parse_metadata
from topicsift.model import walk

from conftest import write_corpus


def labels(tree):
    return [n.label.canonical for n in walk(tree.root)]


def shape(node):
    return (node.label.canonical, [shape(c) for c in node.children])


def test_parse_disease_article_shape():
    text = "# Coronary Artery Disease\n\n## Definition\n\n## Symptoms\n\n### Angina\n"
    doc = parse_document(text, "cad.md")
    assert shape(doc.root) == (
        "Coronary Artery Disease",
        [("Definition", []), ("Symptoms", [("Angina", [])])],
    )


def test_no_headers_yields_single_node_named_after_doc():
    doc = parse_document("just some text\nwith no structure\n", "x")
    assert shape(doc.root) == ("x", [])


def test_level_jump_attaches_to_nearest_ancestor():
    doc = parse_document("# A\n\n### B\n", "d.md")
    assert shape(doc.root) == ("A", [("B", [])])


def test_deep_jump_back_out():
    doc = parse_document("# A\n## B\n#### C\n## D\n", "d.md")
    assert shape(doc.root) == ("A", [("B", [("C", [])]), ("D", [])])


def test_second_top_level_header_nests_under_first():
    doc = parse_document("# A\n# B\n", "d.md")
    assert shape(doc.root) == ("A", [("B", [])])


def test_top_headers_below_level_one_get_synthesized_root():
    doc = parse_document("## A\n## B\n", "d.md")
    assert shape(doc.root) == ("d.md", [("A", []), ("B", [])])


def test_header_before_first_level_one_keeps_document_order():
    doc = parse_document("### Early\n# Late\n", "d.md")
    assert labels(doc) == ["d.md", "Early", "Late"]


def test_front_matter_title_becomes_root():
    text = "---\ntitle: AMA Guide\ncontent_types: figures, tables\n---\n# Chapter one\n## Sub\n"
    doc = parse_document(text, "d.md")
    assert shape(doc.root) == ("AMA Guide", [("Chapter one", [("Sub", [])])])
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
    assert shape(doc.root) == ("H", [])
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


def test_source_spans_point_at_header_lines():
    text = "# A\n\n## B\n"
    doc = parse_document(text, "d.md")
    spans = [n.source_span for n in walk(doc.root)]
    assert text[slice(*spans[0])] == "# A"
    assert text[slice(*spans[1])] == "## B"


def test_parse_is_deterministic():
    text = "# A\n## B\n### C\n## D\n"
    assert parse_document(text, "d.md") == parse_document(text, "d.md")
    assert [n.id for n in walk(parse_document(text, "d.md").root)] == [0, 1, 2, 3]


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


def test_load_corpus_rejects_missing_directory(tmp_path):
    with pytest.raises(CorpusReadError):
        load_corpus(tmp_path / "nope")
