from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topicsift import (
    CorpusSet,
    DocumentIndex,
    DocumentMetadata,
    DocumentTopicTree,
    LexicalForms,
    TopicNode,
    build_composite,
    normalize,
)
from topicsift.model import walk, walk_depth

from conftest import make_doc, make_node
from oracles import node_map


def test_normalize_strips_case_whitespace_and_trailing_punctuation():
    assert normalize("  Symptoms:  ") == "symptoms"
    assert normalize("What are the risks?") == "what are the risks"
    assert normalize("Drug   Treatment") == "drug treatment"
    assert normalize("???") == ""


@given(st.text(max_size=40))
def test_normalize_is_idempotent(text):
    assert normalize(normalize(text)) == normalize(text)


@given(st.text(max_size=40))
def test_normalize_ignores_case(text):
    assert normalize(text.upper()) == normalize(text.lower())


def test_lexical_forms_dedupe_and_canonical():
    forms = LexicalForms.of("Symptoms", " symptoms ", "Signs")
    assert forms.forms == ("Symptoms", "Signs")
    assert forms.canonical == "Symptoms"


def test_lexical_forms_require_content():
    with pytest.raises(ValueError):
        LexicalForms.of()
    with pytest.raises(ValueError):
        LexicalForms.of("", "  ", "\t")
    with pytest.raises(ValueError):
        LexicalForms(())
    with pytest.raises(ValueError):
        LexicalForms(("", "x"))


def test_lexical_forms_merge_keeps_first_spelling():
    first = make_doc(("Symptoms", []))
    doc = DocumentTopicTree("d", TopicNode(id=0, label=LexicalForms.of("Signs", "SYMPTOMS")), DocumentMetadata())
    composite = build_composite(CorpusSet(docs=[first, doc], origin="mem"), 0.5)
    assert composite.root.label.forms == ("Symptoms", "Signs")


def test_walk_is_preorder():
    root = make_node(("r", [("a", ["a1", "a2"]), "b"]))
    assert [n.label.canonical for n in walk(root)] == ["r", "a", "a1", "a2", "b"]
    assert [d for _, d in walk_depth(root)] == [0, 1, 2, 2, 1]


def test_node_ids_are_unique_preorder_indices():
    root = make_node(("r", [("a", ["a1"]), "b"]))
    assert [n.id for n in walk(root)] == [0, 1, 2, 3]
    assert sorted(node_map(root)) == [0, 1, 2, 3]


def test_node_map_rejects_duplicate_ids():
    root = make_node(("r", ["a"]))
    root.children[0].id = 0
    with pytest.raises(ValueError):
        node_map(root)
    with pytest.raises(ValueError):
        DocumentIndex(root)


def test_display_title_prefers_metadata_then_root():
    doc = make_doc(("Root label", []), doc_id="x.md", title="Nice title")
    assert doc.display_title() == "Nice title"
    doc = make_doc(("Root label", []), doc_id="x.md")
    assert doc.display_title() == "Root label"

