from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topicsift import (
    CorpusSet,
    DocumentMetadata,
    DocumentTopicTree,
    LexicalForms,
    build_composite,
    normalize,
    parse_document,
)
from topicsift.model import LINE_BREAKS, check_line

from conftest import make_doc
from oracles import nested, node_map


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
    docs = [make_doc(("Symptoms", [])), make_doc(("Signs", [])), make_doc(("SYMPTOMS", []))]
    composite = build_composite(CorpusSet(docs=docs, origin="mem"), 0.5)
    assert composite.forms[composite.root] == ("Symptoms", "Signs")


def test_walk_is_preorder():
    """A norm's pre-order, from the root and from a node below it."""
    composite = build_composite(CorpusSet(docs=[make_doc(("r", [("a", ["a1", "a2"]), "b"]))], origin="mem"), 0.5)
    assert [n.forms[0] for n in composite.nodes()] == ["r", "a", "a1", "a2", "b"]
    assert [n.id for n in composite.nodes()] == [0, 1, 2, 3, 4]
    assert composite.preorder() == [(0, 0), (1, 1), (2, 2), (3, 2), (4, 1)]
    assert composite.preorder(1) == [(1, 0), (2, 1), (3, 1)]


def test_node_ids_are_preorder_positions():
    doc = make_doc(("r", [("a", ["a1"]), "b"]))
    assert list(doc.nodes()) == [0, 1, 2, 3]
    assert (doc.labels, doc.parents, doc.depths) == (["r", "a", "a1", "b"], [-1, 0, 1, 0], [0, 1, 2, 1])


def test_node_map_rejects_duplicate_ids():
    root = nested(make_doc(("r", ["a"])))
    root.children[0].id = 0
    with pytest.raises(ValueError):
        node_map(root)


def test_display_title_prefers_metadata_then_root():
    doc = make_doc(("Root label", []), doc_id="x.md", title="Nice title")
    assert doc.display_title() == "Nice title"
    doc = make_doc(("Root label", []), doc_id="x.md")
    assert doc.display_title() == "Root label"



@pytest.mark.parametrize(
    "labels, parents, depths",
    [
        # node 1's parent comes after it, two levels below the root
        (["A", "B", "C"], [-1, 2, 0], [0, 2, 1]),
        # the lists differ in length
        (["A", "B"], [-1, 0, 0], [0, 1, 1]),
        # the root has a parent
        (["A", "B"], [0, 0], [0, 1]),
        # node 3 is filed under node 1, not under node 2, the nearest
        # earlier node one level up
        (["A", "B", "C", "D"], [-1, 0, 0, 1], [0, 1, 1, 2]),
        # no nodes at all
        ([], [], []),
    ],
)
def test_hand_built_documents_out_of_pre_order_are_refused(labels, parents, depths):
    with pytest.raises(ValueError, match="not in pre-order") as raised:
        DocumentTopicTree("doc", labels, parents, depths, DocumentMetadata())
    assert "\n" not in str(raised.value)


def test_parsed_documents_pass_the_pre_order_check():
    """The parser builds through a constructor that skips the check; its
    lists pass it all the same."""
    doc = parse_document("# A\n## B\n#### C\n### D\n# E\n## F\n", "doc")
    rebuilt = DocumentTopicTree(doc.doc_id, doc.labels, doc.parents, doc.depths, doc.metadata)
    assert rebuilt == doc
    assert doc.parents == [-1, 0, 1, 1, 0, 4]


def test_check_line_agrees_with_a_test_per_line_break():
    """check_line asks str.splitlines whether a text breaks; the reference
    looks for each break character in turn. Both must agree on every string
    of up to three characters drawn from the breaks, a letter, a space and a
    lone surrogate."""
    def reference(text):
        if any(mark in text for mark in LINE_BREAKS):
            return "a line break"
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return "text that is not valid UTF-8"
        return None

    alphabet = LINE_BREAKS + ("a", " ", "\udcff")
    for size in range(4):
        for chars in itertools.product(alphabet, repeat=size):
            text = "".join(chars)
            fault = reference(text)
            if fault is None:
                check_line(text, "text", ValueError)
            else:
                with pytest.raises(ValueError) as caught:
                    check_line(text, "text", ValueError)
                assert str(caught.value).endswith(f" holds {fault}")
