from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topicsift import (
    CompositeNode,
    CompositeTopicTree,
    DocumentMetadata,
    DocumentTopicTree,
    LexicalForms,
    TopicNode,
    UnknownNodeError,
    align_tree,
    depth_below,
    merge,
    normalize,
    topic_count,
)
from topicsift.model import node_map, walk, walk_depth

from conftest import make_doc, make_node


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
    root = CompositeNode(id=0, label=LexicalForms.of("Symptoms"), typicality=1.0, position=0.0, support=1)
    composite = CompositeTopicTree(root=root, domain_genre="t", doc_count=1)
    doc = DocumentTopicTree("d", TopicNode(id=0, label=LexicalForms.of("Signs", "SYMPTOMS")), DocumentMetadata())
    merge(composite, doc, align_tree(doc, composite, 0.5))
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


def test_depth_below_identity_is_zero():
    root = make_node(("r", ["a"]))
    assert depth_below(root, 0, 0) == 0
    assert depth_below(root, 1, 1) == 0


def test_depth_below_three_level_chain():
    root = make_node(("r", [("a", ["b"])]))
    assert depth_below(root, 0, 2) == 2


def test_depth_below_sibling_is_absent():
    root = make_node(("r", ["a", "b"]))
    assert depth_below(root, 1, 2) is None


def test_depth_below_unknown_id():
    root = make_node(("r", ["a"]))
    with pytest.raises(UnknownNodeError):
        depth_below(root, 0, 99)
    with pytest.raises(UnknownNodeError):
        depth_below(root, 99, 0)


def test_topic_count_counts_root():
    assert topic_count(make_doc("only")) == 1
    assert topic_count(make_doc(("r", ["a", "b", "c"]))) == 4


def test_topic_count_nine_header_document():
    # desk-scale disease article: 9 section headers under the title
    doc = make_doc(
        (
            "Coronary Artery Disease",
            [
                "Definition",
                "Causes",
                ("Symptoms", ["Angina", "Shortness of breath"]),
                "Diagnosis",
                ("Treatment", ["Drug treatment", "Surgery"]),
            ],
        )
    )
    assert topic_count(doc) == 10


def test_display_title_prefers_metadata_then_root():
    doc = make_doc(("Root label", []), doc_id="x.md", title="Nice title")
    assert doc.display_title() == "Nice title"
    doc = make_doc(("Root label", []), doc_id="x.md")
    assert doc.display_title() == "Root label"


def test_depth_below_agrees_with_naive_traversal():
    import random

    from topicsift.model import walk_depth

    rng = random.Random(3)
    for _ in range(30):
        spec = "n0"
        nodes = [("n0", [])]
        tree = nodes[0]
        for index in range(1, rng.randint(2, 12)):
            node = (f"n{index}", [])
            nodes[rng.randrange(len(nodes))][1].append(node)
            nodes.append(node)
        doc = make_doc(tree)
        ids = [n.id for n in doc.nodes()]
        ancestor = rng.choice(ids)
        target = rng.choice(ids)
        subtree = {node.id: depth for node, depth in walk_depth(doc.node(ancestor))}
        assert depth_below(doc.root, ancestor, target) == subtree.get(target)
