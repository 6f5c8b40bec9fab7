from __future__ import annotations

import random

import pytest

from topicsift import (
    CompositeNode,
    CompositeTopicTree,
    CorpusSet,
    LexicalForms,
    TopicType,
    TypingParams,
    UnknownNodeError,
    align_tree,
    build_composite,
    map_query,
    type_document,
)
from topicsift.topic_typing import Region, assign_regions, assign_types

from conftest import make_doc
from oracles import node_map


def corpus_of(*docs):
    return CorpusSet(docs=list(docs), origin="mem")


def by_label(doc):
    return {n.label.canonical: n.id for n in doc.nodes()}


# --- query mapping -------------------------------------------------------------

def test_query_maps_to_exact_topic():
    doc = make_doc(("Coronary artery disease", ["Symptoms", ("Treatment", ["Angina"])]))
    assert map_query("Angina", doc, tau=0.3) == by_label(doc)["Angina"]


def test_query_without_overlap_is_unmatched():
    doc = make_doc(("Gardening", ["Roses", "Tulips"]))
    assert map_query("angina", doc, tau=0.3) is None


def test_query_at_similarity_floor_still_matches():
    doc = make_doc(("Root", ["one two three four five six seven eight nine angina"]))
    # similarity 1/10 = 0.1; at tau exactly equal it still matches
    assert map_query("angina", doc, tau=0.1) is not None
    assert map_query("angina", doc, tau=0.11) is None


def test_tie_breaks_to_shallower_node():
    doc = make_doc(("Disease", [("Treatment options", ["Drug treatment"])]))
    labels = by_label(doc)
    # both nodes score 0.5 against "treatment"; depth 1 beats depth 2
    assert map_query("treatment", doc, tau=0.3) == labels["Treatment options"]


def test_tie_breaks_to_earlier_preorder():
    doc = make_doc(("Disease", ["Drug treatment", "Laser treatment"]))
    labels = by_label(doc)
    assert map_query("treatment", doc, tau=0.3) == labels["Drug treatment"]


def test_empty_query_rejected():
    doc = make_doc(("Disease", []))
    with pytest.raises(ValueError):
        map_query("   ", doc, tau=0.3)


# --- regions ---------------------------------------------------------------------

def test_query_at_root_with_large_k_makes_everything_relevant():
    doc = make_doc(("Root", [("A", [("B", ["C"])]), "D"]))
    regions = assign_regions(doc, doc.root.id, k=10)
    assert set(regions.values()) == {Region.RELEVANT}


def test_beam_depth_two_boundaries():
    doc = make_doc(("Root", [("A", [("B", [("C", ["D"])])])]))
    labels = by_label(doc)
    regions = assign_regions(doc, labels["A"], k=2)
    assert regions[labels["A"]] is Region.RELEVANT
    assert regions[labels["B"]] is Region.RELEVANT
    assert regions[labels["C"]] is Region.RELEVANT  # distance 2
    assert regions[labels["D"]] is Region.INTRICATE  # distance 3
    assert regions[labels["Root"]] is Region.IRRELEVANT


def test_parent_and_siblings_of_query_are_irrelevant():
    doc = make_doc(("Root", [("Query", ["Child"]), "Sibling"]))
    labels = by_label(doc)
    regions = assign_regions(doc, labels["Query"], k=2)
    assert regions[labels["Root"]] is Region.IRRELEVANT
    assert regions[labels["Sibling"]] is Region.IRRELEVANT
    assert regions[labels["Child"]] is Region.RELEVANT


def test_unknown_query_node_rejected():
    doc = make_doc(("Root", ["A"]))
    with pytest.raises(UnknownNodeError):
        assign_regions(doc, 99, k=2)


def test_k_must_be_positive():
    doc = make_doc(("Root", ["A"]))
    with pytest.raises(ValueError):
        assign_regions(doc, doc.root.id, k=0)


# --- typing ----------------------------------------------------------------------

def _norm_with_typicalities() -> CompositeTopicTree:
    symptoms = CompositeNode(id=1, label=LexicalForms.of("Symptoms"), typicality=0.95, position=0.0, support=19)
    root = CompositeNode(id=0, label=LexicalForms.of("Disease"), typicality=1.0, position=0.0, support=20, children=[symptoms])
    return CompositeTopicTree(root=root, domain_genre="t", doc_count=20)


def test_high_typicality_relevant_node_is_typical():
    composite = _norm_with_typicalities()
    doc = make_doc(("Disease", ["Symptoms"]))
    alignment = align_tree(doc, composite, 0.5)
    regions = assign_regions(doc, doc.root.id, k=2)
    typed = assign_types(doc, regions, composite, alignment, alpha=0.5)
    assert typed.types[by_label(doc)["Symptoms"]] is TopicType.TYPICAL


def test_unmatched_relevant_node_is_rare():
    composite = _norm_with_typicalities()
    doc = make_doc(("Disease", ["Prognosis"]))
    alignment = align_tree(doc, composite, 0.5)
    regions = assign_regions(doc, doc.root.id, k=2)
    typed = assign_types(doc, regions, composite, alignment, alpha=0.5)
    assert typed.types[by_label(doc)["Prognosis"]] is TopicType.RARE


def test_alpha_one_makes_095_rare_and_alpha_zero_makes_all_relevant_typical():
    composite = _norm_with_typicalities()
    doc = make_doc(("Disease", ["Symptoms", "Prognosis"]))
    alignment = align_tree(doc, composite, 0.5)
    regions = assign_regions(doc, doc.root.id, k=2)
    strict = assign_types(doc, regions, composite, alignment, alpha=1.0)
    assert strict.types[by_label(doc)["Symptoms"]] is TopicType.RARE
    lax = assign_types(doc, regions, composite, alignment, alpha=0.0)
    assert set(lax.types.values()) == {TopicType.TYPICAL}


def test_type_document_partition_and_no_match_behavior():
    composite = _norm_with_typicalities()
    doc = make_doc(("Gardening", ["Roses"]))
    typed, _ = type_document(doc, composite, "angina", TypingParams())
    assert typed.query_node is None
    assert set(typed.types.values()) == {TopicType.IRRELEVANT}
    assert set(typed.types) == set(node_map(doc.root))


def test_every_node_gets_exactly_one_type():
    composite = _norm_with_typicalities()
    doc = make_doc(("Disease", [("Symptoms", ["Chest pain"]), "Prognosis"]))
    typed, _ = type_document(doc, composite, "disease", TypingParams())
    assert set(typed.types) == set(node_map(doc.root))


# --- monotonicity (spot checks; the 200-tree sweep lives in acceptance) ---------

def _random_doc_spec(rng, size, pool):
    spec = [pool[rng.randrange(len(pool))] for _ in range(size)]
    # chain-with-branches: attach each to a random earlier position
    tree = (spec[0], [])
    nodes = [tree]
    for label in spec[1:]:
        node = (label, [])
        parent = nodes[rng.randrange(len(nodes))]
        parent[1].append(node)
        nodes.append(node)
    return tree


def test_relevant_set_grows_with_k():
    rng = random.Random(11)
    pool = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for _ in range(25):
        doc = make_doc(_random_doc_spec(rng, rng.randint(2, 9), pool))
        query_node = rng.choice(doc.nodes()).id
        for k in (1, 2, 3):
            small = {i for i, r in assign_regions(doc, query_node, k).items() if r is Region.RELEVANT}
            large = {i for i, r in assign_regions(doc, query_node, k + 1).items() if r is Region.RELEVANT}
            assert small <= large


def test_typical_set_shrinks_with_alpha():
    rng = random.Random(12)
    pool = ["alpha", "beta", "gamma", "delta"]
    docs = [make_doc(_random_doc_spec(rng, rng.randint(2, 7), pool), doc_id=f"d{i}") for i in range(3)]
    composite = build_composite(corpus_of(*docs), 0.5)
    probe = make_doc(_random_doc_spec(rng, 7, pool), doc_id="probe")
    alignment = align_tree(probe, composite, 0.5)
    regions = assign_regions(probe, probe.root.id, k=3)
    previous = None
    for alpha in (0.0, 0.3, 0.6, 0.9, 1.0):
        typed = assign_types(probe, regions, composite, alignment, alpha=alpha)
        typical = {i for i, t in typed.types.items() if t is TopicType.TYPICAL}
        if previous is not None:
            assert typical <= previous
        previous = typical


# --- query sensitivity ------------------------------------------------------------

def treatment_fixture():
    """A document dominated by treatment subtopics, and a norm that knows
    both the treatment subtree and a fleshed-out symptoms subtree."""
    ref_spec = (
        "Heart disease",
        [
            ("Symptoms", ["Chest pain", "Sweating"]),
            (
                "Treatment",
                [
                    ("Drug treatment", ["Beta blockers", "Nitrates"]),
                    ("Surgery", ["Bypass grafting", "Stents"]),
                ],
            ),
        ],
    )
    refs = [make_doc(ref_spec, doc_id=f"ref{i}") for i in range(4)]
    composite = build_composite(corpus_of(*refs), 0.5)
    doc = make_doc(
        (
            "Heart disease guide",
            [
                "Symptoms",
                (
                    "Treatment",
                    [
                        ("Drug treatment", ["Beta blockers", "Nitrates"]),
                        ("Surgery", ["Bypass grafting", "Stents"]),
                    ],
                ),
            ],
        ),
        doc_id="guide",
    )
    return doc, composite


def test_treatment_heavy_document_is_query_sensitive():
    doc, composite = treatment_fixture()
    params = TypingParams()
    under_treatment, _ = type_document(doc, composite, "treatment", params)
    under_symptoms, _ = type_document(doc, composite, "symptoms", params)
    assert under_treatment.relevant_count() > under_symptoms.relevant_count()
    assert under_treatment.relevant_count() == 7
    assert under_symptoms.relevant_count() == 1
