from __future__ import annotations

import random

import pytest

from topicsift import (
    CompositeTopicTree,
    CorpusSet,
    TopicType,
    TypingParams,
    UnknownNodeError,
    align_tree,
    build_composite,
    map_query,
    type_document,
)
from topicsift.topic_typing import assign_types

from conftest import make_doc, make_norm, norm_node


def corpus_of(*docs):
    return CorpusSet(docs=list(docs), origin="mem")


def by_label(doc):
    return {label: node_id for node_id, label in enumerate(doc.labels)}


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


@pytest.mark.parametrize("query, expected", [
    ("drug", 1), ("signs", 1), ("symptoms", 1), ("surgery", 3), ("laser surgery", 4), ("gardening", None),
])
def test_query_over_a_norm_scores_every_token_set_of_a_label(query, expected):
    """Over a norm only the root and the nodes sharing a token with the
    query are scored, a node through any of its labels' token sets: node 1
    shares "drug" only through its middle spelling."""
    signs = {**norm_node(1, "Signs", 0.0), "forms": ["Signs", "Drug signs", "Symptoms"]}
    surgery = norm_node(3, "Surgery", 0.5, norm_node(4, "Laser surgery", 0.0))
    norm = make_norm(norm_node(0, "Disease", 0.0, signs, norm_node(2, "Treatment", 0.25), surgery))
    assert map_query(query, norm, tau=0.3) == expected


@pytest.mark.parametrize("query, expected", [("drug therapy", 9), ("laser", 6), ("therapy", 3)])
def test_query_over_a_norm_breaks_ties_in_pre_order(query, expected):
    """Equal scores at equal depth go to the node first in pre-order, whose
    id is the larger here: node 9, under the root's first child, before
    node 8, first under the second child; node 6, placed first by its
    position, before node 5; node 3 at depth 1 before the deeper nodes."""
    care = norm_node(1, "Care", 0.0, norm_node(7, "Other", 0.0), norm_node(9, "Drug therapy", 0.5))
    tests = norm_node(
        2, "Tests", 0.5, norm_node(8, "Drug therapy", 0.0), norm_node(5, "Laser", 0.75), norm_node(6, "Laser", 0.25)
    )
    norm = make_norm(norm_node(0, "Disease", 0.0, care, tests, norm_node(3, "Therapy options", 1.0)))
    assert map_query(query, norm, tau=0.3) == expected


def test_empty_query_rejected():
    doc = make_doc(("Disease", []))
    with pytest.raises(ValueError):
        map_query("   ", doc, tau=0.3)


# --- regions (a topic is relevant exactly when it is typical or rare) -----------

RELEVANT = {TopicType.TYPICAL, TopicType.RARE}


def _norm_with_typicalities() -> CompositeTopicTree:
    symptoms = norm_node(1, "Symptoms", 0.0, support=19)
    return make_norm(norm_node(0, "Disease", 0.0, symptoms, support=20), doc_count=20)


def types_of(doc, query_node, composite=None, **params):
    """assign_types under TypingParams(**params), against the given norm or
    the two-node one above."""
    composite = composite if composite is not None else _norm_with_typicalities()
    alignment = align_tree(doc, composite, 0.5)
    return dict(enumerate(assign_types(doc, composite, alignment, "query", query_node, TypingParams(**params)).types))


def test_query_at_root_with_large_k_makes_everything_relevant():
    doc = make_doc(("Root", [("A", [("B", ["C"])]), "D"]))
    types = types_of(doc, 0, k=10)
    assert set(types.values()) <= RELEVANT


def test_beam_depth_two_boundaries():
    doc = make_doc(("Root", [("A", [("B", [("C", ["D"])])])]))
    labels = by_label(doc)
    types = types_of(doc, labels["A"], k=2)
    assert types[labels["A"]] in RELEVANT
    assert types[labels["B"]] in RELEVANT
    assert types[labels["C"]] in RELEVANT  # distance 2
    assert types[labels["D"]] is TopicType.INTRICATE  # distance 3
    assert types[labels["Root"]] is TopicType.IRRELEVANT


def test_parent_and_siblings_of_query_are_irrelevant():
    doc = make_doc(("Root", [("Query", ["Child"]), "Sibling"]))
    labels = by_label(doc)
    types = types_of(doc, labels["Query"], k=2)
    assert types[labels["Root"]] is TopicType.IRRELEVANT
    assert types[labels["Sibling"]] is TopicType.IRRELEVANT
    assert types[labels["Child"]] in RELEVANT


def test_unknown_query_node_rejected():
    doc = make_doc(("Root", ["A"]))
    with pytest.raises(UnknownNodeError):
        types_of(doc, 99, k=2)


def test_k_must_be_positive():
    with pytest.raises(ValueError, match="k must be >= 1"):
        TypingParams(k=0)


# --- typing ----------------------------------------------------------------------

def test_high_typicality_relevant_node_is_typical():
    composite = _norm_with_typicalities()
    doc = make_doc(("Disease", ["Symptoms"]))
    types = types_of(doc, 0, composite, k=2, alpha=0.5)
    assert types[by_label(doc)["Symptoms"]] is TopicType.TYPICAL


def test_unmatched_relevant_node_is_rare():
    composite = _norm_with_typicalities()
    doc = make_doc(("Disease", ["Prognosis"]))
    types = types_of(doc, 0, composite, k=2, alpha=0.5)
    assert types[by_label(doc)["Prognosis"]] is TopicType.RARE


def test_alpha_one_makes_095_rare_and_alpha_zero_makes_all_relevant_typical():
    composite = _norm_with_typicalities()
    doc = make_doc(("Disease", ["Symptoms", "Prognosis"]))
    strict = types_of(doc, 0, composite, k=2, alpha=1.0)
    assert strict[by_label(doc)["Symptoms"]] is TopicType.RARE
    lax = types_of(doc, 0, composite, k=2, alpha=0.0)
    assert set(lax.values()) == {TopicType.TYPICAL}


def test_type_document_partition_and_no_match_behavior():
    composite = _norm_with_typicalities()
    doc = make_doc(("Gardening", ["Roses"]))
    typed, _ = type_document(doc, composite, "angina", TypingParams())
    assert typed.query_node is None
    assert typed.types == [TopicType.IRRELEVANT] * len(doc.labels)


def test_every_node_gets_exactly_one_type():
    composite = _norm_with_typicalities()
    doc = make_doc(("Disease", [("Symptoms", ["Chest pain"]), "Prognosis"]))
    typed, _ = type_document(doc, composite, "disease", TypingParams())
    assert len(typed.types) == len(doc.labels) == 4


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
        query_node = rng.choice(doc.nodes())
        for k in (1, 2, 3):
            small = {i for i, t in types_of(doc, query_node, k=k).items() if t in RELEVANT}
            large = {i for i, t in types_of(doc, query_node, k=k + 1).items() if t in RELEVANT}
            assert small <= large


def test_typical_set_shrinks_with_alpha():
    rng = random.Random(12)
    pool = ["alpha", "beta", "gamma", "delta"]
    docs = [make_doc(_random_doc_spec(rng, rng.randint(2, 7), pool), doc_id=f"d{i}") for i in range(3)]
    composite = build_composite(corpus_of(*docs), 0.5)
    probe = make_doc(_random_doc_spec(rng, 7, pool), doc_id="probe")
    previous = None
    for alpha in (0.0, 0.3, 0.6, 0.9, 1.0):
        types = types_of(probe, 0, composite, k=3, alpha=alpha)
        typical = {i for i, t in types.items() if t is TopicType.TYPICAL}
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
