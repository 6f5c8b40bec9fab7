from __future__ import annotations

import random

import pytest

from topicsift import (
    CATEGORY_ORDER,
    Description,
    DocumentCategory,
    HasFeature,
    HasTopics,
    SetElements,
    TopicType,
    instantiate,
    plan,
)

from conftest import make_typed

RARE = TopicType.RARE
TYPICAL = TopicType.TYPICAL
INTRICATE = TopicType.INTRICATE


def members_of(category, *typed):
    return [(t, category) for t in typed]


def test_atypical_category_messages():
    """Two guides sharing two rare topics: description + members + topics."""
    ama = make_typed("ama_guide.md", [("Definition", RARE), ("What are the risks?", RARE)])
    cu = make_typed("cu_guide.md", [("Definition", RARE), ("What are the risks?", RARE)])
    cp = instantiate(DocumentCategory.ATYPICAL, members_of(DocumentCategory.ATYPICAL, ama, cu))
    assert cp.messages[0] == Description(category=DocumentCategory.ATYPICAL)
    assert cp.messages[1] == SetElements(
        category=DocumentCategory.ATYPICAL, members=("ama_guide.md", "cu_guide.md")
    )
    assert cp.messages[2] == HasTopics(
        category=DocumentCategory.ATYPICAL, topics=("definition", "what are the risks?")
    )
    assert len(cp.messages) == 3


def test_minimal_obligatory_pair():
    only = make_typed("solo.md", [("Symptoms", TYPICAL)])
    cp = instantiate(DocumentCategory.PROTOTYPICAL, members_of(DocumentCategory.PROTOTYPICAL, only))
    assert [type(m) for m in cp.messages] == [Description, SetElements]


def test_deep_category_lists_intricate_subtopics():
    doc = make_typed("deep.md", [("Bypass surgery", INTRICATE), ("Stents", INTRICATE)])
    cp = instantiate(DocumentCategory.DEEP, members_of(DocumentCategory.DEEP, doc))
    topics = [m for m in cp.messages if isinstance(m, HasTopics)]
    assert topics == [HasTopics(category=DocumentCategory.DEEP, topics=("bypass surgery", "stents"))]


def test_topic_cap_prefers_frequency_then_alphabet():
    a = make_typed("a.md", [("Zeta", RARE), ("Beta", RARE), ("Alpha", RARE)])
    b = make_typed("b.md", [("Zeta", RARE), ("Beta", RARE), ("Gamma", RARE)])
    c = make_typed("c.md", [("Zeta", RARE), ("Delta", RARE), ("Kappa", RARE)])
    cp = instantiate(DocumentCategory.ATYPICAL, members_of(DocumentCategory.ATYPICAL, a, b, c))
    topics = next(m for m in cp.messages if isinstance(m, HasTopics))
    # zeta appears in 3 docs, beta in 2, then the 1-doc topics alphabetically
    assert topics.topics == ("zeta", "beta", "alpha")


def test_duplicate_topic_in_one_document_counts_once():
    doc = make_typed("a.md", [("Beta", RARE), ("beta ", RARE), ("Alpha", RARE)])
    other = make_typed("b.md", [("Alpha", RARE)])
    cp = instantiate(DocumentCategory.ATYPICAL, members_of(DocumentCategory.ATYPICAL, doc, other))
    topics = next(m for m in cp.messages if isinstance(m, HasTopics))
    assert topics.topics == ("alpha", "beta")
    # counted per node, alpha would tie beta at 2 and come first
    doc = make_typed("a.md", [("Alpha", RARE), ("alpha", RARE)])
    others = [make_typed(f"{name}.md", [("Beta", RARE)]) for name in ("b", "c")]
    cp = instantiate(DocumentCategory.ATYPICAL, members_of(DocumentCategory.ATYPICAL, doc, *others))
    topics = next(m for m in cp.messages if isinstance(m, HasTopics))
    assert topics.topics == ("beta", "alpha")


def test_members_ordered_by_relevant_count_then_doc_id():
    rich = make_typed("z_rich.md", [("A", TYPICAL), ("B", TYPICAL), ("C", RARE)])
    poor = make_typed("a_poor.md", [("A", TYPICAL)])
    twin = make_typed("b_poor.md", [("B", TYPICAL)])
    cp = instantiate(DocumentCategory.SPECIALIZED, members_of(DocumentCategory.SPECIALIZED, poor, rich, twin))
    assert cp.members() == ("z_rich.md", "a_poor.md", "b_poor.md")


def test_shared_feature_subset_moves_to_front():
    """5 of 9 members share figures+tables; they become a contiguous prefix."""
    docs = []
    for index in range(1, 10):
        shared = index in (2, 4, 5, 7, 9)
        docs.append(
            make_typed(
                f"d{index}.md",
                [("Symptoms", TYPICAL)],
                content_types=("figures", "tables") if shared else (),
            )
        )
    cp = instantiate(DocumentCategory.SPECIALIZED, members_of(DocumentCategory.SPECIALIZED, *docs))
    feature = next(m for m in cp.messages if isinstance(m, HasFeature))
    assert feature.kind == "content_types"
    assert feature.values == ("figures", "tables")
    assert set(feature.members) == {"d2.md", "d4.md", "d5.md", "d7.md", "d9.md"}
    assert cp.members()[:5] == feature.members
    assert cp.reordered


def test_feature_groups_keep_obligatory_first():
    doc = make_typed("a.md", [("X", TYPICAL)], content_types=("figures",), special_content=("credit hours",))
    cp = instantiate(DocumentCategory.SPECIALIZED, members_of(DocumentCategory.SPECIALIZED, doc))
    kinds = [type(m) for m in cp.messages]
    assert kinds[:2] == [Description, SetElements]
    features = [m for m in cp.messages if isinstance(m, HasFeature)]
    assert [f.kind for f in features] == ["content_types", "special_content"]


def test_no_reorder_flag_when_group_is_already_a_prefix():
    a = make_typed("a.md", [("X", TYPICAL), ("Y", TYPICAL)], content_types=("figures",))
    b = make_typed("b.md", [("X", TYPICAL)])
    cp = instantiate(DocumentCategory.SPECIALIZED, members_of(DocumentCategory.SPECIALIZED, a, b))
    assert cp.members() == ("a.md", "b.md")
    assert not cp.reordered


def test_instantiate_rejects_empty_and_misfiled_members():
    with pytest.raises(ValueError):
        instantiate(DocumentCategory.ATYPICAL, [])
    stray = make_typed("x.md", [("A", TYPICAL)])
    with pytest.raises(ValueError):
        instantiate(DocumentCategory.ATYPICAL, [(stray, DocumentCategory.DEEP)])


def test_plan_keeps_fixed_category_order():
    docs = [
        (make_typed("deep.md", [("A", INTRICATE)]), DocumentCategory.DEEP),
        (make_typed("proto.md", [("A", TYPICAL)]), DocumentCategory.PROTOTYPICAL),
        (make_typed("atyp.md", [("A", RARE)]), DocumentCategory.ATYPICAL),
    ]
    sp = plan(docs)
    assert [cp.category for cp in sp.categories] == [
        DocumentCategory.PROTOTYPICAL,
        DocumentCategory.ATYPICAL,
        DocumentCategory.DEEP,
    ]
    assert sp.query == "angina"


def test_plan_subsequence_of_fixed_order():
    docs = [
        (make_typed("g.md", [("A", TYPICAL)]), DocumentCategory.GENERIC),
        (make_typed("s.md", [("A", TYPICAL)]), DocumentCategory.SPECIALIZED),
    ]
    sp = plan(docs)
    assert [cp.category for cp in sp.categories] == [DocumentCategory.SPECIALIZED, DocumentCategory.GENERIC]


def test_plan_empty_input():
    sp = plan([])
    assert sp.categories == []
    assert sp.query == ""


def test_plan_random_assignments_obey_skip_and_order_invariants():
    rng = random.Random(5)
    for _ in range(40):
        docs = [
            (make_typed(f"d{i}.md", [("A", TYPICAL)]), rng.choice(CATEGORY_ORDER))
            for i in range(rng.randint(0, 8))
        ]
        sp = plan(docs)
        produced = [cp.category for cp in sp.categories]
        wanted = {category for _, category in docs}
        # every non-empty category appears exactly once, in fixed order
        assert produced == [c for c in CATEGORY_ORDER if c in wanted]
        for cp in sp.categories:
            assert len(cp.members()) == sum(1 for _, cat in docs if cat is cp.category)


def test_plan_rejects_mixed_queries():
    docs = [
        (make_typed("a.md", [("A", TYPICAL)], query="angina"), DocumentCategory.GENERIC),
        (make_typed("b.md", [("A", TYPICAL)], query="stroke"), DocumentCategory.GENERIC),
    ]
    with pytest.raises(ValueError):
        plan(docs)


def test_plan_refuses_a_repeated_doc_id():
    """Member lists and feature groups are keyed by doc id, so a document
    given twice, as summarize(docs, ...) can be, is refused by name."""
    docs = [
        (make_typed("a.md", [("A", TYPICAL)]), DocumentCategory.GENERIC),
        (make_typed("b.md", [("A", TYPICAL)]), DocumentCategory.DEEP),
        (make_typed("a.md", [("B", TYPICAL)]), DocumentCategory.DEEP),
    ]
    with pytest.raises(ValueError, match="'a.md' appears twice"):
        plan(docs)


def test_plan_refuses_a_doc_id_repeated_within_one_category():
    docs = [
        (make_typed("a.md", [("A", TYPICAL)]), DocumentCategory.DEEP),
        (make_typed("b.md", [("A", TYPICAL)]), DocumentCategory.DEEP),
        (make_typed("b.md", [("A", TYPICAL)]), DocumentCategory.DEEP),
    ]
    with pytest.raises(ValueError, match="'b.md' appears twice"):
        plan(docs)
