from __future__ import annotations

import pytest

from topicsift import (
    CorpusSet,
    DocumentCategory,
    TypeDistribution,
    TypingParams,
    build_composite,
    classify,
    distribution,
    type_document,
)

from conftest import make_doc
from oracles import all_distributions, oracle_classify
from test_topic_typing import treatment_fixture


def dist(typical=0, rare=0, intricate=0, irrelevant=0, covered=0, possible=0):
    return TypeDistribution(
        typical=typical,
        rare=rare,
        intricate=intricate,
        irrelevant=irrelevant,
        covered_typical=covered,
        possible_typical=possible,
    )


# --- distribution -----------------------------------------------------------------

def test_distribution_counts_engineered_document():
    """Root + 2 relevant + a 5-node chain beyond the beam: 5/8 intricate."""
    doc = make_doc(
        ("Angina", [("Treatment", [("Surgery", [("Step one", [("Step two", [("Step three", [("Step four", ["Step five"])])])])])])]),
        doc_id="chain",
    )
    composite = build_composite(CorpusSet(docs=[make_doc(
        ("Angina", [("Treatment", [("Surgery", [("Step one", [("Step two", [("Step three", [("Step four", ["Step five"])])])])])])]),
        doc_id="ref",
    )], origin="mem"), 0.5)
    params = TypingParams()
    typed, alignment = type_document(doc, composite, "angina", params)
    d = distribution(typed, composite, alignment, params)
    assert d.intricate == 5
    assert d.total == 8
    assert d.intricate / d.total == 0.625
    assert d.typical == 3  # root, Treatment, Surgery all at typicality 1.0


def test_distribution_with_unmatched_query():
    doc = make_doc(("Gardening", ["Roses"]))
    composite = build_composite(CorpusSet(docs=[make_doc(("Disease", ["Symptoms"]))], origin="mem"), 0.5)
    params = TypingParams()
    typed, alignment = type_document(doc, composite, "angina", params)
    d = distribution(typed, composite, alignment, params)
    assert d.typical == 0 and d.rare == 0
    assert d.covered_typical == 0
    assert d.irrelevant == d.total == 2


def test_distribution_validation():
    with pytest.raises(ValueError):
        dist(typical=1, covered=2, possible=1)


# --- classification ----------------------------------------------------------------

def test_prototypical_needs_both_ratios():
    # typical 6/10 > 0.5, coverage 4/6 > 0.5 (cross-checked against the oracle)
    d = dist(typical=6, irrelevant=4, covered=4, possible=6)
    assert classify(d) is DocumentCategory.PROTOTYPICAL
    assert oracle_classify(6, 0, 0, 4, 4, 6) == "prototypical"


def test_rare_majority_is_atypical():
    d = dist(typical=2, rare=7, intricate=1, covered=0, possible=0)
    assert classify(d) is DocumentCategory.ATYPICAL


def test_flat_distribution_is_generic():
    d = dist(typical=3, rare=3, intricate=3, irrelevant=3, covered=0, possible=0)
    assert classify(d) is DocumentCategory.GENERIC


def test_exact_half_is_not_a_majority():
    d = dist(typical=5, rare=5, covered=0, possible=0)
    assert classify(d) is DocumentCategory.GENERIC


def test_empty_norm_makes_no_coverage_claim():
    # with possible = 0 the coverage clause must read as 0.0, not vacuously 1.0
    d = dist(typical=3, covered=0, possible=0)
    assert classify(d) is DocumentCategory.SPECIALIZED


def test_full_coverage_without_typical_majority_is_comprehensive():
    d = dist(typical=3, irrelevant=4, covered=5, possible=6)
    assert classify(d) is DocumentCategory.COMPREHENSIVE


def test_matches_oracle_on_small_exhaustive_sweep():
    for typical, rare, intricate, irrelevant, covered, possible in all_distributions(8, 4):
        d = dist(typical=typical, rare=rare, intricate=intricate, irrelevant=irrelevant, covered=covered, possible=possible)
        assert classify(d).value == oracle_classify(typical, rare, intricate, irrelevant, covered, possible)


def test_prototypical_rows_never_fall_through():
    for typical, rare, intricate, irrelevant, covered, possible in all_distributions(8, 4):
        if oracle_classify(typical, rare, intricate, irrelevant, covered, possible) == "prototypical":
            d = dist(typical=typical, rare=rare, intricate=intricate, irrelevant=irrelevant, covered=covered, possible=possible)
            assert classify(d) is DocumentCategory.PROTOTYPICAL


# --- query dependence -----------------------------------------------------------------

def test_category_shifts_with_query():
    doc, composite = treatment_fixture()
    params = TypingParams()
    categories = {}
    for query in ("treatment", "symptoms"):
        typed, alignment = type_document(doc, composite, query, params)
        categories[query] = classify(distribution(typed, composite, alignment, params))
    assert categories["treatment"] is DocumentCategory.PROTOTYPICAL
    assert categories["symptoms"] is DocumentCategory.IRRELEVANT
    assert categories["treatment"] is not categories["symptoms"]


def test_fully_typical_document_covers_the_whole_norm():
    """All nodes typical and every possible typical topic covered."""
    spec = ("Disease", ["Symptoms", "Treatment"])
    composite = build_composite(CorpusSet(docs=[make_doc(spec)], origin="mem"), 0.5)
    doc = make_doc(spec, doc_id="copy")
    params = TypingParams()
    typed, alignment = type_document(doc, composite, "disease", params)
    d = distribution(typed, composite, alignment, params)
    assert d.typical == d.total == 3
    assert d.covered_typical == d.possible_typical == 3
    assert classify(d) is DocumentCategory.PROTOTYPICAL
