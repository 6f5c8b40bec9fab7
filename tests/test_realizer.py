from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicsift import (
    CategoryPlan,
    Description,
    DocumentCategory,
    HasFeature,
    HasTopics,
    LexiconError,
    LexiconGapError,
    SetElements,
    SummaryPlan,
    default_lexicon,
    lexicalize,
    load_lexicon,
    realize_plan,
    realize_summary,
    refer_to_set,
    save_lexicon,
)
from topicsift.lexicon import OVERVIEW_EXEMPLAR, Lexicon, Pattern
from topicsift.realizer import (
    NO_MATCH_NOTICE,
    Enumeration,
    Exemplar,
    OrdinalList,
    RangeRef,
    SentencePlan,
    build_sentence_plans,
    render_members,
    render_subset,
)

# seed 1 draws (pattern 0, description 0) from two-way choices; see the
# determinism tests below for why pinning a seed is sound
FIG8_SEED = 1


def titles(n):
    return [f"Guide {index:02d}" for index in range(1, n + 1)]


# --- referring expressions -------------------------------------------------------

@pytest.mark.parametrize("count", range(1, 11))
def test_enumeration_exemplar_threshold(count):
    expr = refer_to_set(titles(count), limit=5)
    if count <= 5:
        assert isinstance(expr, Enumeration)
        assert expr.titles == tuple(titles(count))
    else:
        assert isinstance(expr, Exemplar)
        assert expr.count == count
        assert expr.sample == "Guide 01"


def test_two_member_enumeration_renders_like_a_file_list():
    expr = refer_to_set(["The AMA guide", "CU Guide"], limit=5)
    assert render_members(expr) == "files (The AMA guide and CU Guide)"


def test_single_member_uses_singular_noun():
    assert render_members(refer_to_set(["Only doc"], limit=5)) == "file (Only doc)"


def test_three_member_enumeration_uses_serial_join():
    assert render_members(refer_to_set(["A", "B", "C"], limit=5)) == "files (A, B and C)"


def test_contiguous_prefix_subset_is_a_range():
    members = titles(6)
    expr = refer_to_set(members[:5], limit=5, within=members)
    assert expr == RangeRef(start=1, stop=5, total=6)
    assert render_subset(expr) == "The first five documents"


def test_whole_set_subset_reads_as_all():
    members = titles(3)
    expr = refer_to_set(members, limit=5, within=members)
    assert render_subset(expr) == "All three documents"


def test_mid_range_subset():
    members = titles(5)
    expr = refer_to_set(members[1:4], limit=5, within=members)
    assert render_subset(expr) == "The second through fourth documents"


def test_scattered_subset_is_an_ordinal_list():
    members = titles(6)
    expr = refer_to_set([members[0], members[2], members[4]], limit=5, within=members)
    assert expr == OrdinalList(positions=(1, 3, 5), total=6)
    assert render_subset(expr) == "The first, third and fifth documents"


def test_singleton_subset():
    members = titles(4)
    assert render_subset(refer_to_set([members[2]], limit=5, within=members)) == "The third document"


def test_refer_to_set_validates_input():
    with pytest.raises(ValueError):
        refer_to_set([], limit=5)
    with pytest.raises(ValueError):
        refer_to_set(["a"], limit=0)
    with pytest.raises(ValueError):
        refer_to_set(["stranger"], limit=5, within=["a", "b"])


# --- lexicalization -----------------------------------------------------------------

def test_exemplar_sentence_for_a_large_deep_category():
    plan = SentencePlan(
        relation=OVERVIEW_EXEMPLAR,
        category=DocumentCategory.DEEP,
        slots={"QUERY": "angina", "COUNT": "23", "EXEMPLAR": "the AMA Guide to Angina"},
        counts={"members": 23, "description": 1},
    )
    text = lexicalize(plan, default_lexicon(), FIG8_SEED)
    assert text == (
        "There are 23 documents (such as the AMA Guide to Angina) "
        "that have detailed information on a particular subtopic of angina."
    )


def _atypical_plan():
    return CategoryPlan(
        category=DocumentCategory.ATYPICAL,
        messages=[
            Description(category=DocumentCategory.ATYPICAL),
            SetElements(category=DocumentCategory.ATYPICAL, members=("ama", "cu")),
            HasTopics(category=DocumentCategory.ATYPICAL, topics=("definition", "what are the risks?")),
        ],
    )


def test_fused_obligatory_sentence_for_the_atypical_category():
    plans = build_sentence_plans(
        _atypical_plan(), query="angina", titles={"ama": "The AMA guide", "cu": "CU Guide"}
    )
    text = lexicalize(plans[0], default_lexicon(), FIG8_SEED)
    assert text == (
        "More information on additional topics which are not included in the extract "
        "is available in the files (The AMA guide and CU Guide)."
    )
    assert plans[0].chosen_pattern == "available-in"
    assert plans[0].chosen_description == 0


def test_topic_sentence_keeps_question_mark():
    plans = build_sentence_plans(
        _atypical_plan(), query="angina", titles={"ama": "The AMA guide", "cu": "CU Guide"}
    )
    text = lexicalize(plans[1], default_lexicon(), FIG8_SEED)
    assert text == "Topics include definition and what are the risks?"


def test_shared_feature_sentence_matches_the_range_phrase():
    members = tuple(f"d{i}.md" for i in range(1, 7))
    plan = CategoryPlan(
        category=DocumentCategory.SPECIALIZED,
        messages=[
            Description(category=DocumentCategory.SPECIALIZED),
            SetElements(category=DocumentCategory.SPECIALIZED, members=members),
            HasFeature(
                category=DocumentCategory.SPECIALIZED,
                kind="content_types",
                values=("figures", "tables"),
                members=members[:5],
            ),
        ],
    )
    plans = build_sentence_plans(plan, query="angina", titles={})
    text = lexicalize(plans[1], default_lexicon(), FIG8_SEED)
    assert text == "The first five documents contain figures and tables as well."


def test_number_agreement_with_a_single_member():
    plan = CategoryPlan(
        category=DocumentCategory.PROTOTYPICAL,
        messages=[
            Description(category=DocumentCategory.PROTOTYPICAL),
            SetElements(category=DocumentCategory.PROTOTYPICAL, members=("one",)),
        ],
    )
    sentence = build_sentence_plans(plan, query="angina", titles={"one": "Angina overview"})[0]
    text = lexicalize(sentence, default_lexicon(), 0)  # seed 0 picks the member-subject pattern
    assert sentence.chosen_pattern == "files-offer"
    assert text.startswith("The file (Angina overview) offers ")


def test_lexicalize_is_deterministic():
    plan = _atypical_plan()
    first = realize_summary(SummaryPlan(categories=[plan], query="angina"), default_lexicon(), 7)
    second = realize_summary(SummaryPlan(categories=[plan], query="angina"), default_lexicon(), 7)
    assert first == second


def test_different_seeds_can_vary_wording():
    plan = SummaryPlan(categories=[_atypical_plan()], query="angina")
    outputs = {realize_summary(plan, default_lexicon(), seed) for seed in range(8)}
    assert len(outputs) > 1


# --- lexicon gaps and slot safety ----------------------------------------------------

def test_missing_description_names_the_category():
    lexicon = default_lexicon()
    del lexicon.descriptions["deep"]
    plan = SentencePlan(
        relation=OVERVIEW_EXEMPLAR,
        category=DocumentCategory.DEEP,
        slots={"QUERY": "q", "COUNT": "7", "EXEMPLAR": "x"},
        counts={"members": 7},
    )
    with pytest.raises(LexiconGapError, match="deep"):
        lexicalize(plan, lexicon, 0)


def test_missing_relation_names_the_relation():
    lexicon = default_lexicon()
    del lexicon.patterns["sample_topics"]
    plans = build_sentence_plans(_atypical_plan(), query="q", titles={})
    with pytest.raises(LexiconGapError, match="sample_topics"):
        lexicalize(plans[1], lexicon, 0)


def test_unbound_slot_is_reported():
    lexicon = default_lexicon()
    lexicon.patterns["sample_topics"] = [Pattern(id="broken", text="Topics include {NO_SUCH_SLOT}.")]
    plans = build_sentence_plans(_atypical_plan(), query="q", titles={})
    with pytest.raises(LexiconGapError, match="NO_SUCH_SLOT"):
        lexicalize(plans[1], lexicon, 0)


def test_no_dangling_slots_in_realized_summaries():
    plan = SummaryPlan(categories=[_atypical_plan()], query="angina")
    for seed in range(12):
        text = realize_summary(plan, default_lexicon(), seed, titles={"ama": "A", "cu": "B"})
        assert not re.search(r"\{[A-Z_]+\}", text)


def test_extract_reference_requires_the_flag():
    plan = CategoryPlan(
        category=DocumentCategory.PROTOTYPICAL,
        messages=[
            Description(category=DocumentCategory.PROTOTYPICAL),
            SetElements(category=DocumentCategory.PROTOTYPICAL, members=("a",)),
        ],
    )
    summary_plan = SummaryPlan(categories=[plan], query="angina")
    lexicon = default_lexicon()
    for seed in range(40):
        text = realize_summary(summary_plan, lexicon, seed, extract_exists=False)
        assert "extract above" not in text
    seen_with_flag = any(
        "extract above" in realize_summary(summary_plan, lexicon, seed, extract_exists=True)
        for seed in range(40)
    )
    assert seen_with_flag


# --- summary assembly ----------------------------------------------------------------

def test_empty_plan_yields_the_fixed_notice():
    assert realize_summary(SummaryPlan(categories=[], query="angina"), default_lexicon(), 0) == NO_MATCH_NOTICE


def test_one_bullet_per_category_in_plan_order():
    plans = [
        CategoryPlan(
            category=category,
            messages=[Description(category=category), SetElements(category=category, members=(f"{category.value}.md",))],
        )
        for category in (DocumentCategory.PROTOTYPICAL, DocumentCategory.ATYPICAL, DocumentCategory.DEEP)
    ]
    realized = realize_plan(SummaryPlan(categories=plans, query="angina"), default_lexicon(), 0)
    assert [r.plan.category for r in realized] == [p.category for p in plans]
    text = realize_summary(SummaryPlan(categories=plans, query="angina"), default_lexicon(), 0)
    assert len(text.splitlines()) == 3
    assert all(line.startswith("- ") for line in text.splitlines())


def test_every_member_title_appears_exactly_once():
    plan = _atypical_plan()
    text = realize_summary(
        SummaryPlan(categories=[plan], query="angina"),
        default_lexicon(),
        3,
        titles={"ama": "The AMA guide", "cu": "CU Guide"},
    )
    assert text.count("The AMA guide") == 1
    assert text.count("CU Guide") == 1


def test_counts_in_exemplar_mode_match_membership():
    members = tuple(f"m{i}" for i in range(8))
    plan = CategoryPlan(
        category=DocumentCategory.DEEP,
        messages=[
            Description(category=DocumentCategory.DEEP),
            SetElements(category=DocumentCategory.DEEP, members=members),
        ],
    )
    for seed in range(6):
        text = realize_summary(SummaryPlan(categories=[plan], query="angina"), default_lexicon(), seed)
        assert "8 documents" in text


# --- lexicon files --------------------------------------------------------------------

def test_lexicon_round_trip(tmp_path):
    lexicon = default_lexicon()
    path = tmp_path / "lexicon.json"
    save_lexicon(lexicon, path)
    assert load_lexicon(path) == lexicon


def test_lexicon_rejects_bad_schema(tmp_path):
    path = tmp_path / "lexicon.json"
    path.write_text('{"version": "9"}', encoding="utf-8")
    from topicsift import LexiconError

    with pytest.raises(LexiconError):
        load_lexicon(path)


_SAVED_LEXICON_MARKER = "\x00mutation\x00"


def _paths(value, path=()):
    """Every path to a value in a decoded JSON document, the root first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


json_values = st.one_of(
    st.sampled_from([None, True, 0, -1, 1.5, "", "x", [], {}, ["a"], ["a", "b", "c"], [1, 2], {"id": 1}]),
    st.text(max_size=5),
)
deep_text = st.builds(
    lambda bracket, depth: ("[" * depth + "]" * depth) if bracket == "[" else ('{"a": ' * depth + "1" + "}" * depth),
    st.sampled_from("[{"),
    st.one_of(st.integers(1, 1200), st.sampled_from([5000, 200_000])),
)


@st.composite
def mutated_lexicons(draw, saved: str):
    """The saved default lexicon truncated, or with one value swapped for
    another type or for deeply nested arrays or objects."""
    kind = draw(st.sampled_from(["truncate", "swap", "nest"]))
    data = saved.encode("utf-8")
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    payload = json.loads(saved)
    path = draw(st.sampled_from(list(_paths(payload))))
    replacement = json.dumps(draw(json_values)) if kind == "swap" else draw(deep_text)
    if not path:
        return replacement.encode("utf-8")
    holder = payload
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = _SAVED_LEXICON_MARKER
    return json.dumps(payload).replace(json.dumps(_SAVED_LEXICON_MARKER), replacement).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_lexicon_files_raise_only_lexicon_errors(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("lexicon")
    saved = directory / "saved.json"
    save_lexicon(default_lexicon(), saved)
    mutated = directory / "mutated.json"
    mutated.write_bytes(data.draw(mutated_lexicons(saved.read_text(encoding="utf-8"))))
    try:
        lexicon = load_lexicon(mutated)
    except LexiconError:
        return
    assert isinstance(lexicon, Lexicon)


def test_feature_bullet_second_sentence_is_the_range_form():
    """Six-member category whose first five share figures+tables: the bullet's
    second sentence is the compact range phrase."""
    members = tuple(f"d{i}.md" for i in range(1, 7))
    plan = CategoryPlan(
        category=DocumentCategory.SPECIALIZED,
        messages=[
            Description(category=DocumentCategory.SPECIALIZED),
            SetElements(category=DocumentCategory.SPECIALIZED, members=members),
            HasFeature(
                category=DocumentCategory.SPECIALIZED,
                kind="content_types",
                values=("figures", "tables"),
                members=members[:5],
            ),
        ],
    )
    for seed in range(6):
        realized = realize_plan(SummaryPlan(categories=[plan], query="angina"), default_lexicon(), seed)
        assert len(realized[0].texts) == 2
        assert realized[0].texts[1].startswith("The first five documents")
        assert "figures and tables" in realized[0].texts[1]
