"""The composite index, the per-document index and the fold against the
plain reference versions in oracles.py: label folding, label similarity,
alignment, query mapping, document typing, header parsing, the
possible-typical set, the built norm and the rendered trace must agree
exactly, also after folds change the norm."""
from __future__ import annotations

import contextlib
import io
import pathlib
import random
import re
import string
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from topicsift import (
    Alignment,
    CorpusSet,
    DocumentMetadata,
    DocumentTopicTree,
    TopicType,
    TypeDistribution,
    TypedTree,
    TypingParams,
    UnknownNodeError,
    align_tree,
    assign_types,
    build_composite,
    cli,
    default_lexicon,
    distribution,
    load_composite,
    map_query,
    parse_document,
    possible_typical_topics,
    render_trace,
    save_composite,
    summarize,
    summary_lines,
    type_document,
)
from topicsift.composite import _fold_document
from topicsift.model import (
    CompositeIndex,
    best_jaccard,
    fold,
    normalize,
    token_sets_of,
)

from conftest import make_doc, make_norm, norm_node
from oracles import (
    oracle_align_tree,
    oracle_build_composite,
    oracle_composite_text,
    oracle_distribution_counts,
    oracle_fold,
    oracle_label_similarity,
    oracle_load_composite,
    oracle_map_query,
    oracle_merge,
    oracle_merge_forms,
    oracle_normalize,
    oracle_parse_document,
    oracle_possible_typical,
    oracle_trace_lines,
    oracle_type_document,
    nested,
    parent_map,
    sibling_rank_map,
    walk,
    walk_depth,
)

# 1e-9 is the smallest kind of positive threshold: a header that shares no
# token with a candidate scores 0 and cannot match it, but one that shares
# a single token with it can
THRESHOLDS = (0.0, 1e-9, 0.3, 0.5, 1.0)

# a small vocabulary so labels often share tokens; "??" and "..." normalize
# to "" and must never match anything
tokens = st.sampled_from(["angina", "drug", "treatment", "risk", "factors", "surgery", "signs"])
words = st.lists(tokens, min_size=1, max_size=3).map(" ".join)
surface = st.one_of(
    words,
    words.map(str.upper),
    words.map(lambda w: w + ":"),
    words.map(lambda w: " ".join(reversed(w.split()))),
    words.map(lambda w: f"{w} {w}"),
    st.sampled_from(["??", "...", "Risk  factors!", "factors risk"]),
)
labels = st.lists(surface, min_size=1, max_size=3).map(lambda forms: oracle_merge_forms(*forms))


@st.composite
def documents(draw, doc_id="doc", node_labels=surface):
    """A document of 1..12 nodes in pre-order, random shape, labeled with
    one spelling each, as parsed documents are: a root label and one list
    of (depth, label) pairs, each depth cut to at most one below the node
    before it."""
    root_label, below = draw(st.tuples(node_labels, st.lists(st.tuples(st.integers(1, 11), node_labels), max_size=11)))
    labels, parents, depths = [root_label], [-1], [0]
    path = [0]  # the ids from the root down to the last node
    for node_id, (depth, label) in enumerate(below, 1):
        depth = min(depth, len(path))
        del path[depth:]
        labels.append(label)
        parents.append(path[-1])
        depths.append(depth)
        path.append(node_id)
    return DocumentTopicTree(doc_id, labels, parents, depths, DocumentMetadata())


corpora = st.lists(documents(), min_size=1, max_size=5)
# probe headers may share no token with any norm label: not with the root,
# which holds one token set per distinct document title, nor with any other
# anchor or its children
foreign = st.sampled_from(["gardening", "Gardening tips:", "weather report"])
probe_documents = documents("probe", node_labels=surface | foreign)


def _fold(docs, threshold):
    return build_composite(CorpusSet(docs=docs, origin="mem"), threshold)


def _fold_in(composite, doc, threshold):
    """Align one more document against the norm and fold it in, as a build
    does."""
    token_sets = doc.token_sets(composite.index().label_sets)
    _fold_document(composite, align_tree(doc, composite, threshold, token_sets=token_sets).pairs, doc, token_sets)


def _saved(composite, directory) -> bytes:
    path = directory / "composite.json"
    save_composite(composite, path)
    return path.read_bytes()


def _oracle_saved(norm) -> bytes:
    """The bytes the oracle writer writes for an oracle norm."""
    return oracle_composite_text(norm).encode("utf-8")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("saved")


def _index_contents(index: CompositeIndex):
    """What a fresh index over the same norm must hold too; the state only
    folds fill is checked against the norm here, and so is what the
    exact-holder lookup relies on: every token of every set a child holds
    lists that child, once, under its parent."""
    postings = {
        parent: {token: sorted(ids) for token, ids in by_token.items()}
        for parent, by_token in index.children_by_token.items()
    }
    for node_id, sets in index.token_sets.items():
        assert all(sets)
        parent = index.parents[node_id]
        if parent is not None:
            by_token = index.children_by_token[parent]
            assert all(by_token[token].count(node_id) == 1 for tokens in sets for token in tokens)
    set_postings = {
        node_id: {token: sorted(offsets) for token, offsets in by_token.items()}
        for node_id, by_token in index.set_postings.items()
    }
    for node_id, keys in index.fold_keys.items():
        assert keys == {fold(form) for form in index.forms[node_id]}
    # the spellings a merge skips without folding: every form of the node,
    # and no spelling of a fold key the node lacks
    assert index.spellings.keys() == index.fold_keys.keys()
    for node_id, seen in index.spellings.items():
        assert seen.issuperset(index.forms[node_id])
        assert {fold(spelling) for spelling in seen} <= index.fold_keys[node_id]
    return index.next_id, index.token_sets, postings, set_postings


@settings(max_examples=200, deadline=None)
@given(labels, labels)
def test_label_similarity_matches_oracle(a, b):
    assert best_jaccard(token_sets_of(a), token_sets_of(b)) == oracle_label_similarity(a, b)


def test_label_similarity_edge_cases():
    cases = [
        (("??",), ("!!",)),
        (("??", "angina"), ("angina:",)),
        (("a b",), ("b a",)),
        (("a a b",), ("a b",)),
        (("drug treatment", "treatment"), ("Drug  Treatment!",)),
    ]
    for a, b in cases:
        assert best_jaccard(token_sets_of(a), token_sets_of(b)) == oracle_label_similarity(a, b)
    assert best_jaccard(token_sets_of(("a b",)), token_sets_of(("b a",))) == 1.0
    assert token_sets_of(("??",)) == ()


@settings(max_examples=80, deadline=None)
@given(corpora, probe_documents, st.sampled_from(THRESHOLDS))
def test_alignment_matches_brute_force(docs, probe, threshold):
    composite = _fold(docs, threshold)
    alignment = align_tree(probe, composite, threshold)
    assert (alignment.pairs, alignment.unmatched) == oracle_align_tree(probe, composite, threshold)


def test_zero_threshold_scores_children_that_share_no_token():
    """At threshold 0 a score of 0 qualifies, so a child sharing no token with
    the label still wins on position over its parent."""
    node = norm_node
    composite = make_norm(node(0, "Disease", 0.0, node(1, "Treatment", 1.0, node(2, "Surgery", 0.0), node(3, "Drugs", 1.0))))
    doc = make_doc(("Disease", [("Treatment", ["Prognosis"])]))
    for threshold in THRESHOLDS:
        alignment = align_tree(doc, composite, threshold)
        assert (alignment.pairs, alignment.unmatched) == oracle_align_tree(doc, composite, threshold)
    assert align_tree(doc, composite, 0.0).pairs[2] == 2


@settings(max_examples=50, deadline=None)
@given(corpora, st.lists(documents("more"), min_size=1, max_size=4), st.sampled_from(THRESHOLDS), probe_documents)
def test_index_stays_current_across_merges(docs, more, threshold, probe):
    composite = _fold(docs, threshold)
    composite.index()
    for doc in more:
        _fold_in(composite, doc, threshold)
        assert _index_contents(composite.index()) == _index_contents(CompositeIndex(composite))
        index = composite.index()
        assert index.forms is composite.forms and index.parents is composite.parents
        assert index.positions is composite.positions and index.children is composite.children
    alignment = align_tree(probe, composite, threshold)
    assert (alignment.pairs, alignment.unmatched) == oracle_align_tree(probe, composite, threshold)


# headers of punctuation only normalize to "" and have no token set
punctuation_only = st.sampled_from(["??", "...", "!", "-:"])


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.one_of(documents(), documents(node_labels=punctuation_only | surface)), min_size=1, max_size=5),
    surface | st.sampled_from(["???", "gardening", "gardening tips", "signs of angina"]),
    st.sampled_from((0.0, 0.3, 0.5, 1.0)),
)
def test_map_query_matches_full_scan(docs, query, tau):
    """Over a document or a norm only the root and the nodes sharing a
    token with the query are scored (a norm node through any of the token
    sets its merged spellings give it); that picks what a full scan picks,
    also for a query sharing no token with any node, one that normalizes
    to "" ("???"), and punctuation-only headers."""
    composite = _fold(docs, 0.5)
    assert map_query(query, composite, tau) == oracle_map_query(query, composite, tau)
    memo = {}
    for doc in docs:
        expected = oracle_map_query(query, doc, tau)
        assert map_query(query, doc, tau) == expected
        assert map_query(query, doc, tau, token_sets=doc.token_sets(memo)) == expected


@settings(max_examples=50, deadline=None)
@given(corpora, documents("late"), surface, st.integers(min_value=1, max_value=3), st.sampled_from((0.3, 0.5, 1.0)))
def test_possible_typical_memo_is_cleared_by_merge(docs, late, query, k, alpha):
    params = TypingParams(k=k, alpha=alpha, tau=0.3)
    composite = _fold(docs, 0.5)
    before = possible_typical_topics(composite, query, params)
    assert before == oracle_possible_typical(composite, query, k, alpha, 0.3)
    assert possible_typical_topics(composite, query, params) is before
    _fold_in(composite, late, 0.5)
    after = possible_typical_topics(composite, query, params)
    assert after == oracle_possible_typical(composite, query, k, alpha, 0.3)


@settings(max_examples=60, deadline=None)
@given(corpora, st.lists(st.tuples(probe_documents, st.sampled_from(THRESHOLDS)), min_size=1, max_size=6))
def test_memoized_alignment_matches_brute_force_across_probes_and_thresholds(docs, probes):
    """One norm aligns every probe in turn, at mixed thresholds, then the
    probes again and its own documents; every header seen before at the
    same threshold under the same anchor is served from the memo."""
    composite = _fold(docs, 0.5)
    rounds = probes + probes + [(doc, threshold) for doc in docs for threshold in THRESHOLDS]
    for probe, threshold in rounds:
        alignment = align_tree(probe, composite, threshold)
        assert (alignment.pairs, alignment.unmatched) == oracle_align_tree(probe, composite, threshold)


@settings(max_examples=60, deadline=None)
@given(corpora, documents("late"), probe_documents, st.booleans(), st.sampled_from(THRESHOLDS))
def test_alignment_memo_is_cleared_by_merge(docs, late, probe, merge_probe, threshold):
    composite = _fold(docs, threshold)
    before = align_tree(probe, composite, threshold)
    assert (before.pairs, before.unmatched) == oracle_align_tree(probe, composite, threshold)
    if merge_probe:
        late = probe
    _fold_in(composite, late, threshold)
    assert composite.index().alignments == {}
    after = align_tree(probe, composite, threshold)
    assert (after.pairs, after.unmatched) == oracle_align_tree(probe, composite, threshold)


def test_a_header_sharing_no_token_with_its_candidates_matches_nothing():
    """Above a threshold of 0 a header that shares no token with its anchor,
    here the root of several token sets, nor with any child of it matches
    nothing; at 0 every candidate scores 0, and the lowest-position one
    still wins."""
    docs = [
        make_doc(("Angina guide", ["Symptoms", "Treatment"]), doc_id="a"),
        make_doc(("Chest pain", ["Symptoms"]), doc_id="b"),
    ]
    composite = _fold(docs, 0.5)
    assert len(composite.index().token_sets[composite.root]) == 2
    probe = make_doc(("Angina", ["Gardening tips", ("Symptoms", ["Weather"])]))
    for threshold in THRESHOLDS:
        alignment = align_tree(probe, composite, threshold)
        assert (alignment.pairs, alignment.unmatched) == oracle_align_tree(probe, composite, threshold)
    assert align_tree(probe, composite, 1e-9).unmatched == {1, 3}


def test_exact_holders_that_tie_fall_to_the_lowest_position_then_id(scratch):
    """Several candidates hold a header's token set: the lowest (position,
    id) among them wins, whichever the postings list first. The first
    document repeats "Symptoms" under the root; three more send their
    "Symptoms" to the first copy (node 1), whose mean position then passes
    the second copy's (node 5), though node 1 stays first in the root's
    postings. A probe header spelled as its anchor, the root or a header
    whose child it is across a skipped level, is held by the anchor and by a
    later child of it; the anchor wins on position."""
    first = make_doc(("Angina", ["Symptoms", ("Treatment", ["Drugs", "Treatment"]), "Symptoms", "Angina"]), doc_id="a")
    later = [make_doc(("Angina", ["Drugs", "Symptoms"]), doc_id=f"b{number}") for number in range(3)]
    probe = parse_document("# Angina\n## Symptoms\n## Angina\n## Treatment\n#### Treatment\n", "probe")
    assert probe.labels == ["Angina", "Symptoms", "Angina", "Treatment", "Treatment"]
    assert probe.parents == [-1, 0, 0, 0, 3] and probe.depths[4] == probe.depths[3] + 1
    for threshold in (0.0, 0.5, 1.0):
        docs = [first, *later]
        composite = _fold(docs, threshold)
        assert _saved(composite, scratch) == _oracle_saved(oracle_build_composite(docs, threshold, "mem"))
        index = composite.index()
        assert index.children_by_token[0]["symptoms"] == [1, 5]
        assert composite.positions[1] > composite.positions[5]
        assert composite.positions[2] < composite.positions[4]
        expected = oracle_align_tree(probe, composite, threshold)
        assert expected == ({0: 0, 1: 5, 2: 0, 3: 2, 4: 2}, set())
        unmemoized = align_tree(probe, composite, threshold, _memoize=False)
        assert (unmemoized.pairs, unmemoized.unmatched) == expected
        assert index.alignments == {}
        for _ in range(2):
            alignment = align_tree(probe, composite, threshold)
            assert (alignment.pairs, alignment.unmatched) == expected
        assert sum(len(matches) for matches in index.alignments[threshold].values()) == 4


def test_a_repeated_alignment_scores_no_candidate_and_the_build_fills_no_alignment_memo():
    docs = _variant_corpus(30, seed=5)
    memo_sizes = []
    clear_memos = CompositeIndex.clear_memos

    def watched(index):
        memo_sizes.append(len(index.alignments))
        clear_memos(index)

    with mock.patch.object(CompositeIndex, "clear_memos", watched):
        composite = _fold(docs, 0.5)
    assert memo_sizes == [0] * len(docs)
    assert composite.index().alignments == {}
    # headers with no exact holder in the norm, so the first alignment scores
    probe = make_doc(("Angina guide 7", ["Symptoms of angina", ("Drug treatment plan", ["Diet and surgery"])]))
    with mock.patch("topicsift.composite.best_jaccard", side_effect=best_jaccard) as counter:
        first = align_tree(probe, composite, 0.5)
        scored = counter.call_count
        again = align_tree(probe, composite, 0.5)
    assert scored > 0
    assert counter.call_count == scored
    assert again == first
    # threshold -> anchor id -> header token sets: one entry per header
    memo = composite.index().alignments
    assert list(memo) == [0.5]
    assert set(memo[0.5]) <= set(composite.forms)
    assert 0 < sum(len(matches) for matches in memo[0.5].values()) <= len(probe.nodes()) - 1


@settings(max_examples=60, deadline=None)
@given(
    corpora,
    st.lists(probe_documents, min_size=1, max_size=4),
    surface,
    st.integers(min_value=1, max_value=3),
    st.sampled_from((0.0, 0.5, 1.0)),
    st.sampled_from(THRESHOLDS),
)
def test_a_stream_typed_against_one_loaded_norm_matches_a_fresh_load_per_document(
    scratch, docs, probes, query, k, alpha, threshold
):
    """Documents that repeat their headers (the vocabulary is small, and the
    stream sends every probe twice) typed one after another against one
    loaded norm, whose label memo fills as the stream goes, are typed as
    against a fresh load of the same file each."""
    path = scratch / "stream.json"
    save_composite(_fold(docs, 0.5), path)
    shared = load_composite(path)
    params = TypingParams(k=k, alpha=alpha)
    for probe in probes + probes:
        typed, alignment = type_document(probe, shared, query, params, threshold)
        fresh_typed, fresh_alignment = type_document(probe, load_composite(path), query, params, threshold)
        assert (typed.query_node, typed.types) == (fresh_typed.query_node, fresh_typed.types)
        assert (alignment.pairs, alignment.unmatched) == (fresh_alignment.pairs, fresh_alignment.unmatched)
    label_sets = shared.index().label_sets
    assert set(label_sets) == {label for probe in probes for label in probe.labels}
    assert all(sets == token_sets_of((label,)) for label, sets in label_sets.items())


def test_a_fold_clears_the_tree_memos_and_keeps_the_label_memo():
    docs = _variant_corpus(12, seed=3)
    composite = _fold(docs[:-1], 0.5)
    index = composite.index()
    late = docs[-1]
    pairs = align_tree(late, composite, 0.5).pairs
    possible_typical_topics(composite, "angina", TypingParams())
    assert index.alignments and index.possible_typical
    label_sets = index.label_sets
    before = dict(label_sets)
    assert set(before) >= set(late.labels)
    _fold_document(composite, pairs, late, late.token_sets(label_sets))
    assert index.alignments == {} and index.possible_typical == {}
    assert composite.index().label_sets is label_sets
    assert label_sets == before


# Unicode whitespace (including the separators \x1c-\x1f and \x85 that
# str.isspace accepts), ASCII punctuation, and letters whose case fold differs
# from their lower case or changes their length.
messy_text = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(
        list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000\u200b")
        + list(string.punctuation) + list("aZßẞİıΣσςǅﬁ")
    )),
)


@settings(max_examples=300, deadline=None)
@given(messy_text)
def test_fold_and_normalize_match_regex_versions(text):
    assert fold(text) == oracle_fold(text)
    assert normalize(text) == oracle_normalize(text)


# every code point str.isspace accepts, between letters that casefold to
# more than one character and punctuation
spaced_text = st.text(alphabet=st.sampled_from(
    [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()] + list("aZßẞİﬁ.:?!-")
))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(messy_text, spaced_text),
    st.sampled_from(["", ":", " : .", "??", " ?? ", "!\u3000.", "\x85-"]),
    st.lists(st.one_of(messy_text, spaced_text, surface), max_size=2),
)
@example("a : .", "", [])
@example("??", "", [])
@example("Straße", "", [])
@example("ﬁle?", "", [])
@example("Risk factors:", "", ["??", "factors  RISK", "Straße"])
def test_one_form_token_sets_split_the_normal_form(text, tail, more):
    """A label splits each case-folded form once and strips the trailing
    punctuation token by token; that equals splitting the normal forms and
    keeping the distinct non-empty token sets, in form order."""
    forms = [text + tail, *more]
    assume(any(form.strip() for form in forms))
    expected = {}
    for form in forms:
        normal = oracle_normalize(form)
        if normal:
            expected.setdefault(frozenset(normal.split()), None)
    assert token_sets_of(tuple(forms)) == tuple(expected)


def test_whitespace_split_and_casefold_agree_with_regex_over_all_unicode():
    """The two facts that make the split/rstrip versions equal to the regex
    ones: str.isspace and the regex \\s accept the same code points, and no
    other code point casefolds to anything containing whitespace."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(c for c in every if c.isspace())
    assert "".join(re.findall(r"\s", every)) == spaces
    others = "".join(c for c in every if not c.isspace())
    assert others.casefold().split() == [others.casefold()]


@settings(max_examples=200, deadline=None)
@given(labels, st.lists(surface, min_size=1, max_size=8), st.data())
def test_merged_label_equals_rebuilt_label(a, others, data):
    """Merging document spellings into a composite node's label one by one,
    as the fold does, equals building the label from every spelling at once,
    and leaves the index as a fresh one would be."""
    node = norm_node(1, a[0], 0.0)
    node["forms"] = list(a)
    composite = make_norm(norm_node(0, "Root", 0.0, node, norm_node(2, "risk drug", 1.0)))
    index = composite.index()
    spellings = list(a)
    for other in others:
        before = composite.forms[1]
        index.merge_label(1, other, token_sets_of((other,)))
        spellings.append(other)
        assert composite.forms[1] == oracle_merge_forms(*spellings)
        assert (composite.forms[1] is before) == (composite.forms[1] == before)
        assert _index_contents(index) == _index_contents(CompositeIndex(composite))
    # a spelling already present verbatim leaves the label as it is
    label = composite.forms[1]
    verbatim = data.draw(st.sampled_from(label))
    index.merge_label(1, verbatim, token_sets_of((verbatim,)))
    assert composite.forms[1] is label
    # and a node spelled only one way takes that spelling without a fold
    lone = make_norm(norm_node(0, a[0], 0.0))
    label = lone.forms[0]
    with mock.patch("topicsift.model.fold", side_effect=AssertionError("folded")):
        lone.index().merge_label(0, a[0], token_sets_of(label))
    assert lone.forms[0] is label


@settings(max_examples=80, deadline=None)
@given(corpora, st.sampled_from((0.0, 0.5, 1.0)))
def test_build_matches_full_walk_build(scratch, docs, threshold):
    expected = _oracle_saved(oracle_build_composite(docs, threshold, "mem"))
    composite = _fold(docs, threshold)
    assert _saved(composite, scratch) == expected
    # the build tokenized through the norm's label memo: one entry per
    # distinct label of the corpus, each the label's own token sets
    label_sets = composite.index().label_sets
    assert set(label_sets) == {label for doc in docs for label in doc.labels}
    assert all(sets == token_sets_of((label,)) for label, sets in label_sets.items())


@st.composite
def titled_corpora(draw):
    """2..8 documents, each titled with words of the shared vocabulary and
    its own number: the norm root gains one token set per document, and
    top-level headers share tokens with some of them."""
    docs = []
    for number in range(draw(st.integers(min_value=2, max_value=8))):
        doc = draw(documents(f"d{number}"))
        doc.labels[0] = f"{draw(words)} {number}"
        docs.append(doc)
    return docs


@settings(max_examples=80, deadline=None)
@given(titled_corpora(), st.sampled_from((0.0, 0.5, 1.0)))
def test_build_over_many_titles_matches_full_walk_build(scratch, docs, threshold):
    composite = _fold(docs, threshold)
    assert _saved(composite, scratch) == _oracle_saved(oracle_build_composite(docs, threshold, "mem"))
    assert _index_contents(composite.index()) == _index_contents(CompositeIndex(composite))
    assert len(composite.index().token_sets[composite.root]) == len(docs)


def test_build_keeps_the_order_of_tied_positions(scratch):
    """B and A end on the same mean position under the root, and C and D
    under A; a stable sort of the touched parents keeps them in first-seen
    order, as the full re-sort did."""
    docs = [
        make_doc(("Root", [("A", ["C", "D"]), "B"])),
        make_doc(("Root", ["B", ("A", ["D", "C"])])),
        make_doc(("Root", ["E"])),
    ]
    for threshold in (0.0, 0.5, 1.0):
        composite = _fold(docs, threshold)
        assert _saved(composite, scratch) == _oracle_saved(oracle_build_composite(docs, threshold, "mem"))
    positions = [composite.positions[child] for child in composite.children[composite.root]]
    assert len(set(positions)) < len(positions)


@settings(max_examples=50, deadline=None)
@given(corpora, st.lists(documents("more"), min_size=1, max_size=4), st.sampled_from((0.0, 0.5, 1.0)))
def test_folding_more_documents_into_a_built_norm_matches_the_full_walk(scratch, docs, more, threshold):
    composite = _fold(docs, threshold)
    reference = oracle_build_composite(docs, threshold, "mem")
    for doc in more:
        _fold_in(composite, doc, threshold)
        oracle_merge(reference, doc, oracle_align_tree(doc, reference, threshold)[0])
        for node in composite.nodes():
            assert node.typicality == node.support / composite.doc_count
        assert _saved(composite, scratch) == _oracle_saved(reference)


class _Counted(str):
    """A label string that counts the equality tests made on it."""

    compared = 0

    def __eq__(self, other):
        _Counted.compared += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_fold_cost_does_not_grow_with_a_labels_spellings():
    """Every document has its own title, so the root gains one spelling and
    one token set per document, and a top-level header of its own, which
    only the root can match. For document 200, aligning the top-level
    headers scores no more token-set pairs, and the fold folds no more
    strings and compares no more spellings, than for document 20."""
    docs = [
        make_doc((_Counted(f"Angina guide {number}"), [
            _Counted("Symptoms" if number % 2 else "SYMPTOMS:"), (_Counted("Treatment"), [_Counted("Drugs")]),
            _Counted(f"Appendix{number}"),
        ]))
        for number in range(1, 201)
    ]
    composite = _fold(docs[:1], 0.5)
    pairs, folds, compared = {}, {}, {}
    for number, doc in enumerate(docs[1:], start=2):
        token_sets = doc.token_sets({})
        top_level = [token_sets[node_id] for node_id in doc.nodes() if doc.parents[node_id] == 0]
        scored = []

        def counting(sets_a, sets_b):
            scored.append((sets_a, len(sets_a) * len(sets_b)))
            return best_jaccard(sets_a, sets_b)

        with mock.patch("topicsift.composite.best_jaccard", side_effect=counting):
            alignment = align_tree(doc, composite, 0.5, token_sets=token_sets)
        pairs[number] = sum(count for sets, count in scored if sets in top_level)
        _Counted.compared = 0
        with mock.patch("topicsift.model.fold", side_effect=fold) as counter:
            _fold_document(composite, alignment.pairs, doc, token_sets)
        folds[number] = counter.call_count
        compared[number] = _Counted.compared
    assert len(composite.forms[composite.root]) == 200
    assert len(composite.index().token_sets[composite.root]) == 200
    assert pairs[20] == pairs[200]
    assert folds[20] == folds[200]
    assert compared[20] == compared[200]


def _variant_corpus(count: int, seed: int):
    """Documents with distinct titles whose headers come from one small set,
    each spelled in one of several case, colon and period variants."""
    rng = random.Random(seed)
    headers = ["Symptoms", "Treatment", "Drug treatment", "Risk factors", "Surgery", "Diet", "Prognosis", "Causes"]
    spellings = (
        str, str.upper, str.lower,
        lambda h: h + ":", lambda h: h.lower() + ":", lambda h: h.upper() + " :", lambda h: h + ".",
    )

    def spelled(header):
        return rng.choice(spellings)(header)

    docs = []
    for number in range(count):
        children = [
            (spelled(header), [spelled(sub) for sub in rng.sample(headers, rng.randint(0, 2))])
            for header in rng.sample(headers, rng.randint(2, 6))
        ]
        docs.append(make_doc((f"Angina guide {number}: part {number % 7}", children), doc_id=f"d{number:02}"))
    return docs


def test_labels_with_many_spellings_build_like_the_full_walk(scratch):
    docs = _variant_corpus(60, seed=11)
    for threshold in (0.0, 0.5, 1.0):
        composite = _fold(docs, threshold)
        assert _saved(composite, scratch) == _oracle_saved(oracle_build_composite(docs, threshold, "mem"))
        index = composite.index()
        assert _index_contents(index) == _index_contents(CompositeIndex(composite))
    assert len(composite.forms[composite.root]) == 60
    assert max(len(composite.forms[child]) for child in composite.children[composite.root]) > 3


def test_save_load_and_continue_equals_a_full_build(tmp_path, scratch):
    """Building the first n documents, saving, loading and folding the rest
    into the loaded norm writes the file one build over every document
    writes. The loaded norm's index holds what the built one's does, and
    stays as a fresh one would be as the rest is folded in."""
    docs = _variant_corpus(40, seed=7)
    path = tmp_path / "partial.json"
    for threshold in (0.0, 0.5, 1.0):
        expected = _saved(_fold(docs, threshold), scratch)
        for count in (1, 13, 27, 39):
            built = _fold(docs[:count], threshold)
            save_composite(built, path)
            composite = load_composite(path)
            assert _index_contents(composite.index()) == _index_contents(built.index())
            for doc in docs[count:]:
                token_sets = doc.token_sets(composite.index().label_sets)
                _fold_document(composite, align_tree(doc, composite, threshold, token_sets=token_sets).pairs, doc, token_sets)
            assert _index_contents(composite.index()) == _index_contents(CompositeIndex(composite))
            assert _saved(composite, scratch) == expected


def test_loading_a_norm_folds_each_spelling_once(tmp_path):
    """Only labels of several spellings are folded, each spelling once, to
    drop duplicates; the deduplicated label is not validated again."""
    path = tmp_path / "norm.json"
    save_composite(_fold(_variant_corpus(40, seed=3), 0.5), path)
    with mock.patch("topicsift.composite.fold", side_effect=fold) as counter:
        loaded = load_composite(path)
    spellings = sum(len(forms) for forms in loaded.forms.values() if len(forms) > 1)
    assert spellings > 40
    assert counter.call_count == spellings


def test_fresh_ids_follow_the_largest_loaded_id(tmp_path, scratch):
    """A norm with ids 0, 5 and 9 takes new topics from 10 upward, as the
    full-walk fold does."""
    path = tmp_path / "gappy.json"
    path.write_text(
        '{"version": "1", "domain_genre": "g", "doc_count": 1, "root": '
        '{"id": 0, "forms": ["Disease"], "position": 0.0, "support": 1, "children": ['
        '{"id": 9, "forms": ["Symptoms"], "position": 0.0, "support": 1, "children": []}, '
        '{"id": 5, "forms": ["Treatment"], "position": 1.0, "support": 1, "children": []}]}}',
        encoding="utf-8",
    )
    doc = make_doc(("Disease", [("Symptoms", ["Chest pain"]), "Prognosis", ("Diet", ["Salt"])]))
    composite, reference = load_composite(path), oracle_load_composite(path)
    _fold_in(composite, doc, 0.5)
    oracle_merge(reference, doc, oracle_align_tree(doc, reference, 0.5)[0])
    assert sorted(node.id for node in composite.nodes()) == [0, 5, 9, 10, 11, 12, 13]
    assert _saved(composite, scratch) == _oracle_saved(reference)


def test_a_hand_written_sibling_list_out_of_position_order_loads_sorted(tmp_path, scratch):
    """A norm file may list siblings out of position order: loading sorts
    each list stably, so a fold that moves a child and one that only adds
    children give what the full-walk fold, which sorts every list, gives."""
    path = tmp_path / "unsorted.json"
    path.write_text(
        '{"version": "1", "domain_genre": "g", "doc_count": 1, "root": '
        '{"id": 0, "forms": ["Disease"], "position": 0.0, "support": 1, "children": ['
        '{"id": 1, "forms": ["Treatment"], "position": 1.0, "support": 1, "children": []}, '
        '{"id": 3, "forms": ["Diet"], "position": 0.0, "support": 1, "children": []}, '
        '{"id": 2, "forms": ["Symptoms"], "position": 0.0, "support": 1, "children": []}]}}',
        encoding="utf-8",
    )
    loaded = load_composite(path)
    assert [loaded.forms[child][0] for child in loaded.children[loaded.root]] == ["Diet", "Symptoms", "Treatment"]
    cases = (
        (("Disease", ["Treatment", "Prognosis"]), ["Diet", "Symptoms", "Treatment", "Prognosis"]),
        (("Disease", ["Symptoms", "Prognosis"]), ["Diet", "Symptoms", "Treatment", "Prognosis"]),
    )
    for tree, order in cases:
        doc = make_doc(tree)
        composite, reference = load_composite(path), oracle_load_composite(path)
        _fold_in(composite, doc, 0.5)
        oracle_merge(reference, doc, oracle_align_tree(doc, reference, 0.5)[0])
        assert [composite.forms[child][0] for child in composite.children[composite.root]] == order
        assert _saved(composite, scratch) == _oracle_saved(reference)


def _assert_flat_form_of(doc, root):
    """doc's lists, derived ranks, subtree ranges and token sets against the
    walks of the nested tree root, whose ids are its pre-order positions."""
    walked = list(walk_depth(root))
    assert [node.id for node, _ in walked] == list(doc.nodes())
    parents = parent_map(root)
    assert doc.labels == [node.label[0] for node, _ in walked]
    assert doc.parents == [-1 if parents[node.id] is None else parents[node.id] for node, _ in walked]
    assert doc.depths == [depth for _, depth in walked]
    ranks = sibling_rank_map(root)
    assert doc.ranks() == [ranks[node.id] for node, _ in walked]
    for node, _ in walked:
        assert doc.subtree(node.id) == range(node.id, node.id + len(list(walk(node))))
        assert list(doc.subtree(node.id)) == [below.id for below in walk(node)]
    for missing in (-1, len(doc.labels)):
        with pytest.raises(UnknownNodeError):
            doc.subtree(missing)


@settings(max_examples=150, deadline=None)
@given(documents(), documents("other"))
def test_flat_document_matches_its_nested_tree(doc, other):
    """The lists, ranks and subtrees against the nested tree rebuilt from the
    parent list; the token sets taken alone, and through a label memo that
    another document and then this one filled, as the documents of one
    build share it."""
    _assert_flat_form_of(doc, nested(doc))
    label_sets = {}
    other.token_sets(label_sets)
    expected = [token_sets_of((label,)) for label in doc.labels]
    for memo in ({}, label_sets, label_sets):
        assert doc.token_sets(memo) == expected
    assert label_sets == {label: token_sets_of((label,)) for label in other.labels + doc.labels}


queries = st.one_of(surface, st.sampled_from(["", "   ", "\t"]))
# the vocabulary is ASCII, so each of these keeps a query's length
case_changes = st.sampled_from((str, str.upper, str.lower, str.swapcase, str.title))
typing_params = st.builds(
    TypingParams,
    k=st.integers(min_value=1, max_value=3),
    alpha=st.sampled_from((0.0, 0.3, 0.5, 1.0)),
    tau=st.sampled_from((0.0, 0.3, 0.5)),
)


@settings(max_examples=25, deadline=None)
@given(
    corpora,
    st.lists(st.tuples(probe_documents, st.integers(0, 2), case_changes, typing_params), min_size=1, max_size=4),
    st.lists(queries, min_size=1, max_size=3),
    st.tuples(st.sampled_from(THRESHOLDS), st.sampled_from(THRESHOLDS)),
)
@example(
    docs=[
        make_doc(("Angina", ["Signs", ("Treatment", ["Drug"])]), doc_id="a"),
        make_doc(("Angina", ["Signs", "Risk factors"]), doc_id="b"),
    ],
    stream=[
        (make_doc(("Angina", ["signs", ("TREATMENT", ["Surgery"])]), doc_id="p"), 0, str.upper, TypingParams()),
        (make_doc(("Chest pain", ["Risk factors:", "Gardening tips"]), doc_id="q"), 1, str.lower, TypingParams(1, 0.3, 0.0)),
        (make_doc(("Angina", ["Treatment"]), doc_id="r"), 2, str, TypingParams(3, 1.0, 0.5)),
    ],
    pool=["Angina treatment", "RISK", "   "],
    thresholds=(0.0, 1.0),
)
@example(
    docs=[make_doc(("Angina", ["Signs", "Risk"]), doc_id="a")],
    stream=[(make_doc(("Angina", ["Signs", "Risk factors"]), doc_id="p"), 0, str.title, TypingParams())],
    pool=["risk factors"],
    thresholds=(1.0, 0.0),
)
def test_a_stream_typed_through_one_shared_norm_matches_the_full_walk_chain(scratch, docs, stream, pool, thresholds):
    """Documents typed one after another through one loaded norm, the
    stream sent twice, with queries repeated in several cases and the
    alignment threshold alternating between two values, so the label,
    query, alignment and possible-typical memos serve later documents
    entries that earlier ones filled; each document is typed as the
    full-walk chain types it. A blank query is refused and memoizes
    nothing."""
    path = scratch / "shared.json"
    save_composite(_fold(docs, 0.5), path)
    shared = load_composite(path)
    norm = shared.index()
    for turn, (probe, pick, case, params) in enumerate(stream + stream):
        query = case(pool[pick % len(pool)])
        threshold = thresholds[turn % 2]
        if not query.strip():
            with pytest.raises(ValueError):
                type_document(probe, shared, query, params, threshold)
            assert query not in norm.query_sets
            continue
        typed, alignment = type_document(probe, shared, query, params, threshold)
        expected = oracle_type_document(probe, shared, query, params.k, params.alpha, params.tau, threshold)
        assert (
            typed.query_node, dict(enumerate(t.value for t in typed.types)), alignment.pairs, alignment.unmatched
        ) == expected
        assert distribution(typed, shared, alignment, params).possible_typical == len(
            oracle_possible_typical(shared, query, params.k, params.alpha, params.tau)
        )
    assert set(norm.alignments) <= set(thresholds)
    assert norm.query_sets == {query: token_sets_of((query,)) for query in norm.query_sets}
    assert all(query.strip() for query in norm.query_sets)


def test_typing_after_a_continued_fold_matches_a_fresh_load_of_the_continued_norm(tmp_path):
    """Documents typed against a loaded norm fill its memos; folding them
    into the norm, as a continued build does, must leave no entry that a
    second typing of the same documents could read back stale: it types
    them as a fresh load of the continued norm's file does."""
    docs = _variant_corpus(40, seed=7)
    path, continued = tmp_path / "partial.json", tmp_path / "continued.json"
    queries = ("angina", "Drug treatment", "RISK factors:")
    params = TypingParams(k=1, alpha=0.5, tau=0.3)

    def typing(composite, late, threshold):
        results = []
        for query in queries:
            for doc in late:
                typed, alignment = type_document(doc, composite, query, params, threshold)
                dist = distribution(typed, composite, alignment, params)
                results.append((typed.query_node, typed.types, alignment.pairs, alignment.unmatched, dist))
        return results

    changed = []
    for threshold in (0.0, 0.5, 1.0):
        for count in (1, 13):
            save_composite(_fold(docs[:count], threshold), path)
            composite = load_composite(path)
            late = docs[count:]
            before = typing(composite, late, threshold)
            for doc in late:
                token_sets = doc.token_sets(composite.index().label_sets)
                _fold_document(composite, align_tree(doc, composite, threshold, token_sets=token_sets).pairs, doc, token_sets)
            save_composite(composite, continued)
            after = typing(composite, late, threshold)
            assert after == typing(load_composite(continued), late, threshold)
            changed.append((threshold, count, after != before))
    # the folds change what typing gives, so a stale memo would show
    assert all(differs for threshold, _, differs in changed if threshold > 0), changed


@settings(max_examples=120, deadline=None)
@given(
    corpora,
    probe_documents,
    queries,
    st.integers(min_value=1, max_value=3),
    st.sampled_from((0.0, 0.3, 0.5, 1.0)),
    st.sampled_from((0.0, 0.3, 0.5)),
    st.sampled_from(THRESHOLDS),
)
def test_type_document_matches_the_full_walk_chain(docs, probe, query, k, alpha, tau, threshold):
    composite = _fold(docs, 0.5)
    params = TypingParams(k=k, alpha=alpha, tau=tau)
    if not query.strip():
        with pytest.raises(ValueError):
            type_document(probe, composite, query, params, threshold)
        with pytest.raises(ValueError):
            oracle_type_document(probe, composite, query, k, alpha, tau, threshold)
        return
    typed, alignment = type_document(probe, composite, query, params, threshold)
    query_node, types, pairs, unmatched = oracle_type_document(probe, composite, query, k, alpha, tau, threshold)
    assert typed.query_node == query_node
    assert dict(enumerate(t.value for t in typed.types)) == types
    assert (alignment.pairs, alignment.unmatched) == (pairs, unmatched)
    # the same stages called one by one, each taking its own token sets
    assert map_query(query, probe, tau) == query_node
    assert align_tree(probe, composite, threshold) == alignment
    assert assign_types(probe, composite, alignment, query, query_node, params) == typed
    for missing in (-1, len(probe.labels)):
        with pytest.raises(UnknownNodeError):
            assign_types(probe, composite, alignment, query, missing, params)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(documents(), min_size=1, max_size=2),
    documents("probe"),
    st.sampled_from(["angina", "drug treatment", "risk factors", "gardening"]),
    st.integers(min_value=1, max_value=3),
    st.sampled_from((0.0, 0.5, 1.0)),
    st.data(),
)
def test_distribution_matches_counting_each_type_alone(docs, probe, query, k, alpha, data):
    """Any types over any document, none of them typical or all of them,
    typical nodes with and without a match, against a norm where the query
    matches or ("gardening") offers no possible typical topic; the relevant
    count against a per-node count, and the result against the checked
    constructor's."""
    composite = _fold(docs, 0.5)
    params = TypingParams(k=k, alpha=alpha)
    ids = list(probe.nodes())
    choice = data.draw(st.sampled_from([TopicType, [TopicType.TYPICAL], [t for t in TopicType if t is not TopicType.TYPICAL]]))
    types = data.draw(st.lists(st.sampled_from(choice), min_size=len(ids), max_size=len(ids)))
    pairs = data.draw(st.dictionaries(st.sampled_from(ids), st.sampled_from(sorted(composite.forms))))
    typed = TypedTree(doc=probe, query=query, query_node=None, types=types)
    d = distribution(typed, composite, Alignment(pairs=pairs, unmatched=set(ids) - set(pairs)), params)
    possible = oracle_possible_typical(composite, query, k, alpha, params.tau)
    assert (d.typical, d.rare, d.intricate, d.irrelevant, d.total, d.covered_typical, d.possible_typical) == (
        oracle_distribution_counts(types, pairs, possible)
    )
    # distribution skips the checks, which its counts pass
    assert d == TypeDistribution(
        typical=d.typical,
        rare=d.rare,
        intricate=d.intricate,
        irrelevant=d.irrelevant,
        covered_typical=d.covered_typical,
        possible_typical=d.possible_typical,
    )
    assert typed.relevant_count() == sum(1 for t in types if t.value in ("typical", "rare"))


LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
line_breaks = st.sampled_from(LINE_BREAKS)
line_text = st.text(alphabet=st.sampled_from(list("#- :\tab\r\x85")), max_size=8)
# whitespace a header's trailing match must take, up to the line break
trailing_space = st.text(alphabet=st.sampled_from([" ", "\t", "\x1f", "\xa0"]), max_size=3)
odd_lines = st.sampled_from([
    "", "#", "# ", "#\t", "#\tTab", "#  ", "#  spaced  ", "#######", "####### seven", "  # indented",
    "---", "title: T", "plain",
])
body_lines = st.one_of(
    st.builds(lambda hashes, label, tail: "#" * hashes + " " + label + tail, st.integers(1, 7), line_text, trailing_space),
    st.builds(lambda label: "#" + label, line_text),
    odd_lines,
    line_text,
)
header_texts = st.tuples(
    st.sampled_from([
        "", "---\ntitle: Front\n---\n", "---\nkind: x\n---\r\n", "---\n", "---\r\ntitle: Crlf\r\n--- \r\n",
        "---\x85title: Nel\x85---\x85", "---\u2028title: Separator\u2028---\t\u2028", "---\r\ntitle: Unclosed\r\n",
        "---\ntitle: Dashes---\n---\n",
    ]),
    st.lists(st.tuples(body_lines, line_breaks), max_size=12),
    st.sampled_from(["", "# last", "#"]),
).map(lambda parts: parts[0] + "".join(line + end for line, end in parts[1]) + parts[2])


def _assert_parses_as_the_per_line_scan(doc, text):
    expected = oracle_parse_document(text, "d.md")
    assert (doc.doc_id, doc.metadata) == (expected.doc_id, expected.metadata)
    _assert_flat_form_of(doc, expected.root)
    memo = {}
    assert doc.token_sets(memo) == [memo[label] for label in doc.labels]
    assert all(sets == token_sets_of((label,)) for label, sets in memo.items())


@settings(max_examples=300, deadline=None)
@given(header_texts)
def test_prefiltered_parse_matches_the_per_line_scan(text):
    """Texts mixing every line-break style: the flat lists, ranks, subtrees
    and memo entries against the nested tree of the per-line scan."""
    _assert_parses_as_the_per_line_scan(parse_document(text, "d.md"), text)


# "\n"-only text: every line below, header or not, ends in "\n"
newline_text = st.text(alphabet=st.sampled_from(list("#- :\tab\x1f\xa0")), max_size=8)
newline_lines = st.one_of(
    st.builds(lambda hashes, label, tail: "#" * hashes + " " + label + tail, st.integers(1, 7), newline_text, trailing_space),
    st.builds(lambda label: "#" + label, newline_text),
    odd_lines,
    newline_text,
    st.integers(1, 4).map(lambda run: "\n" * run),
)
newline_texts = st.tuples(
    st.sampled_from([
        "", "---\ntitle: Front\n---\n", "---  \ntitle: Spaced fence\n---\t\n", "---\nkind: x\n---\n",
        "---\ntitle: Unclosed\n", "---\n", "---", "---\n---",
    ]),
    st.lists(newline_lines, max_size=16),
    st.sampled_from(["", "# last", "## last \t\x1f\xa0", "#", "\n\n"]),
).map(lambda parts: parts[0] + "".join(line + "\n" for line in parts[1]) + parts[2])


@settings(max_examples=300, deadline=None)
@given(newline_texts)
def test_one_scan_parse_matches_the_per_line_scan(text):
    doc = parse_document(text, "d.md")
    _assert_parses_as_the_per_line_scan(doc, text)
    # every line break style gives the tree of the "\n" text
    for end in LINE_BREAKS[1:]:
        assert parse_document(text.replace("\n", end), "d.md") == doc


def test_each_line_break_style_gives_the_newline_tree():
    text = "---\ntitle: T\n---\n# Top  \n## Sub\t\n\n\nbody\n####### no\n#\tno\n### Deep\xa0\n## Last"
    newline_doc = parse_document(text, "d.md")
    _assert_parses_as_the_per_line_scan(newline_doc, text)
    assert newline_doc.labels == ["T", "Top", "Sub", "Deep", "Last"]
    for end in LINE_BREAKS[1:]:
        other = text.replace("\n", end)
        _assert_parses_as_the_per_line_scan(parse_document(other, "d.md"), other)
        assert parse_document(other, "d.md") == newline_doc


# labels whose JSON text needs escapes, or differs with ensure_ascii: quotes,
# backslashes, control and separator characters, non-ASCII text and lone
# surrogates, around the shared vocabulary so documents still align
escaped = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\t", "é", "漢", "\u2028", "\ud800", "\udfff", "\U0001f600"])
trace_labels = st.one_of(
    surface,
    st.builds(lambda word, marks, first: marks + " " + word if first else word + marks,
              words, st.lists(escaped, min_size=1, max_size=3).map("".join), st.booleans()),
)


def _trace_documents(count_range=(1, 4)):
    return st.integers(*count_range).flatmap(
        lambda count: st.tuples(*(documents(f"d{index}.md", trace_labels) for index in range(count))).map(list)
    )


def _both_traces(docs, composite, query, params, threshold, seed=0, limit=5):
    """pipeline.render_trace and the walk_depth oracle over one summarize run."""
    s = summarize(
        docs, composite, query, params, default_lexicon(),
        seed=seed, limit=limit, align_threshold=threshold, extract_exists=False,
    )
    return render_trace(s), oracle_trace_lines(s.query, s.params, s, s.composite, s.results, s.plan, s.realized)


@settings(max_examples=100, deadline=None)
@given(
    _trace_documents(),
    _trace_documents(),
    trace_labels,
    st.sampled_from(THRESHOLDS),
    st.integers(min_value=1, max_value=3),
    st.sampled_from((0.3, 0.5, 1.0)),
    st.sampled_from((0.3, 0.5, 1.0)),
)
def test_trace_lines_match_the_walk_depth_renderer(norm_docs, docs, query, threshold, k, alpha, tau):
    composite = build_composite(CorpusSet(docs=norm_docs, origin="mem"), threshold)
    lines, expected = _both_traces(docs, composite, query, TypingParams(k=k, alpha=alpha, tau=tau), threshold)
    assert lines == expected


features = st.frozensets(st.sampled_from(["video", "images", "tables"]), max_size=2)


@st.composite
def summarized_sets(draw):
    """One to six documents with distinct ids, each with drawn content types
    and special content, so feature messages are planned too."""
    docs = []
    for index in range(draw(st.integers(1, 6))):
        doc = draw(documents(f"d{index}.md"))
        metadata = DocumentMetadata(content_types=draw(features), special_content=draw(features))
        docs.append(DocumentTopicTree(doc.doc_id, doc.labels, doc.parents, doc.depths, metadata))
    return docs


@settings(max_examples=40, deadline=None)
@given(
    corpora,
    summarized_sets(),
    surface | st.sampled_from(["gardening", "???"]),
    st.sampled_from((0.3, 0.5, 1.0)),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)
def test_summary_bullets_partition_the_document_set(norm_docs, docs, query, alpha, limit, seed, extract_exists):
    """Every document lands in exactly one planned category, each planned
    category is realized once, and every summary line is a bullet."""
    composite = _fold(norm_docs, 0.5)
    s = summarize(
        docs, composite, query, TypingParams(alpha=alpha), default_lexicon(),
        seed=seed, limit=limit, align_threshold=0.5, extract_exists=extract_exists,
    )
    members = [doc_id for category in s.plan.categories for doc_id in category.members()]
    assert sorted(members) == sorted(doc.doc_id for doc in docs)
    assert len(s.plan.categories) == len(s.realized)
    assert all(line.startswith("- ") for line in summary_lines(s.realized))


def _document_blocks(lines: list[str]) -> dict[str, list[str]]:
    """Each document's trace block, by doc id: its "document:" line and the
    lines up to the next document's or the plan's."""
    blocks: dict[str, list[str]] = {}
    block = None
    for line in lines:
        if line.startswith("plan:"):
            break
        if line.startswith("document: "):
            block = blocks[line[len("document: "):]] = []
        if block is not None:
            block.append(line)
    return blocks


@settings(max_examples=30, deadline=None)
@given(
    _trace_documents(),
    _trace_documents((1, 5)),
    surface | st.sampled_from(["gardening", "???"]),
    st.sampled_from(THRESHOLDS),
    typing_params,
)
def test_a_documents_trace_block_is_the_same_inside_its_set_and_alone(norm_docs, docs, query, threshold, params):
    """Typed against one norm, whose memos every run shares, a document's
    block is the same whether it is summarized with the rest of its set or
    alone, and the set's trace is the same before and after the lone runs."""
    composite = build_composite(CorpusSet(docs=norm_docs, origin="mem"), threshold)

    def trace(subset):
        s = summarize(
            subset, composite, query, params, default_lexicon(),
            seed=0, limit=5, align_threshold=threshold, extract_exists=False,
        )
        return render_trace(s)

    in_set = trace(docs)
    blocks = _document_blocks(in_set)
    assert list(blocks) == [doc.doc_id for doc in docs]
    for doc in docs:
        assert _document_blocks(trace([doc])) == {doc.doc_id: blocks[doc.doc_id]}
    assert trace(docs) == in_set


@settings(max_examples=30, deadline=None)
@given(
    corpora,
    summarized_sets(),
    surface,
    case_changes,
    st.sampled_from(THRESHOLDS),
    typing_params,
    st.integers(min_value=0, max_value=3),
)
def test_the_query_case_changes_only_the_lines_that_echo_the_query(norm_docs, docs, query, case, threshold, params, seed):
    """The same documents summarized against one norm for a query and for
    the query in other letter cases give traces of the same lines, but for
    the query line and the sentence, bullet and summary lines, which differ
    only in letter case and only inside an echo of the query."""
    composite = _fold(norm_docs, 0.5)
    traces = []
    for spelled in (query, case(query)):
        s = summarize(
            docs, composite, spelled, params, default_lexicon(),
            seed=seed, limit=5, align_threshold=threshold, extract_exists=False,
        )
        traces.append(render_trace(s))
    first, other = traces
    assert len(first) == len(other)
    folded = query.casefold()
    summary = first.index("summary:")
    differing = set()
    for number, (a, b) in enumerate(zip(first, other)):
        if a == b:
            continue
        differing.add("summary" if number > summary else a.split(":")[0].strip())
        assert len(a) == len(b) and a.casefold() == b.casefold(), (a, b)
        echoes = [start for start in range(len(a)) if a.casefold().startswith(folded, start)]
        for index in (index for index, (x, y) in enumerate(zip(a, b)) if x != y):
            assert any(start <= index < start + len(query) for start in echoes), (a, b, index)
    assert differing <= {"query", "sentence", "bullet", "summary"}
    assert ("query" in differing) == (case(query) != query)


def test_trace_lines_cover_unmatched_nodes_shared_norm_nodes_and_unmatched_queries():
    norm_a = build_composite(CorpusSet(docs=[
        make_doc(("Angina", ["Signs", ("Treatment", ["Drug \"A\""])]), doc_id="r1.md"),
        make_doc(("Angina", ["Signs", "Risk"]), doc_id="r2.md"),
        make_doc(("Angina", ["Surgery"]), doc_id="r3.md"),
    ], origin="mem"), 0.5)
    # the same ids, other typicalities: a memo kept across runs goes stale
    norm_b = build_composite(CorpusSet(docs=[
        make_doc(("Angina", ["Signs", ("Treatment", ["Drug \"A\""])]), doc_id="r1.md"),
        make_doc(("Angina", ["Surgery", "Risk"]), doc_id="r2.md"),
    ], origin="mem"), 0.5)
    docs = [
        make_doc(("Angina", ["Signs", ("Treatment", ["Drug \"A\"", "Diet \\ é\u2028\ud800"])]), doc_id="a.md"),
        make_doc(("Angina", ["Signs", "Risk"]), doc_id="b.md"),
        make_doc(("Weather", ["Rain", ("Wind", [("Gusts", ["Calm"])])]), doc_id="c.md"),
    ]
    params = TypingParams(k=1, alpha=0.5, tau=0.5)
    for composite in (norm_a, norm_b, norm_a):
        lines, expected = _both_traces(docs, composite, "treatment", params, 0.5)
        assert lines == expected
    node_lines = [line for line in lines if line.startswith("  node: ")]
    assert "  query-node: -" in lines  # c.md has no treatment topic
    assert any("composite=-" in line for line in node_lines)  # Diet, and every topic below Weather
    assert sum(" composite=1 " in line for line in node_lines) == 2  # Signs in a.md and b.md
    assert any(" depth=3 " in line for line in node_lines)
    assert any('label="Diet \\\\ é\u2028\ud800"' in line for line in node_lines)


@st.composite
def markdown_texts(draw, max_size=5):
    """One to max_size header-marked texts over the shared vocabulary, each
    with or without a level-1 header; without one, the document's root is
    labeled with its file name."""
    texts = []
    for _ in range(draw(st.integers(1, max_size))):
        title = draw(st.none() | surface)
        headers = draw(st.lists(st.tuples(st.integers(2, 6), surface), max_size=8))
        lines = [] if title is None else [f"# {title}"]
        texts.append("\n".join(lines + [f"{'#' * level} {label}" for level, label in headers]) + "\n")
    return texts


def _cli_stdout(*args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(args)) == 0
    return out.getvalue()


def _categories(trace: str) -> dict[str, str]:
    """Each document's category, by doc id, from a trace."""
    categories, document = {}, None
    for line in trace.splitlines():
        if line.startswith("document: "):
            document = line[len("document: "):]
        elif line.startswith("  category: "):
            categories[document] = line[len("  category: "):]
    return categories


@settings(max_examples=20, deadline=None)
@given(markdown_texts(), markdown_texts(6), words, st.sampled_from((0.0, 0.5, 1.0)), st.sampled_from((0.3, 0.5, 1.0)))
def test_renaming_files_in_name_order_keeps_categories(reference, texts, query, threshold, alpha):
    """Renaming the documents of a summarized directory, so that their name
    order stays the same and no name holds another, keeps every document's
    category, and the trace then differs only in the names: mapped back to
    the old names, it is the old trace byte for byte. A file name is a doc
    id, and the title and root label of a document with no level-1 header."""
    old_names = [f"doc-{number:04}.md" for number in range(len(texts))]
    new_names = [f"file-{number:04}.md" for number in range(len(texts))]
    with tempfile.TemporaryDirectory() as work:
        work = pathlib.Path(work)
        for part, names, part_texts in (
            ("reference", [f"ref-{number:04}.md" for number in range(len(reference))], reference),
            ("old", old_names, texts),
            ("new", new_names, texts),
        ):
            (work / part).mkdir()
            for name, text in zip(names, part_texts):
                (work / part / name).write_text(text, encoding="utf-8")
        norm = str(work / "norm.json")
        _cli_stdout("build", str(work / "reference"), norm, "--align-threshold", str(threshold))
        flags = ("--composite", norm, "--query", query, "--alpha", str(alpha), "--align-threshold", str(threshold), "--format", "trace")
        old = _cli_stdout("summarize", str(work / "old"), *flags)
        new = _cli_stdout("summarize", str(work / "new"), *flags)
    assert list(_categories(old)) == old_names and list(_categories(new)) == new_names
    assert list(_categories(new).values()) == list(_categories(old).values())
    for old_name, new_name in zip(old_names, new_names):
        new = new.replace(new_name, old_name)
    assert new == old
