"""The composite index, the per-document index and the fold against the
plain reference versions in oracles.py: label folding, label similarity,
alignment, query mapping, document typing, header parsing, the
possible-typical set, the built norm and the rendered trace must agree
exactly, also after folds change the norm."""
from __future__ import annotations

import random
import re
import string
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from topicsift import (
    Alignment,
    CorpusSet,
    DocumentMetadata,
    DocumentTopicTree,
    LexicalForms,
    TopicType,
    TypeDistribution,
    TypedTree,
    TypingParams,
    UnknownNodeError,
    align_tree,
    assign_types,
    build_composite,
    default_lexicon,
    distribution,
    load_composite,
    map_query,
    parse_document,
    possible_typical_topics,
    render_trace,
    save_composite,
    summarize,
    type_document,
)
from topicsift.composite import _fold_document
from topicsift.model import (
    CompositeIndex,
    best_jaccard,
    fold,
    normalize,
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
labels = st.lists(surface, min_size=1, max_size=3).map(lambda forms: LexicalForms.of(*forms))


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
    folds fill is checked against the norm here."""
    postings = {
        parent: {token: sorted(ids) for token, ids in by_token.items()}
        for parent, by_token in index.children_by_token.items()
    }
    holders = {
        parent: {tokens: sorted(ids) for tokens, ids in by_set.items()}
        for parent, by_set in index.children_by_set.items()
    }
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
    return index.next_id, index.token_sets, postings, holders, set_postings


@settings(max_examples=200, deadline=None)
@given(labels, labels)
def test_label_similarity_matches_oracle(a, b):
    assert best_jaccard(a.token_sets(), b.token_sets()) == oracle_label_similarity(a, b)


def test_label_similarity_edge_cases():
    cases = [
        (("??",), ("!!",)),
        (("??", "angina"), ("angina:",)),
        (("a b",), ("b a",)),
        (("a a b",), ("a b",)),
        (("drug treatment", "treatment"), ("Drug  Treatment!",)),
    ]
    for a, b in cases:
        a, b = LexicalForms.of(*a), LexicalForms.of(*b)
        assert best_jaccard(a.token_sets(), b.token_sets()) == oracle_label_similarity(a, b)
    assert best_jaccard(LexicalForms.of("a b").token_sets(), LexicalForms.of("b a").token_sets()) == 1.0
    assert LexicalForms.of("??").token_sets() == ()


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
    """Over a document only the root and the headers sharing a token with
    the query are scored; that picks what a full scan picks, also for a
    query sharing no token with any header, one that normalizes to ""
    ("???"), and punctuation-only headers."""
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
    assert 0 < len(composite.index().alignments) <= len(probe.nodes()) - 1


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
    assert all(sets == LexicalForms((label,)).token_sets() for label, sets in label_sets.items())


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
    assert LexicalForms.of(*forms).token_sets() == tuple(expected)


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
    node = norm_node(1, a.canonical, 0.0)
    node["forms"] = list(a.forms)
    composite = make_norm(norm_node(0, "Root", 0.0, node, norm_node(2, "risk drug", 1.0)))
    index = composite.index()
    spellings = list(a.forms)
    for other in others:
        before = composite.forms[1]
        index.merge_label(1, other, LexicalForms((other,)).token_sets())
        spellings.append(other)
        assert composite.forms[1] == LexicalForms.of(*spellings).forms
        assert (composite.forms[1] is before) == (composite.forms[1] == before)
        assert _index_contents(index) == _index_contents(CompositeIndex(composite))
    # a spelling already present verbatim leaves the label as it is
    label = composite.forms[1]
    verbatim = data.draw(st.sampled_from(label))
    index.merge_label(1, verbatim, LexicalForms((verbatim,)).token_sets())
    assert composite.forms[1] is label
    # and a node spelled only one way takes that spelling without a fold
    lone = make_norm(norm_node(0, a.canonical, 0.0))
    label = lone.forms[0]
    with mock.patch("topicsift.model.fold", side_effect=AssertionError("folded")):
        lone.index().merge_label(0, a.canonical, LexicalForms(label).token_sets())
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
    assert all(sets == LexicalForms((label,)).token_sets() for label, sets in label_sets.items())


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
    writes."""
    docs = _variant_corpus(40, seed=7)
    path = tmp_path / "partial.json"
    for threshold in (0.0, 0.5, 1.0):
        expected = _saved(_fold(docs, threshold), scratch)
        for count in (1, 13, 27, 39):
            save_composite(_fold(docs[:count], threshold), path)
            composite = load_composite(path)
            for doc in docs[count:]:
                token_sets = doc.token_sets(composite.index().label_sets)
                _fold_document(composite, align_tree(doc, composite, threshold, token_sets=token_sets).pairs, doc, token_sets)
            assert _saved(composite, scratch) == expected


def test_loading_a_norm_folds_each_spelling_once(tmp_path):
    """Only labels of several spellings are folded, each spelling once, to
    drop duplicates; the deduplicated label is not validated again."""
    path = tmp_path / "norm.json"
    save_composite(_fold(_variant_corpus(40, seed=3), 0.5), path)
    with mock.patch("topicsift.model.fold", side_effect=fold) as counter:
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
    assert doc.labels == [node.label.canonical for node, _ in walked]
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
    expected = [LexicalForms((label,)).token_sets() for label in doc.labels]
    for memo in ({}, label_sets, label_sets):
        assert doc.token_sets(memo) == expected
    assert label_sets == {label: LexicalForms((label,)).token_sets() for label in other.labels + doc.labels}


queries = st.one_of(surface, st.sampled_from(["", "   ", "\t"]))


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
    assert all(sets == LexicalForms((label,)).token_sets() for label, sets in memo.items())


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
