"""The composite index, the per-document index and the fold against the
plain reference versions in oracles.py: label folding, label similarity,
alignment, query mapping, document typing, header parsing, the
possible-typical set, the built norm and the rendered trace must agree
exactly, also after merges change the norm."""
from __future__ import annotations

import argparse
import random
import re
import string
import sys
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicsift import (
    CompositeNode,
    CompositeTopicTree,
    CorpusSet,
    DocumentMetadata,
    DocumentTopicTree,
    LexicalForms,
    TopicNode,
    TypingParams,
    align_tree,
    assign_regions,
    assign_types,
    build_composite,
    default_lexicon,
    label_similarity,
    load_composite,
    map_query,
    merge,
    parse_document,
    plan,
    possible_typical_topics,
    realize_plan,
    save_composite,
    type_document,
)
from topicsift import cli, ingest
from topicsift.composite import _fold_document
from topicsift.model import (
    CompositeIndex,
    DocumentIndex,
    best_jaccard,
    fold,
    normalize,
    parent_map,
    sibling_rank_map,
    walk,
    walk_depth,
)

from conftest import make_doc
from oracles import (
    oracle_align_tree,
    oracle_build_composite,
    oracle_fold,
    oracle_label_similarity,
    oracle_map_query,
    oracle_merge,
    oracle_normalize,
    oracle_parse_document,
    oracle_possible_typical,
    oracle_trace_lines,
    oracle_type_document,
)

THRESHOLDS = (0.0, 0.3, 0.5, 1.0)

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
def documents(draw, doc_id="doc", node_labels=labels):
    """A document tree of 1..12 nodes in pre-order, random shape."""
    size = draw(st.integers(min_value=1, max_value=12))
    root = TopicNode(id=0, label=draw(node_labels))
    stack = [root]
    for node_id in range(1, size):
        depth = draw(st.integers(min_value=1, max_value=len(stack)))
        del stack[depth:]
        node = TopicNode(id=node_id, label=draw(node_labels))
        stack[-1].children.append(node)
        stack.append(node)
    return DocumentTopicTree(doc_id=doc_id, root=root, metadata=DocumentMetadata())


corpora = st.lists(documents(), min_size=1, max_size=5)


def _fold(docs, threshold):
    return build_composite(CorpusSet(docs=docs, origin="mem"), threshold)


def _saved(composite, directory) -> bytes:
    path = directory / "composite.json"
    save_composite(composite, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("saved")


def _index_contents(index: CompositeIndex):
    postings = {
        parent: {token: sorted(ids) for token, ids in by_token.items()}
        for parent, by_token in index.children_by_token.items()
    }
    return index.nodes, index.token_sets, index.parents, postings


@settings(max_examples=200, deadline=None)
@given(labels, labels)
def test_label_similarity_matches_oracle(a, b):
    assert label_similarity(a, b) == oracle_label_similarity(a, b)


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
        assert label_similarity(a, b) == oracle_label_similarity(a, b)
    assert label_similarity(LexicalForms.of("a b"), LexicalForms.of("b a")) == 1.0
    assert LexicalForms.of("??").token_sets() == ()


@settings(max_examples=80, deadline=None)
@given(corpora, documents("probe"), st.sampled_from(THRESHOLDS))
def test_alignment_matches_brute_force(docs, probe, threshold):
    composite = _fold(docs, threshold)
    alignment = align_tree(probe, composite, threshold)
    assert (alignment.pairs, alignment.unmatched) == oracle_align_tree(probe, composite, threshold)


def test_zero_threshold_scores_children_that_share_no_token():
    """At threshold 0 a score of 0 qualifies, so a child sharing no token with
    the label still wins on position over its parent."""
    def node(node_id, label, position, *children):
        return CompositeNode(id=node_id, label=LexicalForms.of(label), typicality=1.0,
                             position=position, support=1, children=list(children))

    root = node(0, "Disease", 0.0, node(1, "Treatment", 1.0, node(2, "Surgery", 0.0), node(3, "Drugs", 1.0)))
    composite = CompositeTopicTree(root=root, domain_genre="t", doc_count=1)
    doc = make_doc(("Disease", [("Treatment", ["Prognosis"])]))
    for threshold in THRESHOLDS:
        alignment = align_tree(doc, composite, threshold)
        assert (alignment.pairs, alignment.unmatched) == oracle_align_tree(doc, composite, threshold)
    assert align_tree(doc, composite, 0.0).pairs[2] == 2


@settings(max_examples=50, deadline=None)
@given(corpora, st.lists(documents("more"), min_size=1, max_size=4), st.sampled_from(THRESHOLDS), documents("probe"))
def test_index_stays_current_across_merges(docs, more, threshold, probe):
    composite = _fold(docs, threshold)
    composite.index()
    for doc in more:
        merge(composite, doc, align_tree(doc, composite, threshold))
        assert _index_contents(composite.index()) == _index_contents(CompositeIndex(composite.root))
        for node in composite.nodes():
            assert composite.node(node.id) is node
    alignment = align_tree(probe, composite, threshold)
    assert (alignment.pairs, alignment.unmatched) == oracle_align_tree(probe, composite, threshold)


@settings(max_examples=80, deadline=None)
@given(corpora, surface, st.sampled_from((0.0, 0.3, 0.5)))
def test_map_query_matches_full_scan(docs, query, tau):
    composite = _fold(docs, 0.5)
    assert map_query(query, composite, tau) == oracle_map_query(query, composite, tau)
    for doc in docs:
        assert map_query(query, doc, tau) == oracle_map_query(query, doc, tau)


@settings(max_examples=50, deadline=None)
@given(corpora, documents("late"), surface, st.integers(min_value=1, max_value=3), st.sampled_from((0.3, 0.5, 1.0)))
def test_possible_typical_memo_is_cleared_by_merge(docs, late, query, k, alpha):
    params = TypingParams(k=k, alpha=alpha, tau=0.3)
    composite = _fold(docs, 0.5)
    before = possible_typical_topics(composite, query, params)
    assert before == oracle_possible_typical(composite, query, k, alpha, 0.3)
    assert possible_typical_topics(composite, query, params) is before
    merge(composite, late, align_tree(late, composite, 0.5))
    after = possible_typical_topics(composite, query, params)
    assert after == oracle_possible_typical(composite, query, k, alpha, 0.3)


@settings(max_examples=60, deadline=None)
@given(corpora, st.lists(st.tuples(documents("probe"), st.sampled_from(THRESHOLDS)), min_size=1, max_size=6))
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
@given(corpora, documents("late"), documents("probe"), st.booleans(), st.sampled_from(THRESHOLDS))
def test_alignment_memo_is_cleared_by_merge(docs, late, probe, merge_probe, threshold):
    composite = _fold(docs, threshold)
    before = align_tree(probe, composite, threshold)
    assert (before.pairs, before.unmatched) == oracle_align_tree(probe, composite, threshold)
    if merge_probe:
        late = probe
    merge(composite, late, align_tree(late, composite, threshold))
    assert composite.index().alignments == {}
    after = align_tree(probe, composite, threshold)
    assert (after.pairs, after.unmatched) == oracle_align_tree(probe, composite, threshold)


def test_a_repeated_alignment_scores_no_candidate_and_the_build_fills_no_memo():
    docs = _variant_corpus(30, seed=5)
    memo_sizes = []
    clear_memos = CompositeIndex.clear_memos

    def watched(index):
        memo_sizes.append(len(index.alignments))
        clear_memos(index)

    with mock.patch.object(CompositeIndex, "clear_memos", watched):
        composite = _fold(docs, 0.5)
    assert memo_sizes == [0] * (len(docs) - 1)
    assert composite.index().alignments == {}
    probe = docs[7]
    with mock.patch("topicsift.composite.best_jaccard", side_effect=best_jaccard) as counter:
        first = align_tree(probe, composite, 0.5)
        scored = counter.call_count
        again = align_tree(probe, composite, 0.5)
    assert scored > 0
    assert counter.call_count == scored
    assert again == first
    assert 0 < len(composite.index().alignments) <= len(probe.nodes()) - 1


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
@given(labels, st.lists(labels, min_size=1, max_size=4), st.data())
def test_merged_label_equals_rebuilt_label(a, others, data):
    """Merging labels into a composite node's label one by one, as the fold
    does, equals building the label from every spelling at once, and leaves
    the index as a fresh one would be."""
    node = CompositeNode(id=1, label=a, typicality=1.0, position=0.0, support=1)
    sibling = CompositeNode(id=2, label=LexicalForms.of("risk drug"), typicality=1.0, position=1.0, support=1)
    root = CompositeNode(id=0, label=LexicalForms.of("Root"), typicality=1.0, position=0.0, support=1,
                         children=[node, sibling])
    index = CompositeIndex(root)
    spellings = list(a.forms)
    for other in others:
        before = node.label
        index.merge_label(node, other)
        spellings += other.forms
        assert node.label == LexicalForms.of(*spellings)
        assert (node.label is before) == (node.label.forms == before.forms)
        assert _index_contents(index) == _index_contents(CompositeIndex(root))
        if node.id in index.fold_keys:
            assert index.fold_keys[node.id] == {fold(form) for form in node.label.forms}
    # spellings already present verbatim leave the label as it is, without
    # a single fold
    label = node.label
    verbatim = LexicalForms(tuple(data.draw(st.lists(st.sampled_from(label.forms), min_size=1, unique=True))))
    with mock.patch("topicsift.model.fold", side_effect=AssertionError("folded")):
        index.merge_label(node, verbatim)
    assert node.label is label


@settings(max_examples=80, deadline=None)
@given(corpora, st.sampled_from((0.0, 0.5, 1.0)))
def test_build_matches_full_walk_build(scratch, docs, threshold):
    expected = _saved(oracle_build_composite(docs, threshold, "mem"), scratch)
    assert _saved(_fold(docs, threshold), scratch) == expected


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
        assert _saved(composite, scratch) == _saved(oracle_build_composite(docs, threshold, "mem"), scratch)
    positions = [child.position for child in composite.root.children]
    assert len(set(positions)) < len(positions)


@settings(max_examples=50, deadline=None)
@given(corpora, st.lists(documents("more"), min_size=1, max_size=4), st.sampled_from((0.0, 0.5, 1.0)))
def test_public_merge_refreshes_typicality_like_the_full_walk(scratch, docs, more, threshold):
    composite = _fold(docs, threshold)
    reference = oracle_build_composite(docs, threshold, "mem")
    for doc in more:
        merge(composite, doc, align_tree(doc, composite, threshold))
        oracle_merge(reference, doc, oracle_align_tree(doc, reference, threshold)[0])
        for node in composite.nodes():
            assert node.typicality == node.support / composite.doc_count
        assert _saved(composite, scratch) == _saved(reference, scratch)


def test_fold_cost_does_not_grow_with_a_labels_spellings():
    """Every document has its own title, so the root gains one spelling per
    document; folding document 200 in folds no more strings than folding
    document 20 did."""
    docs = [
        make_doc((f"Angina guide {number}", ["Symptoms" if number % 2 else "SYMPTOMS:", ("Treatment", ["Drugs"])]))
        for number in range(1, 201)
    ]
    composite = _fold(docs[:1], 0.5)
    calls = {}
    for number, doc in enumerate(docs[1:], start=2):
        index = DocumentIndex(doc.root)
        alignment = align_tree(doc, composite, 0.5, index=index)
        with mock.patch("topicsift.model.fold", side_effect=fold) as counter:
            _fold_document(composite, alignment, index)
        calls[number] = counter.call_count
    assert len(composite.root.label.forms) == 200
    assert calls[20] == calls[200]


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
        assert _saved(composite, scratch) == _saved(oracle_build_composite(docs, threshold, "mem"), scratch)
        index = composite.index()
        assert _index_contents(index) == _index_contents(CompositeIndex(composite.root))
        for node_id, keys in index.fold_keys.items():
            assert keys == {fold(form) for form in index.nodes[node_id].label.forms}
    assert len(composite.root.label.forms) == 60
    assert max(len(node.label.forms) for node in composite.root.children) > 3


def test_loading_a_norm_folds_each_spelling_once(tmp_path):
    """Only labels of several spellings are folded, each spelling once, to
    drop duplicates; the deduplicated label is not validated again."""
    path = tmp_path / "norm.json"
    save_composite(_fold(_variant_corpus(40, seed=3), 0.5), path)
    with mock.patch("topicsift.model.fold", side_effect=fold) as counter:
        loaded = load_composite(path)
    spellings = sum(len(node.label.forms) for node in walk(loaded.root) if len(node.label.forms) > 1)
    assert spellings > 40
    assert counter.call_count == spellings


def test_fresh_ids_follow_the_largest_loaded_id(tmp_path, scratch):
    """A norm with ids 0, 5 and 9 takes new topics from 10 upward, as the
    full-walk merge does."""
    path = tmp_path / "gappy.json"
    path.write_text(
        '{"version": "1", "domain_genre": "g", "doc_count": 1, "root": '
        '{"id": 0, "forms": ["Disease"], "position": 0.0, "support": 1, "children": ['
        '{"id": 9, "forms": ["Symptoms"], "position": 0.0, "support": 1, "children": []}, '
        '{"id": 5, "forms": ["Treatment"], "position": 1.0, "support": 1, "children": []}]}}',
        encoding="utf-8",
    )
    doc = make_doc(("Disease", [("Symptoms", ["Chest pain"]), "Prognosis", ("Diet", ["Salt"])]))
    composite, reference = load_composite(path), load_composite(path)
    merge(composite, doc, align_tree(doc, composite, 0.5))
    oracle_merge(reference, doc, oracle_align_tree(doc, reference, 0.5)[0])
    assert sorted(node.id for node in composite.nodes()) == [0, 5, 9, 10, 11, 12, 13]
    assert _saved(composite, scratch) == _saved(reference, scratch)


@st.composite
def relabeled_documents(draw):
    """A random document whose node ids are distinct arbitrary integers, not
    pre-order positions."""
    doc = draw(documents())
    nodes = list(walk(doc.root))
    ids = draw(st.lists(st.integers(-50, 50), min_size=len(nodes), max_size=len(nodes), unique=True))
    for node, node_id in zip(nodes, ids):
        node.id = node_id
    return doc


@settings(max_examples=150, deadline=None)
@given(relabeled_documents())
def test_document_index_matches_the_tree_walks(doc):
    index = DocumentIndex(doc.root)
    preorder = list(walk(doc.root))
    assert list(index.nodes) == [node.id for node in preorder]
    assert all(index.nodes[node.id] is node for node in preorder)
    assert index.parents == parent_map(doc.root)
    assert index.depths == {node.id: depth for node, depth in walk_depth(doc.root)}
    assert index.ranks == sibling_rank_map(doc.root)
    assert index.token_sets == {node.id: node.label.token_sets() for node in preorder}
    assert list(index.token_sets) == list(index.nodes)


@settings(max_examples=50, deadline=None)
@given(documents(), st.data())
def test_document_index_rejects_duplicate_ids(doc, data):
    nodes = list(walk(doc.root))
    if len(nodes) < 2:
        nodes[0].children.append(TopicNode(id=nodes[0].id, label=nodes[0].label))
    else:
        first, second = data.draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique_by=id))
        second.id = first.id
    with pytest.raises(ValueError, match="duplicate node id"):
        DocumentIndex(doc.root)


queries = st.one_of(surface, st.sampled_from(["", "   ", "\t"]))


@settings(max_examples=120, deadline=None)
@given(
    corpora,
    documents("probe"),
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
    assert {node_id: t.value for node_id, t in typed.types.items()} == types
    assert list(typed.types) == list(types)
    assert (alignment.pairs, alignment.unmatched) == (pairs, unmatched)
    # the same stages called one by one, each building its own index
    assert map_query(query, probe, tau) == query_node
    assert align_tree(probe, composite, threshold) == alignment
    if query_node is not None:
        regions = assign_regions(probe, query_node, k)
        alone = assign_types(probe, regions, composite, alignment, alpha, query=query, query_node=query_node)
        assert alone == typed


def _breaks_only_at_newlines(text: str) -> bool:
    """True when "\n" is the only character of text that str.splitlines
    splits at."""
    return all(char == "\n" or len(f"a{char}b".splitlines()) == 1 for char in set(text))


@contextmanager
def _watched_scans():
    """Count the calls of the one-scan and the per-line header scan."""
    with mock.patch.object(ingest, "_scan_headers", wraps=ingest._scan_headers) as one_scan, \
            mock.patch.object(ingest, "_scan_header_lines", wraps=ingest._scan_header_lines) as per_line:
        yield one_scan, per_line


line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
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


@settings(max_examples=300, deadline=None)
@given(header_texts)
def test_prefiltered_parse_matches_the_per_line_scan(text):
    with _watched_scans() as (one_scan, per_line):
        assert parse_document(text, "d.md") == oracle_parse_document(text, "d.md")
    assert (one_scan.call_count, per_line.call_count) == ((1, 0) if _breaks_only_at_newlines(text) else (0, 1))


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
    with _watched_scans() as (one_scan, per_line):
        assert parse_document(text, "d.md") == oracle_parse_document(text, "d.md")
    assert (one_scan.call_count, per_line.call_count) == (1, 0)


def test_each_line_break_style_takes_its_scan():
    text = "---\ntitle: T\n---\n# Top  \n## Sub\t\n\n\nbody\n####### no\n#\tno\n### Deep\xa0\n## Last"
    with _watched_scans() as (one_scan, per_line):
        newline_doc = parse_document(text, "d.md")
        assert (one_scan.call_count, per_line.call_count) == (1, 0)
        crlf_doc = parse_document(text.replace("\n", "\r\n"), "d.md")
        assert (one_scan.call_count, per_line.call_count) == (1, 1)
    assert newline_doc == oracle_parse_document(text, "d.md")
    assert crlf_doc == oracle_parse_document(text.replace("\n", "\r\n"), "d.md")
    assert [node.label.canonical for node in walk(newline_doc.root)] == ["T", "Top", "Sub", "Deep", "Last"]
    spans = [text[slice(*node.source_span)] for node in walk(newline_doc.root) if node.source_span]
    assert spans == ["# Top  ", "## Sub\t", "### Deep\xa0", "## Last"]


# labels whose JSON text needs escapes, or differs with ensure_ascii: quotes,
# backslashes, control and separator characters, non-ASCII text and lone
# surrogates, around the shared vocabulary so documents still align
escaped = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\t", "é", "漢", "\u2028", "\ud800", "\udfff", "\U0001f600"])
trace_labels = st.one_of(
    labels,
    st.builds(lambda word, marks, first: marks + " " + word if first else word + marks,
              words, st.lists(escaped, min_size=1, max_size=3).map("".join), st.booleans()).map(LexicalForms.of),
)


def _trace_documents(count_range=(1, 4)):
    return st.integers(*count_range).flatmap(
        lambda count: st.tuples(*(documents(f"d{index}.md", trace_labels) for index in range(count))).map(list)
    )


def _both_traces(docs, composite, query, params, threshold, seed=0, limit=5):
    """cli._trace_lines and the walk_depth oracle over one summarize run."""
    results = cli._run_pipeline(docs, composite, query, params, threshold)
    splan = plan([(result.typed, result.category) for result in results])
    titles = {result.typed.doc.doc_id: result.typed.doc.display_title() for result in results}
    realized = realize_plan(splan, default_lexicon(), seed, titles=titles, limit=limit)
    args = argparse.Namespace(limit=limit, seed=seed, align_threshold=threshold)
    rendered = (query, params, args, composite, results, splan, realized)
    return cli._trace_lines(*rendered), oracle_trace_lines(*rendered)


@settings(max_examples=100, deadline=None)
@given(
    _trace_documents(),
    _trace_documents(),
    st.one_of(surface, trace_labels.map(lambda label: label.canonical)),
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
