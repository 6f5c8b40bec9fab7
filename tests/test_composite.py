from __future__ import annotations

import gc
import json
import math
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from topicsift import (
    CompositeSchemaError,
    CompositeTopicTree,
    CorpusSet,
    DocumentMetadata,
    DocumentTopicTree,
    EmptyCorpusError,
    align_tree,
    build_composite,
    load_composite,
    normalize,
    parse_document,
    save_composite,
)
from topicsift import cli
from topicsift.model import LINE_BREAKS, best_jaccard, token_sets_of

from conftest import FIXTURES, GOLDEN, make_doc, make_norm, norm_node, write_corpus
from oracles import (
    node_map,
    oracle_composite_text,
    oracle_load_composite,
    oracle_merge_forms,
    oracle_norm,
    parent_map,
    walk,
)


def corpus_of(*docs):
    return CorpusSet(docs=list(docs), origin="mem")


def similarity(a, b):
    """What alignment scores two labels, tuples of spellings, by: the best
    token-set Jaccard."""
    return best_jaccard(token_sets_of(a), token_sets_of(b))


# --- label similarity ---------------------------------------------------------

def test_shared_variant_unifies():
    assert similarity(("Symptoms",), ("Signs", "Symptoms")) == 1.0


def test_identical_label():
    assert similarity(("Definition",), ("Definition",)) == 1.0


def test_token_jaccard_half():
    # hand-derived: |{treatment}| / |{drug, treatment}| = 0.5
    assert similarity(("drug treatment",), ("treatment",)) == 0.5


def test_similarity_ignores_case_and_trailing_punctuation():
    assert similarity(("Symptoms:",), ("symptoms",)) == 1.0


def test_similarity_symmetric_and_bounded():
    rng = random.Random(7)
    pool = ["alpha", "beta gamma", "beta", "delta epsilon zeta", "??"]
    for _ in range(50):
        a = (rng.choice(pool),)
        b = (rng.choice(pool),)
        s = similarity(a, b)
        assert s == similarity(b, a)
        assert 0.0 <= s <= 1.0


def test_punctuation_only_labels_never_match():
    assert similarity(("??",), ("!!",)) == 0.0


# --- alignment ------------------------------------------------------------------

def test_identity_alignment_matches_everything():
    doc = make_doc(("Disease", ["Symptoms", ("Treatment", ["Surgery"])]))
    composite = build_composite(corpus_of(doc), 0.5)
    again = make_doc(("Disease", ["Symptoms", ("Treatment", ["Surgery"])]), doc_id="again")
    alignment = align_tree(again, composite, 0.5)
    assert not alignment.unmatched
    assert len(alignment.pairs) == 4


def test_novel_header_is_unmatched():
    composite = build_composite(corpus_of(make_doc(("Disease", ["Symptoms"]))), 0.5)
    doc = make_doc(("Disease", ["Symptoms", "Prognosis"]), doc_id="d2")
    alignment = align_tree(doc, composite, 0.5)
    assert doc.labels.index("Prognosis") in alignment.unmatched


def test_roots_always_align_even_without_similarity():
    composite = build_composite(corpus_of(make_doc(("Angina", []))), 0.5)
    doc = make_doc(("Completely different", []), doc_id="d2")
    alignment = align_tree(doc, composite, 0.5)
    assert alignment.pairs == {0: composite.root}


def test_equal_similarity_tie_breaks_to_lower_position():
    composite = make_norm(norm_node(
        0, "Disease", 0.0, norm_node(2, "Laser treatment", 0.0), norm_node(1, "Drug treatment", 1.0)
    ))
    doc = make_doc(("Disease", ["Treatment"]), doc_id="d")
    alignment = align_tree(doc, composite, 0.4)
    assert alignment.pairs[doc.labels.index("Treatment")] == 2


def test_position_tie_breaks_to_lower_id():
    composite = make_norm(norm_node(
        0, "Disease", 0.0, norm_node(1, "Drug treatment", 0.5), norm_node(2, "Laser treatment", 0.5)
    ))
    doc = make_doc(("Disease", ["Treatment"]), doc_id="d")
    alignment = align_tree(doc, composite, 0.4)
    assert alignment.pairs[doc.labels.index("Treatment")] == 1


def test_level_skip_absorbed_by_parent_match():
    first = make_doc(("Disease", ["Treatment"]))
    composite = build_composite(corpus_of(first), 0.5)
    doc = make_doc(("Disease", [("Treatment", ["Drug treatment"])]), doc_id="d2")
    alignment = align_tree(doc, composite, 0.5)
    treatment, drug = doc.labels.index("Treatment"), doc.labels.index("Drug treatment")
    assert alignment.pairs[drug] == alignment.pairs[treatment]
    # the document still raises that topic's support only once
    merged = build_composite(corpus_of(first, doc), 0.5)
    assert merged.supports[alignment.pairs[treatment]] == 2
    assert merged.doc_count == 2


def _check_alignment_invariants(doc, composite, alignment):
    assert set(alignment.pairs) | alignment.unmatched == set(doc.nodes())
    assert not set(alignment.pairs) & alignment.unmatched
    comp_nodes = node_map(oracle_norm(composite).root)
    for node_id, comp_id in alignment.pairs.items():
        parent = doc.parents[node_id]
        if parent < 0 or parent not in alignment.pairs:
            continue
        parent_comp = comp_nodes[alignment.pairs[parent]]
        assert comp_id in {n.id for n in walk(parent_comp)}


def _random_doc(rng, doc_id, pool, size):
    """Each node the last child of a random earlier one."""
    root = (rng.choice(pool), [])
    nodes = [root]
    for _ in range(1, size):
        node = (rng.choice(pool), [])
        rng.choice(nodes)[1].append(node)
        nodes.append(node)
    return make_doc(root, doc_id=doc_id)


def test_alignment_invariants_on_random_trees():
    rng = random.Random(2024)
    pool = ["symptoms", "signs", "drug treatment", "treatment", "causes", "risk factors", "surgery"]
    for trial in range(60):
        base = _random_doc(rng, "base", pool, rng.randint(1, 10))
        other = _random_doc(rng, "other", pool, rng.randint(1, 10))
        composite = build_composite(corpus_of(base), 0.5)
        alignment = align_tree(other, composite, rng.choice([0.3, 0.5, 0.8]))
        _check_alignment_invariants(other, composite, alignment)


# --- build ----------------------------------------------------------------------

def test_merging_identical_document_is_structural_fixed_point():
    doc = make_doc(("Disease", ["Symptoms", "Treatment"]))
    again = make_doc(("Disease", ["Symptoms", "Treatment"]), doc_id="again")
    merged = build_composite(corpus_of(doc, again), 0.5)
    assert merged.doc_count == 2
    for node in merged.nodes():
        assert node.support == 2
        assert node.typicality == 1.0


def test_nineteen_of_twenty_documents_gives_095():
    docs = [
        make_doc(("Disease", ["Symptoms", "Treatment"] if i < 19 else ["Treatment"]), doc_id=f"d{i:02d}")
        for i in range(20)
    ]
    composite = build_composite(corpus_of(*docs), 0.5)
    by_label = {normalize(n.forms[0]): n for n in composite.nodes()}
    assert by_label["symptoms"].typicality == 0.95
    assert by_label["symptoms"].support == 19
    assert by_label["treatment"].typicality == 1.0


def test_new_sibling_in_last_of_four_docs():
    docs = [make_doc(("Disease", ["A", "B"]), doc_id=f"d{i}") for i in range(3)]
    docs.append(make_doc(("Disease", ["A", "B", "C"]), doc_id="d3"))
    composite = build_composite(corpus_of(*docs), 0.5)
    c = {normalize(n.forms[0]): n for n in composite.nodes()}["c"]
    assert c.typicality == 0.25
    assert c.support == 1
    # only contribution: sibling index 2 of 3 -> rank 2 / (3 - 1) = 1.0
    assert c.position == 1.0


def test_single_document_corpus_is_isomorphic():
    doc = make_doc(("Disease", ["Symptoms", ("Treatment", ["Surgery"])]))
    composite = build_composite(corpus_of(doc), 0.5)
    assert [n.forms[0] for n in composite.nodes()] == doc.labels
    assert all(n.typicality == 1.0 for n in composite.nodes())
    assert composite.doc_count == 1


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_first_document_header_repeating_its_title_stays_a_child(threshold):
    """The first document is folded without being aligned, so a header that
    matches its root exactly is still a topic of its own."""
    doc = parse_document("# Angina\n\n## Angina\n\n### Causes\n\n## Treatment\n", "doc")
    composite = build_composite(corpus_of(doc), threshold)
    norm_parents = parent_map(oracle_norm(composite).root)
    assert [(n.id, n.forms, norm_parents[n.id]) for n in composite.nodes()] == [
        (node_id, (label,), None if parent < 0 else parent)
        for node_id, (label, parent) in enumerate(zip(doc.labels, doc.parents))
    ]
    assert [composite.forms[child][0] for child in composite.children[composite.root]] == ["Angina", "Treatment"]
    assert all(n.support == 1 and n.typicality == 1.0 for n in composite.nodes())


def test_hand_built_first_document_gives_the_norm_its_ids():
    """A document's ids are its list positions, so the first document's
    topics keep their ids and parents in the norm."""
    doc = DocumentTopicTree(
        "doc", ["Disease", "Symptoms", "Pain", "Treatment"], [-1, 0, 1, 0], [0, 1, 2, 1], DocumentMetadata()
    )
    composite = build_composite(corpus_of(doc), 0.5)
    assert [(n.id, n.forms[0]) for n in composite.nodes()] == [
        (0, "Disease"), (1, "Symptoms"), (2, "Pain"), (3, "Treatment")
    ]
    assert parent_map(oracle_norm(composite).root) == {0: None, 1: 0, 2: 1, 3: 0}


@pytest.mark.parametrize(
    "labels, parents, depths",
    [([" "], [-1], [0]), (["Disease", "\t"], [-1, 0], [0, 1]), (["Disease", "Symptoms", " "], [-1, 0, 1], [0, 1, 2])],
)
@pytest.mark.parametrize("first", [True, False])
def test_a_blank_label_in_a_hand_built_document_stops_the_build(labels, parents, depths, first):
    """A blank label would give the norm a spelling its file cannot hold,
    whether it would start the norm, be inserted or be merged into a node:
    the build refuses it before it compares any label."""
    blank = DocumentTopicTree("blank", labels, parents, depths, DocumentMetadata())
    other = make_doc(("Disease", ["Symptoms"]), doc_id="other")
    with pytest.raises(ValueError, match="blank"):
        build_composite(corpus_of(*([blank, other] if first else [other, blank])), 0.5)


def test_ten_identical_documents_idempotent():
    docs = [make_doc(("Disease", ["Symptoms", "Treatment"]), doc_id=f"d{i}") for i in range(10)]
    composite = build_composite(corpus_of(*docs), 0.5)
    assert composite.doc_count == 10
    assert [n.forms[0] for n in composite.nodes()] == ["Disease", "Symptoms", "Treatment"]
    assert all(n.typicality == 1.0 for n in composite.nodes())


def test_typicality_equals_brute_force_document_frequency(tmp_path):
    """4-doc corpus with controlled overlap: per-node typicality must equal
    the document frequency counted directly off the files."""
    files = {
        "f1.md": "# Disease\n## Symptoms\n## Treatment\n## Causes\n## Prognosis\n",
        "f2.md": "# Disease\n## Symptoms\n## Treatment\n## Causes\n",
        "f3.md": "# Disease\n## Symptoms\n## Treatment\n",
        "f4.md": "# Disease\n## Symptoms\n",
    }
    corpus_dir = write_corpus(tmp_path / "c", files)

    # independent frequency count straight off the file texts
    doc_freq: dict[str, int] = {}
    for text in files.values():
        seen = {normalize(line.lstrip("# ")) for line in text.splitlines() if line.startswith("#")}
        for label in seen:
            doc_freq[label] = doc_freq.get(label, 0) + 1

    from topicsift import load_corpus

    composite = build_composite(load_corpus(corpus_dir), 0.5)
    assert composite.doc_count == 4
    for node in composite.nodes():
        expected = doc_freq[normalize(node.forms[0])] / 4
        assert node.typicality == expected
        assert node.support == doc_freq[normalize(node.forms[0])]


def test_exact_match_corpora_are_permutation_invariant():
    spec = ("Disease", ["Symptoms", ("Treatment", ["Surgery"]), "Causes"])
    docs = [make_doc(spec, doc_id=f"d{i}") for i in range(4)]
    forward = build_composite(corpus_of(*docs), 0.5)
    backward = build_composite(corpus_of(*reversed(docs)), 0.5)
    assert forward == backward


def test_build_is_deterministic():
    docs = [
        make_doc(("Disease", ["Symptoms", "Treatment"]), doc_id="a"),
        make_doc(("Disease", ["Treatment", "Prognosis"]), doc_id="b"),
    ]
    assert build_composite(corpus_of(*docs), 0.5) == build_composite(corpus_of(*docs), 0.5)


def test_empty_corpus_is_an_error():
    with pytest.raises(EmptyCorpusError):
        build_composite(CorpusSet(docs=[], origin="x"), 0.5)


def test_alignment_threshold_validated():
    composite = build_composite(corpus_of(make_doc(("D", []))), 0.5)
    with pytest.raises(ValueError):
        align_tree(make_doc(("D", [])), composite, 1.5)
    with pytest.raises(ValueError):
        build_composite(corpus_of(make_doc(("D", []))), 1.5)


# --- serialization --------------------------------------------------------------

def test_round_trip_is_lossless(tmp_path):
    docs = [
        make_doc(("Disease", ["Symptoms", ("Treatment", ["Surgery"])]), doc_id="a"),
        make_doc(("Disease", ["Symptoms", "Causes"]), doc_id="b"),
        make_doc(("Disease", ["What are the risks?"]), doc_id="c"),
    ]
    composite = build_composite(corpus_of(*docs), 0.5)
    path = tmp_path / "composite.json"
    save_composite(composite, path)
    assert load_composite(path) == composite


def test_save_is_byte_deterministic(tmp_path):
    doc = make_doc(("Disease", ["Symptoms"]))
    composite = build_composite(corpus_of(doc), 0.5)
    save_composite(composite, tmp_path / "one.json")
    save_composite(composite, tmp_path / "two.json")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_built_angina_norm_matches_the_golden_file(tmp_path, angina_reference):
    """The angina build writes the pinned composite byte for byte, as the
    oracle writer writes it."""
    path = tmp_path / "composite.json"
    assert cli.main(["build", str(angina_reference), str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "angina_composite.json").read_bytes()
    assert oracle_composite_text(oracle_load_composite(path)).encode("utf-8") == path.read_bytes()


def test_built_multi_spelling_norm_matches_the_golden_file(tmp_path):
    """Headers that spell one topic several ways, with a quote, a backslash,
    a tab and a non-ASCII letter: the writer's bytes for labels of several
    escaped forms are pinned too."""
    path = tmp_path / "composite.json"
    assert cli.main(["build", str(FIXTURES / "spellings" / "reference"), str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "spellings_composite.json").read_bytes()


@pytest.mark.parametrize("name", ["angina_composite.json", "spellings_composite.json"])
def test_loading_and_saving_a_golden_norm_gives_its_bytes(tmp_path, name):
    """Labels of one spelling and of several read back as the writer wrote
    them."""
    path = tmp_path / name
    save_composite(load_composite(GOLDEN / name), path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def test_save_composite_leaves_no_reference_cycle(tmp_path):
    """The CLI pauses the cyclic collector for a command, so a save frees
    what it made by reference counting alone, and writes the same bytes."""
    composite = load_composite(GOLDEN / "angina_composite.json")
    path = tmp_path / "composite.json"
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        save_composite(composite, path)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert path.read_bytes() == (GOLDEN / "angina_composite.json").read_bytes()


def test_the_domain_genre_is_written_as_json_dumps_writes_it(tmp_path):
    """A quote, a backslash, a tab, a non-ASCII letter and U+2028, which JSON
    leaves unescaped: the header line is json.dumps's, byte for byte. The
    norm is made by hand, as a build and a load refuse the line break."""
    genre = 'a "quoted" \\ back\tslash caf\u00e9\u2028next'
    path = tmp_path / "composite.json"
    save_composite(CompositeTopicTree(genre, 1, 0, {0: ("Root",)}, {0: None}, {0: 1}, {0: 0.0}, {0: []}), path)
    header = path.read_bytes().split(b"\n")[2]
    assert header == f'  "domain_genre": {json.dumps(genre, ensure_ascii=False)},'.encode("utf-8")


def _minimal_payload(**overrides):
    payload = {
        "version": "1",
        "domain_genre": "test",
        "doc_count": 1,
        "root": {
            "id": 0,
            "forms": ["Topic"],
            "typicality": 1.0,
            "position": 0.0,
            "support": 1,
            "children": [],
        },
    }
    payload.update(overrides)
    return payload


# quotes, backslashes, control characters, line and paragraph separators
# (which JSON leaves unescaped), non-ASCII text and surrogates (which only a
# JSON escape carries; a high one escaped just before a low one decodes as
# one character outside the Basic Multilingual Plane)
json_text = st.text(alphabet=st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\x85\u2028\u2029é中😀\ud800\udfff'), st.characters()))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(json_text.filter(str.strip), min_size=1, max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example(["\ud800\udfff"], 0.0)
@example(["\ud800\udfff", "\U000103ff"], 0.0)
@example(["\udfff\ud800"], 0.0)
def test_emitted_forms_and_position_match_json_dumps(texts, position):
    """Forms and positions survive load and save as json.dumps writes them,
    line and paragraph separators too; a form holding a surrogate that is
    still lone once the JSON is decoded, which no UTF-8 file can hold, is
    refused on load."""
    label = oracle_merge_forms(*texts)
    payload = _minimal_payload()
    payload["root"].update(forms=list(label), position=position)
    decoded = json.loads(json.dumps(list(label)))
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "c.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        if any("\ud800" <= char <= "\udfff" for form in decoded for char in form):
            with pytest.raises(CompositeSchemaError, match="^node 0: form .* holds text that is not valid UTF-8$"):
                load_composite(path)
            return
        save_composite(load_composite(path), path)
        lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[7] == '    "forms": ' + json.dumps(list(oracle_merge_forms(*decoded)), ensure_ascii=False) + ","
    assert lines[9] == '    "position": ' + json.dumps(position) + ","


def test_minimal_hand_written_file_loads(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_minimal_payload()), encoding="utf-8")
    composite = load_composite(path)
    assert composite.doc_count == 1
    assert composite.forms[composite.root] == ("Topic",)
    assert composite.nodes()[0].typicality == 1.0
    assert composite.children[composite.root] == []


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda p: p.update(version="2"), "version"),
        (lambda p: p["root"].update(support=5), "exceeds doc_count"),
        (lambda p: p["root"].update(support=0), ">= 1"),
        (lambda p: p["root"].update(forms=[]), "forms"),
        (lambda p: p.update(doc_count=0), "doc_count"),
        (lambda p: p["root"].update(position=float("nan")), "finite"),
        (lambda p: p["root"].update(position=float("inf")), "finite"),
        (lambda p: p["root"].update(position=float("-inf")), "finite"),
        (lambda p: p["root"].update(position=10**400), "finite"),
    ],
)
def test_schema_violations_are_descriptive(tmp_path, mutate, fragment):
    payload = _minimal_payload()
    mutate(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CompositeSchemaError, match=fragment):
        load_composite(path)


@pytest.mark.parametrize("genre", [f"a{mark}b" for mark in LINE_BREAKS] + ["x\udcff"])
def test_a_domain_genre_that_is_not_one_line_of_utf8_is_refused_by_load_and_build(tmp_path, genre):
    """The trace prints the genre on one line and the norm file stores it as
    UTF-8; JSON's \\u escape can carry a lone surrogate into a loaded one."""
    payload = _minimal_payload()
    payload["domain_genre"] = genre
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CompositeSchemaError, match="domain genre"):
        load_composite(path)
    with pytest.raises(CompositeSchemaError, match="domain genre"):
        build_composite(corpus_of(make_doc(("Topic", []))), 0.5, domain_genre=genre)


def test_root_support_must_cover_every_document(tmp_path):
    payload = _minimal_payload(doc_count=3)
    payload["root"]["support"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CompositeSchemaError, match="root support"):
        load_composite(path)


def test_invalid_json_is_a_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CompositeSchemaError):
        load_composite(path)


def _chain_payload(nodes):
    """A valid norm payload of nodes, each the only child of the one before."""
    root = node = {"id": 0, "forms": ["t"], "position": 0.0, "support": 1, "children": []}
    for node_id in range(1, nodes):
        child = {"id": node_id, "forms": ["t"], "position": 0.0, "support": 1, "children": []}
        node["children"].append(child)
        node = child
    return {"version": "1", "domain_genre": "g", "doc_count": 1, "root": root}


def test_a_norm_half_the_recursion_limit_deep_loads_and_saves(tmp_path, monkeypatch):
    """The payload is handed to the loader decoded, as json on some Pythons
    refuses a file this deep before the loader sees it."""
    depth = sys.getrecursionlimit() // 2
    monkeypatch.setattr("topicsift.composite.read_json", lambda *args: _chain_payload(depth + 1))
    composite = load_composite(tmp_path / "deep.json")
    assert max(level for _, level in composite.preorder()) == depth
    save_composite(composite, tmp_path / "saved.json")


@pytest.mark.parametrize(
    "fault, message",
    [(None, "composite file {path} is nested too deeply"), (1, "node 1: support must be >= 1")],
    ids=["too-deep", "fault-read-first"],
)
def test_a_norm_deeper_than_half_the_recursion_limit_is_refused(tmp_path, monkeypatch, fault, message):
    """Whatever depth json itself decodes, one level past the bound is
    "nested too deeply"; a fault in a node read before it is named first."""
    payload = _chain_payload(sys.getrecursionlimit() // 2 + 2)
    if fault is not None:
        node = payload["root"]
        for _ in range(fault):
            node = node["children"][0]
        node["support"] = 0
    monkeypatch.setattr("topicsift.composite.read_json", lambda *args: payload)
    path = tmp_path / "deep.json"
    with pytest.raises(CompositeSchemaError) as caught:
        load_composite(path)
    assert str(caught.value) == message.format(path=path)


def test_typicality_rederived_from_support(tmp_path):
    payload = _minimal_payload(doc_count=4)
    payload["root"].update(support=4, typicality=0.123)  # stale value on disk
    child = {"id": 1, "forms": ["Symptoms"], "typicality": 0.9, "position": 0.0, "support": 3, "children": []}
    payload["root"]["children"] = [child]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    composite = load_composite(path)
    assert [node.typicality for node in composite.nodes()] == [1.0, 0.75]


_FAULTS = {
    "id": ["1", True, None, 2.0, "duplicate"],
    "forms": [
        [], [" "], ["Topic", 3], "Topic", ["topic", "TOPIC", "Other"], ["Topic", "Other\udfff"],
        # one form, the loader's own path: a number, null, an empty string, a lone surrogate (a JSON escape)
        [3], [None], [""], ["\ud800"],
    ],
    "support": [0, -1, True, 1.5, 10**6],
    "position": [math.nan, math.inf, True, "0", 10**400, -2.0],
    "children": [{}, "x", None, []],
    "node": [[], "x", None],
}
_forms = st.lists(st.sampled_from(["Topic", "topic", "Topic!", "Other", "B"]), min_size=1, max_size=3)
_norm_nodes = st.lists(
    st.tuples(st.integers(0, 10**6), _forms, st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(1, 4)),
    min_size=1,
    max_size=12,
)


def _norm_payload(nodes, parents, doc_count):
    """A valid norm payload: node i hangs under node parents[i] (< i), the
    root under none; ids are drawn, so they follow no order."""
    items = []
    for index, (node_id, forms, position, support) in enumerate(nodes):
        items.append({
            "id": index * 10**7 + node_id,
            "forms": forms,
            "typicality": 0.5,
            "position": position,
            "support": doc_count if index == 0 else min(support, doc_count),
            "children": [],
        })
    for index, parent in enumerate(parents, 1):
        items[parent]["children"].append(items[index])
    return {"version": "1", "domain_genre": "g", "doc_count": doc_count, "root": items[0]}, items


def _package_text(path):
    saved = Path(path).with_suffix(".saved")
    save_composite(load_composite(path), saved)
    return saved.read_text(encoding="utf-8")


def _oracle_text(path):
    return oracle_composite_text(oracle_load_composite(path))


def _loaded_norm(text_of, path):
    try:
        return "loaded", text_of(path)
    except CompositeSchemaError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(
    _norm_nodes,
    st.data(),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 11), st.sampled_from(sorted(_FAULTS)), st.integers(0, 5), st.booleans()), max_size=3),
)
def test_load_composite_equals_the_recursive_parser(nodes, data, doc_count, faults):
    """load_composite checks the nodes in one pre-order loop; with zero to
    three faults at drawn nodes it fails with the recursive parser's first
    message, or loads a norm that save_composite writes as the oracle writer
    writes the recursive parser's norm."""
    parents = [data.draw(st.integers(0, index - 1)) for index in range(1, len(nodes))]
    payload, items = _norm_payload(nodes, parents, doc_count)
    # where each node sits: (the list or object holding it, its key there)
    places = {id(payload["root"]): (payload, "root")}
    for item in items:
        for offset, child in enumerate(item["children"]):
            places[id(child)] = (item["children"], offset)
    root_id = items[0]["id"]
    for index, field, choice, delete in faults:
        item = items[index % len(items)]
        values = _FAULTS[field]
        value = values[choice % len(values)]
        if field == "node":
            holder, key = places[id(item)]
            holder[key] = value
        elif delete:
            item.pop(field, None)
        else:
            item[field] = root_id if value == "duplicate" else value
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "norm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        expected = _loaded_norm(_oracle_text, path)
        event(re.sub(r"\d+", "N", expected[1]) if expected[0] == "error" else "loaded")
        assert _loaded_norm(_package_text, path) == expected


_NOT_A_LIST = "node 20000002: forms must be a non-empty list of strings"
# forms values pinned to the message they raise at the third node: not a
# list, and each bad form alone, first and second
_PINNED_FORMS = [
    ([], _NOT_A_LIST),
    (None, _NOT_A_LIST),
    ("Topic", _NOT_A_LIST),
    *(
        (forms, message)
        for bad, message in (
            (3, _NOT_A_LIST),
            (" ", _NOT_A_LIST),
            ("\ud800", "node 20000002: form '\\ud800' holds text that is not valid UTF-8"),
        )
        for forms in ([bad], [bad, "Topic"], ["Topic", bad])
    ),
]


@pytest.mark.parametrize(
    "forms, message",
    [pytest.param(forms, None, id=repr(forms)) for forms in _FAULTS["forms"] if forms not in [f for f, _ in _PINNED_FORMS]]
    + [pytest.param(forms, message, id=repr(forms)) for forms, message in _PINNED_FORMS],
)
def test_each_forms_value_loads_as_the_recursive_parser_loads_it(tmp_path, forms, message):
    """Every drawn forms value, at a child after a valid sibling: the same
    first fault and message as the recursive parser, or the same norm. Every
    forms value, of one form or several, takes the loader's one path; a
    pinned value raises its pinned message."""
    payload, items = _norm_payload([(0, ["Root"], 0.0, 2), (1, ["Kept"], 0.5, 1), (2, ["Topic"], 1.0, 2)], [0, 0], 2)
    items[2]["forms"] = forms
    path = tmp_path / "norm.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    loaded = _loaded_norm(_package_text, path)
    assert loaded == _loaded_norm(_oracle_text, path)
    if message is not None:
        assert loaded == ("error", message)


def _assert_nodes_are_the_saved_nodes(composite, path):
    """nodes() gives one record per node of the saved file, in the file's
    pre-order, each with its id, support and typicality support / doc_count:
    what bench/run.py and bench/tracer.py read."""
    save_composite(composite, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    saved, stack = [], [payload["root"]]
    while stack:
        node = stack.pop()
        saved.append(node)
        stack.extend(reversed(node["children"]))
    nodes = composite.nodes()
    assert [node.id for node in nodes] == [node["id"] for node in saved]
    assert [node.support for node in nodes] == [node["support"] for node in saved]
    assert [(node.forms, node.position) for node in nodes] == [(tuple(node["forms"]), node["position"]) for node in saved]
    assert all(node.typicality == node.support / composite.doc_count for node in nodes)
    assert [node.id for node in nodes] == [node_id for node_id, _ in composite.preorder()]


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
def test_nodes_of_a_built_and_a_loaded_norm_are_the_saved_nodes_in_preorder(tmp_path, angina_reference, threshold):
    from topicsift import load_corpus

    built = build_composite(load_corpus(angina_reference), threshold)
    _assert_nodes_are_the_saved_nodes(built, tmp_path / "built.json")
    # ids in no order, children listed out of position order, a 0.0 beside a -0.0
    loaded = make_norm(norm_node(
        7, "Disease", 0.0,
        norm_node(30, "Treatment", 1.0, norm_node(2, "Surgery", -0.0), norm_node(11, "Drugs", 0.0)),
        norm_node(4, "Symptoms", 0.25, support=2),
        support=3,
    ), doc_count=3)
    _assert_nodes_are_the_saved_nodes(loaded, tmp_path / "loaded.json")
    assert [node.id for node in loaded.nodes()] == [7, 4, 30, 2, 11]
    _assert_nodes_are_the_saved_nodes(load_composite(tmp_path / "built.json"), tmp_path / "again.json")


# the extremes, both zeros and a few plain values, so drawn nodes repeat them
_edge_positions = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.5, 1.0, 1 / 3])


@st.composite
def _writer_payloads(draw):
    """A schema-v1 payload of 1..15 nodes in a random shape: positions from
    the whole finite range and from the edge values, supports from a few
    values, so both repeat."""
    doc_count = draw(st.integers(1, 6))
    positions = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _edge_positions)
    supports = st.sampled_from(sorted({1, 2, doc_count}))
    size = draw(st.integers(1, 15))
    items = []
    for index in range(size):
        items.append({
            "id": draw(st.integers(-3, 40).filter(lambda n: n not in {item["id"] for item in items})),
            "forms": draw(st.lists(st.sampled_from(["Topic", "topic", "Other", 'a "b"', "é\\"]), min_size=1, max_size=3)),
            "position": draw(positions),
            "support": doc_count if index == 0 else min(draw(supports), doc_count),
            "children": [],
        })
        if index:
            items[draw(st.integers(0, index - 1))]["children"].append(items[index])
    return {"version": "1", "domain_genre": "g é", "doc_count": doc_count, "root": items[0]}


@settings(max_examples=300, deadline=None)
@given(_writer_payloads())
def test_save_composite_writes_what_the_oracle_writer_writes(payload):
    """save_composite's per-call tables of typicality and position texts
    against a writer that formats every number where it writes it: equal
    text for drawn floats, 0.0 beside -0.0, the extremes, and repeated
    positions and supports."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "norm.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert _package_text(path) == _oracle_text(path)


def test_a_loaded_negative_zero_position_is_written_back_as_negative_zero(tmp_path):
    composite = make_norm(norm_node(0, "Disease", -0.0, norm_node(1, "Symptoms", 0.0), norm_node(2, "Signs", -0.0)))
    path = tmp_path / "saved.json"
    save_composite(composite, path)
    assert re.findall(r'"position": (\S+),', path.read_text(encoding="utf-8")) == ["-0.0", "0.0", "-0.0"]
