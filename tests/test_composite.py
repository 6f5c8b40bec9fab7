from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicsift import (
    CompositeNode,
    CompositeSchemaError,
    CompositeTopicTree,
    CorpusSet,
    DocumentMetadata,
    DocumentTopicTree,
    EmptyCorpusError,
    LexicalForms,
    TopicNode,
    align_tree,
    build_composite,
    label_similarity,
    load_composite,
    merge,
    normalize,
    save_composite,
)
from topicsift.composite import _emit_node
from topicsift.model import node_map, parent_map, walk

from conftest import make_doc, write_corpus


def forms(*texts):
    return LexicalForms.of(*texts)


def corpus_of(*docs):
    return CorpusSet(docs=list(docs), origin="mem")


# --- label similarity ---------------------------------------------------------

def test_shared_variant_unifies():
    assert label_similarity(forms("Symptoms"), forms("Signs", "Symptoms")) == 1.0


def test_identical_label():
    assert label_similarity(forms("Definition"), forms("Definition")) == 1.0


def test_token_jaccard_half():
    # hand-derived: |{treatment}| / |{drug, treatment}| = 0.5
    assert label_similarity(forms("drug treatment"), forms("treatment")) == 0.5


def test_similarity_ignores_case_and_trailing_punctuation():
    assert label_similarity(forms("Symptoms:"), forms("symptoms")) == 1.0


def test_similarity_symmetric_and_bounded():
    rng = random.Random(7)
    pool = ["alpha", "beta gamma", "beta", "delta epsilon zeta", "??"]
    for _ in range(50):
        a = forms(rng.choice(pool))
        b = forms(rng.choice(pool))
        s = label_similarity(a, b)
        assert s == label_similarity(b, a)
        assert 0.0 <= s <= 1.0


def test_punctuation_only_labels_never_match():
    assert label_similarity(forms("??"), forms("!!")) == 0.0


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
    prognosis = doc.root.children[1]
    assert prognosis.id in alignment.unmatched


def test_roots_always_align_even_without_similarity():
    composite = build_composite(corpus_of(make_doc(("Angina", []))), 0.5)
    doc = make_doc(("Completely different", []), doc_id="d2")
    alignment = align_tree(doc, composite, 0.5)
    assert alignment.pairs == {doc.root.id: composite.root.id}


def test_equal_similarity_tie_breaks_to_lower_position():
    root = CompositeNode(id=0, label=forms("Disease"), typicality=1.0, position=0.0, support=1)
    high = CompositeNode(id=1, label=forms("Drug treatment"), typicality=1.0, position=1.0, support=1)
    low = CompositeNode(id=2, label=forms("Laser treatment"), typicality=1.0, position=0.0, support=1)
    root.children.extend([low, high])
    composite = CompositeTopicTree(root=root, domain_genre="t", doc_count=1)
    doc = make_doc(("Disease", ["Treatment"]), doc_id="d")
    alignment = align_tree(doc, composite, 0.4)
    assert alignment.pairs[doc.root.children[0].id] == 2


def test_position_tie_breaks_to_lower_id():
    root = CompositeNode(id=0, label=forms("Disease"), typicality=1.0, position=0.0, support=1)
    first = CompositeNode(id=1, label=forms("Drug treatment"), typicality=1.0, position=0.5, support=1)
    second = CompositeNode(id=2, label=forms("Laser treatment"), typicality=1.0, position=0.5, support=1)
    root.children.extend([first, second])
    composite = CompositeTopicTree(root=root, domain_genre="t", doc_count=1)
    doc = make_doc(("Disease", ["Treatment"]), doc_id="d")
    alignment = align_tree(doc, composite, 0.4)
    assert alignment.pairs[doc.root.children[0].id] == 1


def test_level_skip_absorbed_by_parent_match():
    composite = build_composite(corpus_of(make_doc(("Disease", ["Treatment"]))), 0.5)
    doc = make_doc(("Disease", [("Treatment", ["Drug treatment"])]), doc_id="d2")
    alignment = align_tree(doc, composite, 0.5)
    treatment = doc.root.children[0]
    drug = treatment.children[0]
    assert alignment.pairs[drug.id] == alignment.pairs[treatment.id]
    # the document still raises that topic's support only once
    merged = merge(composite, doc, alignment)
    comp_treatment = merged.node(alignment.pairs[treatment.id])
    assert comp_treatment.support == 2
    assert merged.doc_count == 2


def _check_alignment_invariants(doc, composite, alignment):
    all_ids = set(node_map(doc.root))
    assert set(alignment.pairs) | alignment.unmatched == all_ids
    assert not set(alignment.pairs) & alignment.unmatched
    comp_nodes = node_map(composite.root)
    parents = parent_map(doc.root)
    for node_id, comp_id in alignment.pairs.items():
        parent = parents[node_id]
        if parent is None or parent not in alignment.pairs:
            continue
        parent_comp = comp_nodes[alignment.pairs[parent]]
        assert comp_id in {n.id for n in walk(parent_comp)}


def _random_doc(rng, doc_id, pool, size):
    root = TopicNode(id=0, label=forms(rng.choice(pool)))
    nodes = [root]
    for index in range(1, size):
        node = TopicNode(id=index, label=forms(rng.choice(pool)))
        rng.choice(nodes).children.append(node)
        nodes.append(node)
    return DocumentTopicTree(doc_id=doc_id, root=root, metadata=DocumentMetadata())


def test_alignment_invariants_on_random_trees():
    rng = random.Random(2024)
    pool = ["symptoms", "signs", "drug treatment", "treatment", "causes", "risk factors", "surgery"]
    for trial in range(60):
        base = _random_doc(rng, "base", pool, rng.randint(1, 10))
        other = _random_doc(rng, "other", pool, rng.randint(1, 10))
        composite = build_composite(corpus_of(base), 0.5)
        alignment = align_tree(other, composite, rng.choice([0.3, 0.5, 0.8]))
        _check_alignment_invariants(other, composite, alignment)


# --- merge and build ----------------------------------------------------------

def test_merging_identical_document_is_structural_fixed_point():
    doc = make_doc(("Disease", ["Symptoms", "Treatment"]))
    composite = build_composite(corpus_of(doc), 0.5)
    again = make_doc(("Disease", ["Symptoms", "Treatment"]), doc_id="again")
    merged = merge(composite, again, align_tree(again, composite, 0.5))
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
    by_label = {normalize(n.label.canonical): n for n in composite.nodes()}
    assert by_label["symptoms"].typicality == 0.95
    assert by_label["symptoms"].support == 19
    assert by_label["treatment"].typicality == 1.0


def test_new_sibling_in_last_of_four_docs():
    docs = [make_doc(("Disease", ["A", "B"]), doc_id=f"d{i}") for i in range(3)]
    docs.append(make_doc(("Disease", ["A", "B", "C"]), doc_id="d3"))
    composite = build_composite(corpus_of(*docs), 0.5)
    c = {normalize(n.label.canonical): n for n in composite.nodes()}["c"]
    assert c.typicality == 0.25
    assert c.support == 1
    # only contribution: sibling index 2 of 3 -> rank 2 / (3 - 1) = 1.0
    assert c.position == 1.0


def test_single_document_corpus_is_isomorphic():
    doc = make_doc(("Disease", ["Symptoms", ("Treatment", ["Surgery"])]))
    composite = build_composite(corpus_of(doc), 0.5)
    assert [n.label.canonical for n in composite.nodes()] == [
        n.label.canonical for n in doc.nodes()
    ]
    assert all(n.typicality == 1.0 for n in composite.nodes())
    assert composite.doc_count == 1


def test_ten_identical_documents_idempotent():
    docs = [make_doc(("Disease", ["Symptoms", "Treatment"]), doc_id=f"d{i}") for i in range(10)]
    composite = build_composite(corpus_of(*docs), 0.5)
    assert composite.doc_count == 10
    assert [n.label.canonical for n in composite.nodes()] == ["Disease", "Symptoms", "Treatment"]
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
        expected = doc_freq[normalize(node.label.canonical)] / 4
        assert node.typicality == expected
        assert node.support == doc_freq[normalize(node.label.canonical)]


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
# (which JSON leaves unescaped) and non-ASCII text
json_text = st.text(alphabet=st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\x85\u2028\u2029é中😀'), st.characters()))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(json_text.filter(str.strip), min_size=1, max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_emitted_forms_and_position_match_json_dumps(texts, position):
    label = LexicalForms.of(*texts)
    out: list[str] = []
    _emit_node(CompositeNode(id=3, label=label, typicality=1.0, position=position, support=1), out, "")
    lines = "".join(out).split("\n")
    assert lines[2] == '  "forms": ' + json.dumps(list(label.forms), ensure_ascii=False) + ","
    assert lines[4] == '  "position": ' + json.dumps(position) + ","


def test_minimal_hand_written_file_loads(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_minimal_payload()), encoding="utf-8")
    composite = load_composite(path)
    assert composite.doc_count == 1
    assert composite.root.label.canonical == "Topic"
    assert composite.root.typicality == 1.0
    assert composite.root.children == []


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


def test_typicality_rederived_from_support(tmp_path):
    payload = _minimal_payload(doc_count=4)
    payload["root"].update(support=4, typicality=0.123)  # stale value on disk
    child = {"id": 1, "forms": ["Symptoms"], "typicality": 0.9, "position": 0.0, "support": 3, "children": []}
    payload["root"]["children"] = [child]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    composite = load_composite(path)
    assert composite.root.typicality == 1.0
    assert composite.root.children[0].typicality == 0.75
