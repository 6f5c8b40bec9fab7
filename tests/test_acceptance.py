"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Expected values are either trivially forced, verified against an
independently coded brute-force evaluator, or frozen golden artifacts.
"""
from __future__ import annotations

import random
import time

from topicsift import (
    CorpusSet,
    DocumentCategory,
    DocumentTopicTree,
    TopicType,
    TypeDistribution,
    TypingParams,
    align_tree,
    build_composite,
    classify,
    cli,
    default_lexicon,
    distribution,
    lexicalize,
    load_corpus,
    normalize,
    refer_to_set,
    type_document,
)
from topicsift.realizer import Enumeration, Exemplar, SentencePlan, render_subset
from topicsift.topic_typing import assign_types

from conftest import GOLDEN, make_doc, write_corpus
from oracles import all_distributions, oracle_classify


def report(number: int, name: str) -> None:
    print(f"acceptance criterion {number} ({name}): PASS")


def test_criterion_1_typicality_reproduction(tmp_path):
    """A topic present in 19 of 20 reference documents scores exactly 0.95."""
    start = time.perf_counter()
    files = {
        f"doc{i:02d}.md": "# Disease\n" + ("## Symptoms\n" if i < 19 else "") + "## Treatment\n"
        for i in range(20)
    }
    corpus = load_corpus(write_corpus(tmp_path / "corpus", files))
    composite = build_composite(corpus, 0.5)
    by_label = {normalize(n.forms[0]): n for n in composite.nodes()}
    assert composite.doc_count == 20
    assert by_label["symptoms"].support == 19
    assert by_label["symptoms"].typicality == 0.95
    assert time.perf_counter() - start < 1.0
    report(1, "typicality reproduction")


def _regions(types: list[TopicType]) -> dict[int, str]:
    """Each node's query region: relevant when it is typical or rare, else
    its type's name (intricate or irrelevant)."""
    relevant = (TopicType.TYPICAL, TopicType.RARE)
    return {i: "relevant" if t in relevant else t.value for i, t in enumerate(types)}


def test_criterion_2_region_semantics():
    """Exhaustive per-node region check on a depth-5 tree with k=2."""
    start = time.perf_counter()
    doc = make_doc(
        (
            "Root",
            [
                (
                    "Query",
                    [
                        ("R1", [("R2", [("I3", ["I4"])]), "R2b"]),
                        "R1b",
                    ],
                ),
                ("Sibling", ["SibChild"]),
            ],
        )
    )
    ids = {label: node_id for node_id, label in enumerate(doc.labels)}
    composite = build_composite(CorpusSet(docs=[doc], origin="mem"), 0.5)
    alignment = align_tree(doc, composite, 0.5)
    regions = _regions(assign_types(doc, composite, alignment, "query", ids["Query"], TypingParams(k=2)).types)
    expected = {
        "Root": "irrelevant",  # the query node's parent
        "Query": "relevant",  # distance 0
        "R1": "relevant",  # 1
        "R2": "relevant",  # 2
        "I3": "intricate",  # 3
        "I4": "intricate",  # 4
        "R2b": "relevant",  # 2
        "R1b": "relevant",  # 1
        "Sibling": "irrelevant",
        "SibChild": "irrelevant",
    }
    assert len(expected) == len(doc.nodes())
    for label, region in expected.items():
        assert regions[ids[label]] == region, label
    assert time.perf_counter() - start < 1.0
    report(2, "region semantics")


def test_criterion_3_classifier_oracle_equivalence():
    """classify agrees with the brute-force table evaluator on every
    distribution with total <= 12 and possible_typical <= 6."""
    start = time.perf_counter()
    cases = 0
    for typical, rare, intricate, irrelevant, covered, possible in all_distributions(12, 6):
        dist = TypeDistribution(
            typical=typical,
            rare=rare,
            intricate=intricate,
            irrelevant=irrelevant,
            covered_typical=covered,
            possible_typical=possible,
        )
        assert classify(dist).value == oracle_classify(
            typical, rare, intricate, irrelevant, covered, possible
        )
        cases += 1
    assert cases > 50000
    assert time.perf_counter() - start < 10.0
    report(3, "classifier oracle equivalence")


def test_criterion_4_sample_summary_structure(tmp_path, capsys, angina_reference, angina_docs):
    """The engineered angina corpus yields the three-bullet summary with the
    expected atypical messages; the trace is byte-exact against the golden."""
    composite = tmp_path / "composite.json"
    assert cli.main(["build", str(angina_reference), str(composite)]) == 0
    capsys.readouterr()
    code = cli.main(
        [
            "summarize", str(angina_docs),
            "--composite", str(composite),
            "--query", "angina",
            "--format", "trace",
            "--seed", "0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "angina_trace.txt").read_text(encoding="utf-8")
    category_lines = [line for line in out.splitlines() if line.startswith("category: ")]
    assert category_lines == ["category: prototypical", "category: atypical", "category: deep"]
    assert '  message: set-elements count=2 members=["ama_angina_guide.md", "cu_angina_guide.md"]' in out
    assert '  message: has-topics topics=["definition", "what are the risks?"]' in out
    report(4, "sample summary structure")


def test_criterion_5_referring_expression_thresholds():
    """Enumeration up to five members, exemplar beyond; contiguous subsets
    come out as the compact range phrase."""
    for count in range(1, 11):
        titles = [f"Doc {i}" for i in range(1, count + 1)]
        expr = refer_to_set(titles, limit=5)
        if count <= 5:
            assert isinstance(expr, Enumeration) and expr.titles == tuple(titles)
        else:
            assert isinstance(expr, Exemplar)
            assert expr.count == count and expr.sample == "Doc 1"
    members = [f"Doc {i}" for i in range(1, 7)]
    subset = refer_to_set(members[:5], limit=5, within=members)
    assert render_subset(subset) == "The first five documents"
    sentence = SentencePlan(
        relation="shared_features",
        category=DocumentCategory.SPECIALIZED,
        slots={"QUERY": "angina", "SUBSET": render_subset(subset), "FEATURES": "figures and tables"},
        counts={"subset": 5},
    )
    assert (
        lexicalize(sentence, default_lexicon(), 1)
        == "The first five documents contain figures and tables as well."
    )
    report(5, "referring expression thresholds")


def test_criterion_6_query_shift():
    """The treatment-heavy document changes category between the two queries."""
    from test_topic_typing import treatment_fixture

    doc, composite = treatment_fixture()
    params = TypingParams()
    categories = {}
    for query in ("treatment", "symptoms"):
        typed, alignment = type_document(doc, composite, query, params)
        categories[query] = classify(distribution(typed, composite, alignment, params))
    assert categories["treatment"] is not categories["symptoms"]
    report(6, "query shift")


def _random_doc(rng: random.Random, doc_id: str, pool: list[str], size: int) -> DocumentTopicTree:
    """Each node the last child of a random earlier one."""
    root = (rng.choice(pool), [])
    nodes = [root]
    for _ in range(1, size):
        node = (rng.choice(pool), [])
        rng.choice(nodes)[1].append(node)
        nodes.append(node)
    return make_doc(root, doc_id=doc_id)


def test_criterion_7_monotonicity_suite():
    """200 randomized trees: growing k never shrinks the relevant set, and
    growing alpha never grows the typical set."""
    rng = random.Random(20260810)
    pool = ["symptoms", "signs", "treatment", "drug treatment", "surgery", "causes", "risks", "outlook"]
    violations = 0
    for trial in range(200):
        refs = [_random_doc(rng, f"r{i}", pool, rng.randint(1, 8)) for i in range(rng.randint(1, 3))]
        composite = build_composite(CorpusSet(docs=refs, origin="mem"), 0.5)
        doc = _random_doc(rng, "probe", pool, rng.randint(1, 10))
        query_node = rng.choice(doc.nodes())
        alignment = align_tree(doc, composite, 0.5)

        previous_relevant: set[int] | None = None
        for k in (1, 2, 3, 4):
            regions = _regions(assign_types(doc, composite, alignment, "probe", query_node, TypingParams(k=k)).types)
            relevant = {i for i, r in regions.items() if r == "relevant"}
            if previous_relevant is not None and not previous_relevant <= relevant:
                violations += 1
            previous_relevant = relevant

        previous_typical: set[int] | None = None
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            params = TypingParams(k=2, alpha=alpha)
            typed = assign_types(doc, composite, alignment, "probe", query_node, params)
            typical = {i for i, t in enumerate(typed.types) if t is TopicType.TYPICAL}
            if previous_typical is not None and not typical <= previous_typical:
                violations += 1
            previous_typical = typical

        assert len(typed.types) == len(doc.labels)
    assert violations == 0
    report(7, "monotonicity suite")


def test_criterion_8_determinism(tmp_path, capsys, angina_reference, angina_docs):
    """build and summarize are byte-identical across repeated runs."""
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert cli.main(["build", str(angina_reference), str(one)]) == 0
    first_build_out = capsys.readouterr().out.replace(str(one), "<out>")
    assert cli.main(["build", str(angina_reference), str(two)]) == 0
    second_build_out = capsys.readouterr().out.replace(str(two), "<out>")
    assert one.read_bytes() == two.read_bytes()
    assert first_build_out == second_build_out

    for fmt in ("text", "trace"):
        args = [
            "summarize", str(angina_docs),
            "--composite", str(one),
            "--query", "angina",
            "--seed", "7",
            "--format", fmt,
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second
    report(8, "determinism")
