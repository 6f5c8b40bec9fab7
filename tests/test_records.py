"""Record semantics of every record class in the package: equality over the
compared fields, value hashes and immutability for the frozen ones, copies
and pickles, fresh mutable defaults, and a readable repr."""
from __future__ import annotations

import copy
import pickle

import pytest

from topicsift import (
    Alignment,
    CategoryPlan,
    CompositeTopicTree,
    CorpusSet,
    Description,
    DocResult,
    DocumentCategory,
    DocumentMetadata,
    DocumentTopicTree,
    Enumeration,
    Exemplar,
    HasFeature,
    HasTopics,
    LexicalForms,
    Lexicon,
    NormNode,
    OrdinalList,
    RangeRef,
    SentencePlan,
    SetElements,
    Summary,
    SummaryPlan,
    TopicType,
    TypeDistribution,
    TypedTree,
    TypingParams,
)
from topicsift.lexicon import Pattern
from topicsift.model import FrozenRecord, Record
from topicsift.realizer import RealizedCategory

DEEP, ATYPICAL = DocumentCategory.DEEP, DocumentCategory.ATYPICAL
# the fields of a norm of one node, in constructor order
NORM = ("ref", 1, 0, {0: ("r",)}, {0: None}, {0: 1}, {0: 0.0}, {0: []})
META = DocumentMetadata(title="A")
DOC = DocumentTopicTree(doc_id="a.md", labels=["r", "x"], parents=[-1, 0], depths=[0, 1], metadata=META)
OTHER_DOC = DocumentTopicTree(doc_id="b.md", labels=["r", "y"], parents=[-1, 0], depths=[0, 1], metadata=META)
DIST = TypeDistribution(typical=1, rare=0, intricate=0, irrelevant=1, covered_typical=1, possible_typical=1)
OTHER_DIST = TypeDistribution(typical=0, rare=1, intricate=0, irrelevant=1, covered_typical=0, possible_typical=1)
SENTENCE = SentencePlan(relation="sample_topics", category=DEEP, slots={"TOPICS": "t"})

# per class, each field in order with a base value and a different one; the
# frozen classes are marked
CASES = {
    LexicalForms: (True, {"forms": (("Symptoms",), ("Symptoms", "Signs"))}),
    NormNode: (True, {
        "id": (0, 2),
        "forms": (("Symptoms",), ("Symptoms", "Signs")),
        "position": (0.0, 0.5),
        "support": (2, 1),
        "typicality": (1.0, 0.5),
    }),
    DocumentMetadata: (True, {
        "title": (None, "A"),
        "content_types": (frozenset(), frozenset({"tables"})),
        "special_content": (frozenset(), frozenset({"figures"})),
        "source_path": ("", "a.md"),
    }),
    DocumentTopicTree: (False, {
        "doc_id": ("a.md", "b.md"),
        "labels": (["r", "x", "y"], ["r", "x", "z"]),
        "parents": ([-1, 0, 0], [-1, 0, 1]),
        "depths": ([0, 1, 1], [0, 1, 2]),
        "metadata": (META, DocumentMetadata(title="B")),
    }),
    CompositeTopicTree: (False, {
        "domain_genre": ("ref", "other"),
        "doc_count": (1, 2),
        "root": (0, 1),
        "forms": ({0: ("r",)}, {0: ("r", "R!")}),
        "parents": ({0: None}, {0: 0}),
        "supports": ({0: 1}, {0: 2}),
        "positions": ({0: 0.0}, {0: 0.5}),
        "children": ({0: []}, {0: [0]}),
    }),
    TypingParams: (True, {"k": (2, 3), "alpha": (0.5, 0.7), "tau": (0.3, 0.4)}),
    Description: (True, {"category": (DEEP, ATYPICAL)}),
    SetElements: (True, {"category": (DEEP, ATYPICAL), "members": (("a.md",), ("a.md", "b.md"))}),
    HasTopics: (True, {"category": (DEEP, ATYPICAL), "topics": (("t",), ("u",))}),
    HasFeature: (True, {
        "category": (DEEP, ATYPICAL),
        "kind": ("content_types", "special_content"),
        "values": (("tables",), ("figures",)),
        "members": (("a.md",), ("b.md",)),
    }),
    CategoryPlan: (False, {
        "category": (DEEP, ATYPICAL),
        "messages": ([Description(category=DEEP)], []),
        "reordered": (False, True),
    }),
    SummaryPlan: (False, {"categories": ([], [CategoryPlan(category=DEEP, messages=[])]), "query": ("", "angina")}),
    Enumeration: (True, {"titles": (("A",), ("B",))}),
    Exemplar: (True, {"count": (3, 4), "sample": ("A", "B")}),
    RangeRef: (True, {"start": (1, 2), "stop": (2, 3), "total": (3, 4)}),
    OrdinalList: (True, {"positions": ((1, 3), (2, 4)), "total": (4, 5)}),
    SentencePlan: (False, {
        "relation": ("overview_list", "sample_topics"),
        "category": (DEEP, ATYPICAL),
        "slots": ({"QUERY": "a"}, {"QUERY": "b"}),
        "counts": ({}, {"members": 2}),
        "extract_available": (False, True),
        "chosen_pattern": (None, "p"),
        "chosen_description": (None, 0),
    }),
    RealizedCategory: (False, {
        "plan": (CategoryPlan(category=DEEP, messages=[]), CategoryPlan(category=ATYPICAL, messages=[])),
        "sentences": ([], [SENTENCE]),
        "texts": (["A."], ["B."]),
    }),
    Pattern: (True, {"id": ("p", "q"), "text": ("{TOPICS}.", "{TOPICS}!"), "agree": ("members", "topics")}),
    Lexicon: (False, {
        "descriptions": ({}, {"deep": ["x"]}),
        "patterns": ({}, {"sample_topics": [Pattern(id="p", text="{TOPICS}.")]}),
        "morphology": ({}, {"be": ("is", "are")}),
    }),
    DocResult: (False, {
        "typed": (TypedTree(doc=DOC, query="a", query_node=None), TypedTree(doc=DOC, query="b", query_node=None)),
        "alignment": (Alignment(), Alignment(pairs={0: 0})),
        "dist": (DIST, OTHER_DIST),
        "category": (DEEP, ATYPICAL),
    }),
    Summary: (False, {
        "query": ("a", "b"),
        "params": (TypingParams(), TypingParams(k=3)),
        "align_threshold": (0.5, 0.6),
        "seed": (0, 1),
        "limit": (5, 6),
        "composite": (CompositeTopicTree(*NORM), CompositeTopicTree("ref", 2, *NORM[2:])),
        "results": ([], [DocResult(typed=TypedTree(doc=DOC, query="a", query_node=0), alignment=Alignment(),
                                   dist=DIST, category=DEEP)]),
        "plan": (SummaryPlan(), SummaryPlan(query="b")),
        "realized": ([], [RealizedCategory(plan=CategoryPlan(category=DEEP, messages=[]), sentences=[], texts=[])]),
    }),
    TypeDistribution: (True, {
        "typical": (2, 3),
        "rare": (1, 2),
        "intricate": (0, 1),
        "irrelevant": (1, 0),
        "covered_typical": (1, 0),
        "possible_typical": (2, 3),
    }),
    Alignment: (False, {"pairs": ({0: 0}, {0: 1}), "unmatched": (set(), {1})}),
    CorpusSet: (False, {"docs": ([], [DOC]), "origin": ("", "dir")}),
    TypedTree: (False, {
        "doc": (DOC, OTHER_DOC),
        "query": ("a", "b"),
        "query_node": (None, 0),
        "types": ([], [TopicType.RARE]),
    }),
}


def _build(cls, kwargs, variant=False):
    """A record from keyword values. A class with a _trusted constructor must
    give an equal record through it, and builds a variant only through it:
    one of a document's parallel lists changed alone is not in pre-order."""
    trusted = getattr(cls, "_trusted", None)
    if variant and trusted is not None:
        return trusted(**kwargs)
    record = cls(**kwargs)
    if trusted is not None:
        assert trusted(**kwargs) == record
    return record


def _record_classes(base=Record):
    for cls in base.__subclasses__():
        if cls is not FrozenRecord:
            yield cls
        yield from _record_classes(cls)


def test_every_record_class_has_a_case():
    assert set(_record_classes()) == set(CASES)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_records_compare_by_their_fields(cls):
    frozen, fields = CASES[cls]
    base = {name: values[0] for name, values in fields.items()}
    record = _build(cls, base)
    # the fields in order, by position as by keyword
    assert cls(*base.values()) == record == _build(cls, base)
    assert [getattr(record, name) for name in fields] == list(base.values())
    assert record != object()
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    if frozen:
        assert hash(record) == hash(_build(cls, base))
    else:
        with pytest.raises(TypeError):
            hash(record)
    for name, (_, changed) in fields.items():
        assert _build(cls, {**base, name: changed}, variant=True) != record, name
    assert repr(record).startswith(f"{cls.__name__}({next(iter(fields))}=")


@pytest.mark.parametrize("cls", [cls for cls, (frozen, _) in CASES.items() if frozen], ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment(cls):
    _, fields = CASES[cls]
    record = _build(cls, {name: values[0] for name, values in fields.items()})
    for name, (_, changed) in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, changed)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == fields[name][0]


def test_fields_left_out_of_comparison_are_ignored():
    tree = CompositeTopicTree(*NORM)
    tree.index()
    assert tree == CompositeTopicTree(*NORM)
    assert "_index" not in repr(tree)
    pattern = Pattern(id="p", text="{TOPICS}.")
    assert pattern.parts == ("", "TOPICS", ".")
    object.__setattr__(pattern, "parts", ("other",))
    assert pattern == Pattern(id="p", text="{TOPICS}.")
    assert hash(pattern) == hash(Pattern(id="p", text="{TOPICS}."))
    assert "parts" not in repr(pattern)


@pytest.mark.parametrize(
    "make, fields",
    [
        (SummaryPlan, ["categories"]),
        (lambda: SentencePlan(relation="sample_topics", category=DEEP, slots={}), ["counts"]),
        (Lexicon, ["descriptions", "patterns", "morphology"]),
        (Alignment, ["pairs", "unmatched"]),
        (CorpusSet, ["docs"]),
        (lambda: TypedTree(doc=DOC, query="a", query_node=None), ["types"]),
    ],
    ids=["SummaryPlan", "SentencePlan", "Lexicon", "Alignment", "CorpusSet", "TypedTree"],
)
def test_mutable_defaults_are_fresh_per_record(make, fields):
    first, second = make(), make()
    for name in fields:
        assert not getattr(first, name)
        assert getattr(first, name) is not getattr(second, name)
