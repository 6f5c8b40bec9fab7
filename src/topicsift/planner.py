"""Content planning: grouping classified documents into category plans.

A category with at least one document contributes a plan; empty categories
are skipped. Within a category the obligatory messages (what the category
is, which documents are in it) come first, optional ones (sample topics,
shared document features) afterwards. Categories are emitted in the fixed
presentation order of DocumentCategory.
"""
from __future__ import annotations

from .model import CATEGORY_ORDER, DocumentCategory, FrozenRecord, Record, TopicType, fold
from .topic_typing import TypedTree

FEATURE_KINDS = ("content_types", "special_content")
TOPIC_CAP = 3


class Description(FrozenRecord):
    __slots__ = _fields = ("category",)

    def __init__(self, category: DocumentCategory) -> None:
        object.__setattr__(self, "category", category)


class SetElements(FrozenRecord):
    __slots__ = _fields = ("category", "members")

    def __init__(self, category: DocumentCategory, members: tuple[str, ...]) -> None:
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "members", members)


class HasTopics(FrozenRecord):
    __slots__ = _fields = ("category", "topics")

    def __init__(self, category: DocumentCategory, topics: tuple[str, ...]) -> None:
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "topics", topics)


class HasFeature(FrozenRecord):
    __slots__ = _fields = ("category", "kind", "values", "members")

    def __init__(self, category: DocumentCategory, kind: str, values: tuple[str, ...], members: tuple[str, ...]) -> None:
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "members", members)


Message = Description | SetElements | HasTopics | HasFeature


class CategoryPlan(Record):
    __slots__ = _fields = ("category", "messages", "reordered")

    def __init__(self, category: DocumentCategory, messages: list[Message], reordered: bool = False) -> None:
        self.category = category
        self.messages = messages
        self.reordered = reordered

    def members(self) -> tuple[str, ...]:
        for message in self.messages:
            if isinstance(message, SetElements):
                return message.members
        return ()


class SummaryPlan(Record):
    __slots__ = _fields = ("categories", "query")

    def __init__(self, categories: list[CategoryPlan] | None = None, query: str = "") -> None:
        self.categories = [] if categories is None else categories
        self.query = query


def _sample_topics(members: list[TypedTree], wanted: TopicType) -> tuple[str, ...]:
    """At most TOPIC_CAP distinct topic labels of the wanted type, most
    frequent (by document) first, then alphabetical.

    Topics are shown folded ("Definition" -> "definition") but keep their
    punctuation; full normalization is for comparison only.
    """
    doc_freq: dict[str, int] = {}
    for typed in members:
        seen: set[str] = set()
        for label, topic_type in zip(typed.doc.labels, typed.types):
            if topic_type is not wanted:
                continue
            key = fold(label)
            if key in seen:
                continue
            seen.add(key)
            doc_freq[key] = doc_freq.get(key, 0) + 1
    return tuple(sorted(doc_freq, key=lambda key: (-doc_freq[key], key))[:TOPIC_CAP])


def _feature_groups(members: list[TypedTree], kind: str) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Group member doc ids by their exact (non-empty) feature value set."""
    groups: dict[tuple[str, ...], list[str]] = {}
    for typed in members:
        values = getattr(typed.doc.metadata, kind)
        if not values:
            continue
        groups.setdefault(tuple(sorted(values)), []).append(typed.doc.doc_id)
    ordered = sorted(groups.items(), key=lambda item: (-len(item[1]), item[0]))
    return [(values, tuple(ids)) for values, ids in ordered]


def instantiate(category: DocumentCategory, members: list[tuple[TypedTree, DocumentCategory]]) -> CategoryPlan:
    """Build the message list for one instantiated category.

    Members are ordered by descending relevant-topic count (doc id breaks
    ties) and may be permuted afterwards so that the largest shared-feature
    group forms a contiguous prefix, which lets the realizer refer to it as
    a compact range.
    """
    if not members:
        raise ValueError("cannot instantiate a category with no documents")
    if any(got is not category for _, got in members):
        raise ValueError(f"member classified outside category {category.value}")

    trees = [typed for typed, _ in members]
    trees.sort(key=lambda t: (-t.relevant_count(), t.doc.doc_id))

    features: list[HasFeature] = []
    primary_group: tuple[str, ...] | None = None
    for kind in FEATURE_KINDS:
        for values, ids in _feature_groups(trees, kind):
            features.append(HasFeature(category=category, kind=kind, values=values, members=ids))
            if primary_group is None:
                primary_group = ids

    reordered = False
    if primary_group is not None:
        in_group = [t for t in trees if t.doc.doc_id in primary_group]
        rest = [t for t in trees if t.doc.doc_id not in primary_group]
        reordered = [t.doc.doc_id for t in in_group + rest] != [t.doc.doc_id for t in trees]
        trees = in_group + rest

    messages: list[Message] = [
        Description(category=category),
        SetElements(category=category, members=tuple(t.doc.doc_id for t in trees)),
    ]
    if category is DocumentCategory.ATYPICAL:
        topics = _sample_topics(trees, TopicType.RARE)
        if topics:
            messages.append(HasTopics(category=category, topics=topics))
    elif category is DocumentCategory.DEEP:
        topics = _sample_topics(trees, TopicType.INTRICATE)
        if topics:
            messages.append(HasTopics(category=category, topics=topics))
    messages.extend(features)
    return CategoryPlan(category=category, messages=messages, reordered=reordered)


def plan(classified: list[tuple[TypedTree, DocumentCategory]]) -> SummaryPlan:
    """Order instantiated categories by the fixed inter-category plan."""
    queries = {typed.query for typed, _ in classified}
    if len(queries) > 1:
        raise ValueError("all documents in a summary must be typed under one query")
    by_category: dict[DocumentCategory, list[tuple[TypedTree, DocumentCategory]]] = {}
    for typed, category in classified:
        by_category.setdefault(category, []).append((typed, category))
    plans = [
        instantiate(category, by_category[category])
        for category in CATEGORY_ORDER
        if category in by_category
    ]
    return SummaryPlan(categories=plans, query=next(iter(queries), ""))
