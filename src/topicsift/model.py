"""Shared domain model: per-document topic trees, the composite norm tree,
and the elementary tree queries everything else builds on.

Labels keep their original surface strings for display; all comparison goes
through :func:`normalize` (case fold, whitespace collapse, trailing
punctuation strip) because section headers are noisy.

All types are treated as immutable once constructed; the composite builder
is the only code that mutates composite nodes, and only during a build fold.
"""
from __future__ import annotations

import reprlib
import string
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

# after fold the only whitespace left is single inner spaces
_TRAILING_JUNK = string.punctuation + " "


class UnknownNodeError(LookupError):
    """A node id was used against a tree that does not contain it."""


def fold(text: str) -> str:
    """Case-fold, trim and collapse runs of whitespace (``str.isspace``) to
    one space; the lexical-form dedup key.

    No non-whitespace character casefolds to whitespace, so collapsing before
    folding leaves no leading, trailing or doubled whitespace.
    """
    return " ".join(text.split()).casefold()


def brief_repr(value: object) -> str:
    """repr of a value read from an input file, for an error line: at most
    40 characters, then "...". reprlib bounds the nesting and the lengths it
    renders, so a huge or deeply nested value costs little."""
    text = reprlib.repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def normalize(text: str) -> str:
    """Normal form for all label/string comparison.

    Case fold, trim, collapse whitespace, strip trailing punctuation, so
    "Symptoms:" and "symptoms" compare equal. May return "" for labels made
    of punctuation only; empty normal forms never count as a match.
    """
    return fold(text).rstrip(_TRAILING_JUNK)


@dataclass(frozen=True)
class LexicalForms:
    """Ordered set of surface strings naming one topic, canonical form first."""

    forms: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.forms:
            raise ValueError("a label needs at least one form")
        if any(not f.strip() for f in self.forms):
            raise ValueError("blank lexical form in %r" % (self.forms,))
        if len(self.forms) > 1:
            keys = {fold(f) for f in self.forms}
            if len(keys) != len(self.forms):
                raise ValueError("duplicate lexical forms in %r" % (self.forms,))

    @classmethod
    def of(cls, *forms: str) -> "LexicalForms":
        """Build from raw strings, dropping blanks and duplicates (first spelling wins).

        A one-form label, such as every parsed header, is never folded: it
        has nothing to be a duplicate of. Every other form is folded once,
        to deduplicate; the result is then valid by construction and skips
        the validating fold.
        """
        kept = tuple(form for form in forms if form and form.strip())
        if not kept:
            raise ValueError("a label needs at least one form")
        if len(kept) > 1:
            unique: dict[str, str] = {}
            for form in kept:
                unique.setdefault(fold(form), form)
            kept = tuple(unique.values())
        return cls._trusted(kept)

    @classmethod
    def _trusted(cls, forms: tuple[str, ...]) -> "LexicalForms":
        """A label over forms the caller already knows to be non-blank with
        distinct fold keys; skips the validating fold of every form."""
        label = object.__new__(cls)
        object.__setattr__(label, "forms", forms)
        return label

    @property
    def canonical(self) -> str:
        return self.forms[0]

    def token_sets(self) -> tuple[frozenset[str], ...]:
        """Distinct token sets of the non-empty normal forms, in form order;
        labels are compared by these. A label that normalizes to "" has none."""
        if len(self.forms) == 1:
            # every parsed header: nothing to deduplicate
            normal = normalize(self.forms[0])
            return (frozenset(normal.split()),) if normal else ()
        sets: dict[frozenset[str], None] = {}
        for form in self.forms:
            normal = normalize(form)
            if normal:
                sets.setdefault(frozenset(normal.split()), None)
        return tuple(sets)


@dataclass
class TopicNode:
    """One topic in a document tree. ids are pre-order indices, stable per parse."""

    id: int
    label: LexicalForms
    children: list["TopicNode"] = field(default_factory=list)
    source_span: tuple[int, int] | None = None


@dataclass
class CompositeNode:
    """One topic in the norm tree.

    typicality is always support / doc_count of the owning tree; position is
    the mean normalized sibling rank over the documents that contributed the
    topic. Siblings are kept sorted by ascending position.
    """

    id: int
    label: LexicalForms
    typicality: float
    position: float
    support: int
    children: list["CompositeNode"] = field(default_factory=list)


def best_jaccard(sets_a: tuple[frozenset[str], ...], sets_b: tuple[frozenset[str], ...]) -> float:
    """Best Jaccard index over all pairs of (non-empty) token sets; 0.0 when
    either side has none."""
    best = 0.0
    for tokens_a in sets_a:
        for tokens_b in sets_b:
            shared = len(tokens_a & tokens_b)
            if shared:
                best = max(best, shared / (len(tokens_a) + len(tokens_b) - shared))
    return best


def walk(root) -> Iterator:
    """Pre-order traversal over TopicNode or CompositeNode trees."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def walk_depth(root) -> Iterator[tuple[object, int]]:
    """Pre-order traversal yielding (node, depth below root)."""
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.children))


def node_map(root) -> dict[int, object]:
    """id -> node for a whole tree; rejects duplicate ids."""
    nodes: dict[int, object] = {}
    for node in walk(root):
        if node.id in nodes:
            raise ValueError("duplicate node id %r" % (node.id,))
        nodes[node.id] = node
    return nodes


def parent_map(root) -> dict[int, int | None]:
    """id -> parent id (None for the root)."""
    parents: dict[int, int | None] = {root.id: None}
    for node in walk(root):
        for child in node.children:
            parents[child.id] = node.id
    return parents


def depth_map(root) -> dict[int, int]:
    return {node.id: depth for node, depth in walk_depth(root)}


def sibling_rank_map(root) -> dict[int, float]:
    """id -> sibling index / max(sibling count - 1, 1); root ranks 0.0."""
    ranks = {root.id: 0.0}
    for node in walk(root):
        denom = max(len(node.children) - 1, 1)
        for index, child in enumerate(node.children):
            ranks[child.id] = index / denom
    return ranks


def depth_below(root: TopicNode, ancestor: int, target: int) -> int | None:
    """Edges on the downward path ancestor -> target, or None if target is
    not in ancestor's subtree. Both ids must exist in the tree."""
    nodes = node_map(root)
    if ancestor not in nodes:
        raise UnknownNodeError("unknown ancestor id %r" % (ancestor,))
    if target not in nodes:
        raise UnknownNodeError("unknown target id %r" % (target,))
    for node, depth in walk_depth(nodes[ancestor]):
        if node.id == target:
            return depth
    return None


@dataclass(frozen=True)
class DocumentMetadata:
    """Extra document features carried alongside the topic tree."""

    title: str | None = None
    content_types: frozenset[str] = frozenset()
    special_content: frozenset[str] = frozenset()
    source_path: str = ""


@dataclass
class DocumentTopicTree:
    """A single document's topic hierarchy plus its metadata."""

    doc_id: str
    root: TopicNode
    metadata: DocumentMetadata

    def nodes(self) -> list[TopicNode]:
        return list(walk(self.root))

    def node(self, node_id: int) -> TopicNode:
        try:
            return node_map(self.root)[node_id]
        except KeyError:
            raise UnknownNodeError("no node %r in %s" % (node_id, self.doc_id)) from None

    def display_title(self) -> str:
        """Title used when referring to this document in prose."""
        if self.metadata.title:
            return self.metadata.title
        if self.root.label.canonical:
            return self.root.label.canonical
        return self.doc_id


def topic_count(tree: DocumentTopicTree) -> int:
    """Number of topics in the document, root included."""
    return len(tree.nodes())


class DocumentIndex:
    """One pre-order pass over a document tree: its nodes by id (in pre-order),
    parent ids, depths, sibling ranks and each label's token sets; rejects
    duplicate ids.

    A transient value: ``type_document`` and the norm build take one per
    document and pass it to every stage that reads the document. It is never
    stored on the tree, since a corpus keeps every parsed document alive.
    """

    __slots__ = ("nodes", "parents", "depths", "ranks", "token_sets")

    def __init__(self, root: TopicNode) -> None:
        nodes: dict[int, TopicNode] = {}
        parents: dict[int, int | None] = {root.id: None}
        depths = {root.id: 0}
        ranks = {root.id: 0.0}
        token_sets: dict[int, tuple[frozenset[str], ...]] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            node_id = node.id
            if node_id in nodes:
                raise ValueError("duplicate node id %r" % (node_id,))
            nodes[node_id] = node
            token_sets[node_id] = node.label.token_sets()
            children = node.children
            if children:
                depth = depths[node_id] + 1
                denom = max(len(children) - 1, 1)
                for rank, child in enumerate(children):
                    parents[child.id] = node_id
                    depths[child.id] = depth
                    ranks[child.id] = rank / denom
                stack.extend(reversed(children))
        self.nodes = nodes
        self.parents = parents
        self.depths = depths
        self.ranks = ranks
        self.token_sets = token_sets


class CompositeIndex:
    """Lookups over one composite tree, so no query re-walks it.

    Holds id -> node, id -> the label's token sets, per parent a posting
    map token -> ids of the children whose label has that token, and the
    next free id (one past the largest). ``fold_keys`` holds the fold keys
    of a node's spellings, built the first time a document brings the node
    a spelling it lacks verbatim.

    Two memos hold results derived from the tree, so a norm loaded once
    computes each only once: ``possible_typical`` maps (query, params) to
    ``classify.possible_typical_topics``, and ``alignments`` maps
    (threshold, anchor id, a header's token sets) to the id of the composite
    node ``composite.align_tree`` matches that header to, or None. The
    alignment memo holds one entry per distinct key seen; the norm build
    aligns without it, since each of its folds changes the norm. Whatever
    changes the tree calls ``clear_memos``.
    """

    def __init__(self, root: CompositeNode) -> None:
        self.next_id = root.id + 1
        self.nodes: dict[int, CompositeNode] = {}
        self.token_sets: dict[int, tuple[frozenset[str], ...]] = {}
        self.children_by_token: dict[int, dict[str, list[int]]] = {}
        self.parents: dict[int, int | None] = {}
        self.fold_keys: dict[int, set[str]] = {}
        self.possible_typical: dict[tuple[str, TypingParams], frozenset[int]] = {}
        self.alignments: dict[tuple[float, int, tuple[frozenset[str], ...]], int | None] = {}
        self.add(root, None)
        for node in walk(root):
            for child in node.children:
                self.add(child, node.id)

    def clear_memos(self) -> None:
        """Forget every memoized result; called by whatever changes the tree."""
        self.possible_typical.clear()
        self.alignments.clear()

    def add(
        self,
        node: CompositeNode,
        parent_id: int | None,
        token_sets: tuple[frozenset[str], ...] | None = None,
    ) -> None:
        """Register a node that was just attached under parent_id; token_sets
        are its label's, when the caller already has them."""
        if node.id in self.nodes:
            raise ValueError("duplicate node id %r" % (node.id,))
        self.nodes[node.id] = node
        self.parents[node.id] = parent_id
        self.next_id = max(self.next_id, node.id + 1)
        if token_sets is None:
            token_sets = node.label.token_sets()
        self.token_sets[node.id] = token_sets
        if parent_id is not None:
            postings = self.children_by_token.setdefault(parent_id, {})
            for token in set().union(*token_sets):
                postings.setdefault(token, []).append(node.id)

    def merge_label(self, node: CompositeNode, label: LexicalForms) -> None:
        """Give a node the spellings of label whose fold key it lacks, in
        label order, and post their new token sets.

        Costs in proportion to label, not to the spellings the node holds:
        a spelling the node holds verbatim is skipped without folding, and
        each other one is folded once, checked against the node's fold keys
        and, when new, normalized from that fold.
        """
        held = node.label.forms
        fresh = [form for form in label.forms if form not in held]
        if not fresh:
            return
        keys = self.fold_keys.get(node.id)
        if keys is None:
            keys = self.fold_keys[node.id] = {fold(form) for form in held}
        extra: list[str] = []
        old_sets = self.token_sets[node.id]
        new_sets: list[frozenset[str]] = []
        for form in fresh:
            key = fold(form)
            if key in keys:
                continue
            keys.add(key)
            extra.append(form)
            normal = key.rstrip(_TRAILING_JUNK)
            if normal:
                tokens = frozenset(normal.split())
                if tokens not in old_sets and tokens not in new_sets:
                    new_sets.append(tokens)
        if not extra:
            return
        # valid by construction: non-blank spellings with distinct fold keys
        node.label = LexicalForms._trusted(held + tuple(extra))
        if not new_sets:
            return
        self.token_sets[node.id] = old_sets + tuple(new_sets)
        parent_id = self.parents[node.id]
        if parent_id is not None:
            postings = self.children_by_token.setdefault(parent_id, {})
            for tokens in new_sets:
                for token in tokens:
                    ids = postings.setdefault(token, [])
                    if node.id not in ids:
                        ids.append(node.id)


@dataclass
class CompositeTopicTree:
    """The norm for one domain/genre: merged topics over a reference corpus.

    The index is built on first use; ``composite.merge``, the only code that
    changes a composite, keeps it current.
    """

    root: CompositeNode
    domain_genre: str
    doc_count: int
    _index: CompositeIndex | None = field(default=None, init=False, repr=False, compare=False)

    def nodes(self) -> list[CompositeNode]:
        return list(walk(self.root))

    def index(self) -> CompositeIndex:
        if self._index is None:
            self._index = CompositeIndex(self.root)
        return self._index

    def node(self, node_id: int) -> CompositeNode:
        try:
            return self.index().nodes[node_id]
        except KeyError:
            raise UnknownNodeError("no composite node %r" % (node_id,)) from None


@dataclass(frozen=True)
class TypingParams:
    """Knobs for query mapping and topic typing.

    k bounds how far below the query node a topic may sit and still count as
    relevant; alpha splits relevant topics into typical vs rare by norm
    typicality; tau is the minimum query/topic similarity for a query match.
    """

    k: int = 2
    alpha: float = 0.5
    tau: float = 0.3

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")


class TopicType(Enum):
    TYPICAL = "typical"
    RARE = "rare"
    INTRICATE = "intricate"
    IRRELEVANT = "irrelevant"


class DocumentCategory(Enum):
    """Document classes, in presentation order."""

    PROTOTYPICAL = "prototypical"
    COMPREHENSIVE = "comprehensive"
    SPECIALIZED = "specialized"
    ATYPICAL = "atypical"
    DEEP = "deep"
    IRRELEVANT = "irrelevant"
    GENERIC = "generic"


CATEGORY_ORDER: tuple[DocumentCategory, ...] = tuple(DocumentCategory)
