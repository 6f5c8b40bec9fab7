"""Shared domain model: documents, the composite norm tree, labels and
their token sets, and the typing parameters and categories.

A document (``DocumentTopicTree``) is a set of parallel pre-order lists:
each topic's one spelling, its parent's id and its depth. A node's id is its
list position, so a subtree is a contiguous range of ids. A norm
(``CompositeTopicTree``) is a tree of ``CompositeNode`` whose labels
(``LexicalForms``) gather every spelling the reference documents gave a
topic; its ``CompositeIndex`` holds the lookups and memos every stage reads
the norm through, the label memo that tokenizes documents among them.

Labels keep their original surface strings for display; all comparison goes
through the tokens of their :func:`normalize` forms (case fold, whitespace
collapse, trailing punctuation strip) because section headers are noisy.

No document changes once parsed; the composite builder is the only code
that mutates composite nodes, and only during a build fold.

Every record class of the package derives from ``Record`` or
``FrozenRecord`` and writes out its own ``__init__``, so importing the
package generates no code: the standard library's dataclass decorator
imports ``inspect`` and execs each method it writes, which took a third of
every command's start-up. The records built per node or per document have
``__slots__``.
"""
from __future__ import annotations

import json
import operator
import reprlib
import string
from collections.abc import Iterator, Sequence
from enum import Enum
from pathlib import Path

# after fold the only whitespace left is single inner spaces
_TRAILING_JUNK = string.punctuation + " "
# every character str.splitlines breaks a line at, "\n" first
LINE_BREAKS = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class UnknownNodeError(LookupError):
    """A node id was used against a tree that does not contain it."""


class Record:
    """Base of the package's record classes: equality over the fields
    ``_fields`` names, in order, and a repr that shows them. A field left
    out of ``_fields`` is neither compared nor shown. Each subclass writes
    out its own ``__init__``, so no constructor loops over field names.
    A record's fields can change, so it is unhashable; see FrozenRecord."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls):
            # the compared values, read by one C getter built once per class
            cls._values = staticmethod(operator.attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record whose ``__init__`` sets each field once, through
    ``object.__setattr__``; assigning or deleting a field afterwards raises
    AttributeError. Hashable by the values it compares."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__qualname__}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a frozen record through its constructor:
        # restoring its slots one by one would meet __setattr__
        return type(self), tuple(getattr(self, name) for name in self._fields)


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


def check_line(text: str, what: str, error: type[Exception]) -> None:
    """Raise error unless text stands as one line of UTF-8 text, as every
    text that reaches an output line or the norm file must. The message
    names the text as what and says what keeps it from standing: "a line
    break" or "text that is not valid UTF-8" (a lone surrogate, which is how
    argv and JSON escapes carry an undecodable byte)."""
    if any(mark in text for mark in LINE_BREAKS):
        fault = "a line break"
    else:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            fault = "text that is not valid UTF-8"
        else:
            return
    raise error(f"{what} {brief_repr(text)} holds {fault}")


def read_json(path: str | Path, what: str, error: type[Exception]) -> object:
    """The JSON value of the what file at path, read as UTF-8 with a leading
    byte-order mark dropped; a missing, unreadable, invalid or too deeply
    nested file raises error, with a message naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer too long to convert
        raise error(f"{what} file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} file {path} is nested too deeply") from exc


def normalize(text: str) -> str:
    """Normal form for all label/string comparison.

    Case fold, trim, collapse whitespace, strip trailing punctuation, so
    "Symptoms:" and "symptoms" compare equal. May return "" for labels made
    of punctuation only; empty normal forms never count as a match.
    """
    return fold(text).rstrip(_TRAILING_JUNK)


def _tokens(form: str) -> frozenset[str]:
    """The tokens of a spelling's normal form; empty when it normalizes to "".

    Splitting the case-folded spelling gives normalize's tokens, save the
    trailing punctuation, which is stripped token by token: no character
    casefolds to or from whitespace.
    """
    tokens = form.casefold().split()
    while tokens:
        last = tokens[-1].rstrip(string.punctuation)
        if last:
            tokens[-1] = last
            return frozenset(tokens)
        tokens.pop()
    return frozenset()


class LexicalForms(FrozenRecord):
    """Ordered set of surface strings naming one topic, canonical form first."""

    __slots__ = _fields = ("forms",)

    def __init__(self, forms: tuple[str, ...]) -> None:
        if not forms:
            raise ValueError("a label needs at least one form")
        if any(not f.strip() for f in forms):
            raise ValueError("blank lexical form in %r" % (forms,))
        if len(forms) > 1:
            keys = {fold(f) for f in forms}
            if len(keys) != len(forms):
                raise ValueError("duplicate lexical forms in %r" % (forms,))
        object.__setattr__(self, "forms", forms)

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
        sets: list[frozenset[str]] = []
        for form in self.forms:
            tokens = _tokens(form)
            if tokens and tokens not in sets:
                sets.append(tokens)
        return tuple(sets)


class CompositeNode(Record):
    """One topic in the norm tree.

    typicality is always support / doc_count of the owning tree; position is
    the mean normalized sibling rank over the documents that contributed the
    topic. Siblings are kept sorted by ascending position.
    """

    __slots__ = _fields = ("id", "label", "typicality", "position", "support", "children")

    def __init__(
        self,
        id: int,
        label: LexicalForms,
        typicality: float,
        position: float,
        support: int,
        children: list[CompositeNode] | None = None,
    ) -> None:
        self.id = id
        self.label = label
        self.typicality = typicality
        self.position = position
        self.support = support
        self.children = [] if children is None else children


def best_jaccard(sets_a: Sequence[frozenset[str]], sets_b: Sequence[frozenset[str]]) -> float:
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
    """Pre-order traversal over a tree of nodes with ``children``, such as
    a norm's CompositeNode tree."""
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


class DocumentMetadata(FrozenRecord):
    """Extra document features carried alongside the topic tree."""

    __slots__ = _fields = ("title", "content_types", "special_content", "source_path")

    def __init__(
        self,
        title: str | None = None,
        content_types: frozenset[str] = frozenset(),
        special_content: frozenset[str] = frozenset(),
        source_path: str = "",
    ) -> None:
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "content_types", content_types)
        object.__setattr__(self, "special_content", special_content)
        object.__setattr__(self, "source_path", source_path)


def _preorder_fault(parents: list[int], depths: list[int], size: int) -> str | None:
    """What keeps parallel parent and depth lists of size nodes from being
    a pre-order tree, or None. ``path`` holds the ids from the root down to
    the node before, so path[d - 1] is the nearest earlier node at depth
    d - 1 whenever d is at most one past that node's depth."""
    if not size or len(parents) != size or len(depths) != size:
        return "labels, parents and depths need one equal, non-zero length"
    if parents[0] != -1 or depths[0] != 0:
        return "the root needs parent -1 and depth 0"
    path = [0]
    for node_id in range(1, size):
        depth = depths[node_id]
        if type(depth) is not int or not 1 <= depth <= len(path):
            return f"node {node_id} has depth {depth!r}, not 1 to {len(path)}"
        if type(parents[node_id]) is not int or parents[node_id] != path[depth - 1]:
            return f"node {node_id} has parent {parents[node_id]!r}, not {path[depth - 1]}"
        del path[depth:]
        path.append(node_id)
    return None


class DocumentTopicTree(Record):
    """A single document's topic hierarchy plus its metadata, as parallel
    pre-order lists.

    A node's id is its position in the lists, so the root is node 0.
    ``labels`` holds each topic's one spelling (never blank), ``parents``
    each node's parent id (the root's is -1) and ``depths`` its depth below
    the root. Every node follows its parent and its parent's earlier
    children's subtrees, so a subtree is a contiguous range of ids
    (``subtree``). Sibling ranks (``ranks``) and token sets
    (``token_sets``) are derived where a stage needs them, never stored.

    Built by hand, the lists must hold to that order, or ValueError is
    raised: one equal, non-zero length; a root with parent -1 at depth 0;
    and each later node one level below its parent, at most one level below
    the node before it, under the nearest earlier node one level up. The
    parser builds its lists in that order and skips the check.
    """

    __slots__ = _fields = ("doc_id", "labels", "parents", "depths", "metadata")

    def __init__(
        self, doc_id: str, labels: list[str], parents: list[int], depths: list[int], metadata: DocumentMetadata
    ) -> None:
        fault = _preorder_fault(parents, depths, len(labels))
        if fault is not None:
            raise ValueError(f"document {brief_repr(doc_id)} is not in pre-order: {fault}")
        self.doc_id = doc_id
        self.labels = labels
        self.parents = parents
        self.depths = depths
        self.metadata = metadata

    @classmethod
    def _trusted(
        cls, doc_id: str, labels: list[str], parents: list[int], depths: list[int], metadata: DocumentMetadata
    ) -> "DocumentTopicTree":
        """A document over lists the caller built in pre-order, such as the
        parser's; skips the order check."""
        doc = object.__new__(cls)
        doc.doc_id, doc.labels, doc.parents, doc.depths, doc.metadata = doc_id, labels, parents, depths, metadata
        return doc

    def nodes(self) -> range:
        """The node ids, in pre-order."""
        return range(len(self.labels))

    def subtree(self, node_id: int) -> range:
        """The ids of node_id and of every node below it."""
        if node_id not in self.nodes():
            raise UnknownNodeError(f"node {node_id!r} is not in the tree")
        depths = self.depths
        depth, end = depths[node_id], node_id + 1
        while end < len(depths) and depths[end] > depth:
            end += 1
        return range(node_id, end)

    def ranks(self) -> list[float]:
        """Each node's sibling index / max(sibling count - 1, 1); the root's
        is 0.0."""
        parents = self.parents
        counts = [0] * len(parents)
        for parent in parents[1:]:
            counts[parent] += 1
        seen = [0] * len(parents)
        ranks = [0.0]
        for parent in parents[1:]:
            ranks.append(seen[parent] / max(counts[parent] - 1, 1))
            seen[parent] += 1
        return ranks

    def token_sets(self, memo: dict[str, tuple[frozenset[str], ...]]) -> list[tuple[frozenset[str], ...]]:
        """Each node's token sets, ``LexicalForms((label,)).token_sets()``,
        read from memo (spelling -> token sets) and filled in where it lacks
        a spelling: a genre's documents repeat their headers, so with one
        memo per norm each distinct spelling is tokenized once. Raises
        ValueError for a blank label, which only a hand-built document can
        hold, before any stage compares it."""
        sets = []
        for label in self.labels:
            label_sets = memo.get(label)
            if label_sets is None:
                if not label.strip():
                    raise ValueError(f"document {brief_repr(self.doc_id)} has a blank label")
                tokens = _tokens(label)
                label_sets = memo[label] = (tokens,) if tokens else ()
            sets.append(label_sets)
        return sets

    def display_title(self) -> str:
        """Title used when referring to this document in prose."""
        return self.metadata.title or self.labels[0] or self.doc_id


class CompositeIndex:
    """Lookups over one composite tree, so no query re-walks it.

    Holds id -> node, id -> the label's token sets, the next free id (one
    past the largest) and, per parent, two posting maps over its children:
    ``children_by_token`` maps token -> ids of the children whose label has
    that token, and ``children_by_set`` maps token set -> ids of the
    children whose label holds that very set (the root's own sets are under
    the parent None). Siblings rarely hold one identical set, as a header
    that has an exact holder among the candidates matches it, so those
    lists are short. For each label of more than one token set, such as the
    root's, which gains one per distinct document title, ``set_postings``
    maps token -> indices of that label's sets holding it, so a header is
    scored only over the sets it shares a token with; every other set
    scores 0.

    ``merge_label`` keeps, per node, the fold keys of its label's spellings
    (``fold_keys``, built the first time a document brings the node a
    spelling other than its own), so no merge scans a label's spellings; a
    new token set is looked up in ``children_by_set``. ``add`` and
    ``merge_label`` post a node's new token sets through one routine.

    Two memos hold results derived from the tree, so a norm loaded once
    computes each only once: ``possible_typical`` maps (query, params) to
    ``classify.possible_typical_topics``, and ``alignments`` maps
    (threshold, anchor id, a header's token sets) to the id of the composite
    node ``composite.align_tree`` matches that header to, or None. The
    alignment memo holds one entry per distinct key seen; the norm build
    aligns without it, since each of its folds changes the norm. Whatever
    changes the tree calls ``clear_memos``.

    A third memo, ``label_sets``, maps a header spelling to its token sets
    for every document read against this norm
    (``DocumentTopicTree.token_sets``): by the build, for each reference
    document, and by typing, for each document typed against it. It holds
    one entry per distinct header spelling the norm has seen and lives as
    long as the norm. A spelling's token sets do not depend on the tree, so
    ``clear_memos`` keeps it.
    """

    def __init__(self, root: CompositeNode) -> None:
        self.next_id = root.id + 1
        self.nodes: dict[int, CompositeNode] = {}
        self.token_sets: dict[int, tuple[frozenset[str], ...]] = {}
        self.children_by_token: dict[int, dict[str, list[int]]] = {}
        self.children_by_set: dict[int | None, dict[frozenset[str], list[int]]] = {}
        self.set_postings: dict[int, dict[str, list[int]]] = {}
        self.parents: dict[int, int | None] = {}
        self.fold_keys: dict[int, set[str]] = {}
        self.possible_typical: dict[tuple[str, TypingParams], frozenset[int]] = {}
        self.alignments: dict[tuple[float, int, tuple[frozenset[str], ...]], int | None] = {}
        self.label_sets: dict[str, tuple[frozenset[str], ...]] = {}
        self.add(root, None)
        for node in walk(root):
            for child in node.children:
                self.add(child, node.id)

    def clear_memos(self) -> None:
        """Forget every memoized result derived from the tree; called by
        whatever changes it. The label memo stays: it does not depend on the
        tree."""
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
        self._post(node.id, token_sets)

    def _post(self, node_id: int, new_sets: tuple[frozenset[str], ...]) -> None:
        """Give a node the new token sets new_sets and post them: in its
        parent's set holders, under the tokens its label did not have yet in
        its parent's token postings, and, once it holds more than one set, in
        its own set postings."""
        old_sets = self.token_sets.get(node_id, ())
        parent_id = self.parents[node_id]
        holders = self.children_by_set.setdefault(parent_id, {})
        for tokens in new_sets:
            holders.setdefault(tokens, []).append(node_id)
        if parent_id is not None:
            had = self.set_postings.get(node_id) or (old_sets[0] if old_sets else ())
            postings = self.children_by_token.setdefault(parent_id, {})
            for token in set().union(*new_sets).difference(had):
                postings.setdefault(token, []).append(node_id)
        sets = self.token_sets[node_id] = old_sets + new_sets
        if len(sets) > 1:
            # a label that had one set gets its set postings now, from set 0
            first = len(old_sets) if len(old_sets) > 1 else 0
            by_token = self.set_postings.setdefault(node_id, {})
            for offset in range(first, len(sets)):
                for token in sets[offset]:
                    by_token.setdefault(token, []).append(offset)

    def merge_label(self, node: CompositeNode, spelling: str, token_sets: tuple[frozenset[str], ...]) -> None:
        """Give a node a document's spelling, unless it holds one of the same
        fold key, and post the spelling's token sets (token_sets) it lacks.

        Costs in proportion to the spelling, not to the spellings the node
        holds: a node spelled only this way is skipped without folding, and
        otherwise the spelling is folded once and checked against the node's
        fold keys; its token sets are looked up among the sets its parent's
        children hold. Fold keys and token sets are looked up, never scanned
        for.
        """
        forms = node.label.forms
        if forms == (spelling,):
            # the common repeat: a header spelled as the node it matched
            return
        node_id = node.id
        keys = self.fold_keys.get(node_id)
        if keys is None:
            keys = self.fold_keys[node_id] = {fold(form) for form in forms}
        key = fold(spelling)
        if key in keys:
            return
        keys.add(key)
        # valid by construction: a non-blank spelling with a new fold key
        node.label = LexicalForms._trusted(forms + (spelling,))
        holders = self.children_by_set[self.parents[node_id]]
        new_sets = tuple(tokens for tokens in token_sets if node_id not in holders.get(tokens, ()))
        if new_sets:
            self._post(node_id, new_sets)


class CompositeTopicTree(Record):
    """The norm for one domain/genre: merged topics over a reference corpus.

    The index is built on first use; the build's fold
    (``composite._fold_document``), the only code that changes a composite,
    keeps it current. It is neither compared nor shown.
    """

    __slots__ = ("root", "domain_genre", "doc_count", "_index")
    _fields = ("root", "domain_genre", "doc_count")

    def __init__(self, root: CompositeNode, domain_genre: str, doc_count: int) -> None:
        self.root = root
        self.domain_genre = domain_genre
        self.doc_count = doc_count
        self._index: CompositeIndex | None = None

    def nodes(self) -> list[CompositeNode]:
        return list(walk(self.root))

    def index(self) -> CompositeIndex:
        if self._index is None:
            self._index = CompositeIndex(self.root)
        return self._index


class TypingParams(FrozenRecord):
    """Knobs for query mapping and topic typing.

    k bounds how far below the query node a topic may sit and still count as
    relevant; alpha splits relevant topics into typical vs rare by norm
    typicality; tau is the minimum query/topic similarity for a query match.
    Frozen and hashable: the params key the possible-typical memo.
    """

    __slots__ = _fields = ("k", "alpha", "tau")

    def __init__(self, k: int = 2, alpha: float = 0.5, tau: float = 0.3) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau", tau)


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
