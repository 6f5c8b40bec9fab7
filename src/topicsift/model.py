"""Shared domain model: documents, the composite norm, labels and their
token sets, and the typing parameters and categories.

A document (``DocumentTopicTree``) is a set of parallel pre-order lists:
each topic's one spelling, its parent's id and its depth. A node's id is its
list position, so a subtree is a contiguous range of ids. A norm
(``CompositeTopicTree``) is a set of fields keyed by node id: the spellings
the reference documents gave each topic (its forms), its parent, support
and position, and its child ids in sibling order. The ids are whatever
integers the build or the norm file gave the nodes. Typicality is never
stored: each reader derives it as support / doc_count. ``CompositeIndex``
reads the norm's own fields and adds the lookups and memos every stage
reads the norm through, the label memo that tokenizes documents among them.

Labels keep their original surface strings for display; all comparison goes
through the tokens of their :func:`normalize` forms (case fold, whitespace
collapse, trailing punctuation strip) because section headers are noisy.

No document changes once parsed; the composite builder is the only code
that changes a norm, and only during a build fold.

Every record class of the package derives from ``Record`` or
``FrozenRecord``; the ``Record`` docstring says which write out their own
constructor and which take the one ``Record`` builds. None is a
dataclass, and nothing in the package calls ``exec`` or imports
``inspect``. The records built per node or per document have
``__slots__``.
"""
from __future__ import annotations

import json
import operator
import reprlib
import string
from collections.abc import Callable, Sequence
from enum import Enum
from pathlib import Path

# after fold the only whitespace left is single inner spaces
_TRAILING_JUNK = string.punctuation + " "
# every character str.splitlines breaks a line at, "\n" first
LINE_BREAKS = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class UnknownNodeError(LookupError):
    """A node id was used against a tree that does not contain it."""


def _constructor(cls: type) -> Callable[..., None]:
    """The ``__init__`` Record gives a class that defines none; see Record."""
    name, fields, defaults = cls.__qualname__, cls._fields, cls._defaults
    store = object.__setattr__

    def __init__(self, *args, **kwargs) -> None:
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            store(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in defaults:
                value = defaults[field]
                if value.__class__ in (list, dict, set):
                    value = value.copy()
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
            store(self, field, value)
        # a keyword left over names no field, or one given by position
        for field in kwargs:
            fault = "got multiple values for argument" if field in fields else "got an unexpected keyword argument"
            raise TypeError(f"{name}() {fault} {field!r}")

    return __init__


class Record:
    """Base of the package's record classes: equality over the fields
    ``_fields`` names, in order, and a repr that shows them. A field left
    out of ``_fields`` is neither compared nor shown. A record's fields can
    change, so it is unhashable; see FrozenRecord.

    A subclass that defines no ``__init__`` is given one, built once per
    class as a closure over ``_fields`` and ``_defaults`` (field ->
    default). It takes each field of ``_fields`` by position or by keyword
    and raises TypeError for a missing, unknown, repeated or extra
    argument. A default that is a list, dict or set is copied for each
    record. It stores through ``object.__setattr__``, so frozen records
    take it too. It is built without ``exec`` or ``inspect``, so ``help()``
    shows its signature as ``(*args, **kwargs)``: the class's fields are
    its ``_fields``.

    A subclass writes out its own ``__init__`` where the generated one's
    loop over field names, 0.5-2 µs more per call, would cost a workload:
    the records built per document (``DocumentMetadata``,
    ``DocumentTopicTree``, ``Alignment``, ``TypedTree``,
    ``TypeDistribution`` and ``DocResult``) and those built most often per
    request (``SentencePlan``, ``HasFeature`` and ``CategoryPlan``). So do
    the records that check their arguments: ``TypingParams`` and
    ``Pattern``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls):
            # the compared values, read by one C getter built once per class
            cls._values = staticmethod(operator.attrgetter(*cls._fields))
            if "__init__" not in vars(cls):
                cls.__init__ = _constructor(cls)

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
    one space; a topic keeps one spelling per fold key.

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
    # splitlines breaks at every mark of LINE_BREAKS and nowhere else, so
    # one C call stands for ten substring tests; "" splits into no lines
    if text and text.splitlines() != [text]:
        raise error(f"{what} {brief_repr(text)} holds a line break")
    check_utf8(text, what, error)


def check_utf8(text: str, what: str, error: type[Exception]) -> None:
    """Raise error unless text is valid UTF-8 text, that is, holds no lone
    surrogate; check_line's message names the fault."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise error(f"{what} {brief_repr(text)} holds text that is not valid UTF-8") from None


def read_json(path: str | Path, what: str, error: type[Exception]) -> object:
    """The JSON value of the what file at path, read as UTF-8 with a leading
    byte-order mark dropped; a missing, unreadable, invalid or too deeply
    nested file raises error, with a message naming the file. The bytes are
    decoded in one call, as ``ingest.load_corpus`` does, so a file of only
    the first bytes of a byte-order mark is refused as not UTF-8 (a
    text-mode read would return "" for it)."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8-sig"))
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


def token_sets_of(forms: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    """The distinct token sets of a topic's spellings' non-empty normal
    forms, in spelling order; labels are compared by these. A spelling that
    normalizes to "" gives none."""
    sets: list[frozenset[str]] = []
    for form in forms:
        tokens = _tokens(form)
        if tokens and tokens not in sets:
            sets.append(tokens)
    return tuple(sets)


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
        # max(count - 1, 1) for a parent; a leaf's -1 is never read
        spans = [count - 1 or 1 for count in counts]
        seen = [0] * len(parents)
        ranks = [0.0]
        for parent in parents[1:]:
            ranks.append(seen[parent] / spans[parent])
            seen[parent] += 1
        return ranks

    def token_sets(self, memo: dict[str, tuple[frozenset[str], ...]]) -> list[tuple[frozenset[str], ...]]:
        """Each node's token sets, ``token_sets_of((label,))``, read from
        memo (spelling -> token sets) and filled in where it lacks a
        spelling: a genre's documents repeat their headers, so with one
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
    """Lookups over one norm, so no query re-walks it.

    Reads the norm's own per-id fields (``forms``, ``parents``,
    ``positions`` and ``children`` are the tree's dicts, not copies) and
    holds id -> the label's token sets, the next free id (one past the
    largest) and, per parent, one posting map over its children:
    ``children_by_token`` maps token -> ids of the children whose label has
    that token. A child is listed once under each token of every set it
    holds, and no set is empty, so the postings of any one token of a set
    list every child that holds that set. For each label of more than one
    token set, such as the root's, which gains one per distinct document
    title, ``set_postings`` maps token -> indices of that label's sets
    holding it, so a header is scored only over the sets it shares a token
    with, every other set scoring 0, and ``holds`` finds a set among the
    label's by one of its tokens, not by a scan of all of them.

    From the first time a document brings a node a spelling other than
    its own, ``merge_label`` keeps two sets for it: every raw spelling
    merged into it so far (``spellings``, its label's forms among them) and
    the fold keys of its label's forms (``fold_keys``). A spelling seen
    before is found in the first without folding; a new one is folded once
    and looked up in the second. A new token set is looked up among the
    node's own ``token_sets`` (``holds``). The fold, for a node it inserts,
    and ``merge_label`` post a node's new token sets through one routine,
    ``post``.

    Two memos hold results derived from the tree, so a norm loaded once
    computes each only once: ``possible_typical`` maps (query, params) to
    ``classify.possible_typical_topics``, and ``alignments`` maps threshold
    -> anchor id -> a header's token sets to the id of the composite node
    ``composite.align_tree`` matches that header to, or None.
    ``align_tree`` takes one threshold's dict per document, so a header
    costs two dict lookups and builds no key. The alignment memo holds one
    entry per distinct header seen under an anchor; the norm build aligns
    without it, since each of its folds changes the norm. Whatever changes
    the tree calls ``clear_memos``.

    Two more memos do not depend on the tree, so ``clear_memos`` keeps
    them; each lives as long as the norm. ``label_sets`` maps a header
    spelling to its token sets for every document read against this norm
    (``DocumentTopicTree.token_sets``): by the build, for each reference
    document, and by typing, for each document typed against it. It holds
    one entry per distinct header spelling the norm has seen.
    ``query_sets`` maps a query to its token sets,
    ``token_sets_of((query,))``, for ``topic_typing.type_document``, so a
    query typed against many documents is tokenized once; it holds one
    entry per distinct non-blank query.
    """

    def __init__(self, tree: CompositeTopicTree) -> None:
        self.forms = tree.forms
        self.parents = tree.parents
        self.positions = tree.positions
        self.children = tree.children
        self.next_id = max(tree.forms) + 1
        self.token_sets: dict[int, tuple[frozenset[str], ...]] = {}
        self.children_by_token: dict[int, dict[str, list[int]]] = {}
        self.set_postings: dict[int, dict[str, list[int]]] = {}
        self.spellings: dict[int, set[str]] = {}
        self.fold_keys: dict[int, set[str]] = {}
        self.possible_typical: dict[tuple[str, TypingParams], frozenset[int]] = {}
        self.alignments: dict[float, dict[int, dict[tuple[frozenset[str], ...], int | None]]] = {}
        self.label_sets: dict[str, tuple[frozenset[str], ...]] = {}
        self.query_sets: dict[str, tuple[frozenset[str], ...]] = {}
        for node_id, forms in tree.forms.items():
            self.post(node_id, token_sets_of(forms))

    def clear_memos(self) -> None:
        """Forget every memoized result derived from the tree; called by
        whatever changes it. The label and query memos stay: they do not
        depend on the tree."""
        self.possible_typical.clear()
        self.alignments.clear()

    def post(self, node_id: int, new_sets: tuple[frozenset[str], ...]) -> None:
        """Give a node the token sets new_sets, none of which it holds yet,
        and post them: under each token its label did not have yet in its
        parent's token postings and, once it holds more than one set, under
        each token in its own set postings.

        A posting map or list is made only for its first entry, and a list
        then holds just that entry: most hold one id, and an appended empty
        list would reserve room for four."""
        old_sets = self.token_sets.get(node_id, ())
        parent_id = self.parents[node_id]
        if parent_id is not None:
            had = self.set_postings.get(node_id) or (old_sets[0] if old_sets else ())
            postings = self.children_by_token.get(parent_id)
            if postings is None:
                postings = self.children_by_token[parent_id] = {}
            for token in new_sets[0] if len(new_sets) == 1 else set().union(*new_sets):
                if token not in had:
                    ids = postings.get(token)
                    if ids is None:
                        postings[token] = [node_id]
                    else:
                        ids.append(node_id)
        sets = self.token_sets[node_id] = old_sets + new_sets
        if len(sets) > 1:
            # a label that had one set gets its set postings now, from set 0
            first = len(old_sets) if len(old_sets) > 1 else 0
            by_token = self.set_postings.get(node_id)
            if by_token is None:
                by_token = self.set_postings[node_id] = {}
            for offset in range(first, len(sets)):
                for token in sets[offset]:
                    offsets = by_token.get(token)
                    if offsets is None:
                        by_token[token] = [offset]
                    else:
                        offsets.append(offset)

    def holds(self, node_id: int, tokens: frozenset[str]) -> bool:
        """Whether the node's label holds the token set tokens. A label of
        several sets is searched only among its sets that hold one token of
        tokens, through its set postings, so the root, which gains a set per
        distinct document title, is not scanned."""
        sets = self.token_sets[node_id]
        by_token = self.set_postings.get(node_id)
        if by_token is not None:
            for token in tokens:
                return tokens in map(sets.__getitem__, by_token.get(token, ()))
        return tokens in sets

    def merge_label(self, node_id: int, spelling: str, token_sets: tuple[frozenset[str], ...]) -> None:
        """Give a node a document's spelling, unless it holds one of the same
        fold key, and post the spelling's token sets (token_sets) it lacks.

        Costs in proportion to the spelling, not to the spellings the node
        holds: a node spelled only this way is skipped without folding, a
        spelling the node's spelling set holds is skipped without folding,
        and any other is folded once, added to that set and looked up among
        the node's fold keys; its token sets are looked up among the node's
        own through ``holds``.
        """
        seen = self.spellings.get(node_id)
        if seen is None:
            forms = self.forms[node_id]
            if forms[0] == spelling and len(forms) == 1:
                # the common repeat: a header spelled as the node it matched
                return
            seen = self.spellings[node_id] = set(forms)
            self.fold_keys[node_id] = {fold(form) for form in forms}
        if spelling in seen:
            return
        seen.add(spelling)
        key = fold(spelling)
        keys = self.fold_keys[node_id]
        if key in keys:
            return
        keys.add(key)
        # valid by construction: a non-blank spelling with a new fold key
        self.forms[node_id] += (spelling,)
        new_sets = tuple(tokens for tokens in token_sets if not self.holds(node_id, tokens))
        if new_sets:
            self.post(node_id, new_sets)


class NormNode(FrozenRecord):
    """One norm node as ``CompositeTopicTree.nodes`` reports it, built on
    each call: the node's fields, its children aside, and its typicality,
    support / doc_count."""

    __slots__ = _fields = ("id", "forms", "position", "support", "typicality")


class CompositeTopicTree(Record):
    """The norm for one domain/genre: merged topics over a reference corpus.

    ``root`` is the root's id; keyed by node id are ``forms`` (the topic's
    spellings), ``parents`` (None for the root), ``supports`` (documents
    that contributed the topic), ``positions`` (mean normalized sibling rank
    over them) and ``children`` (child ids, sorted by position). Typicality
    is support / doc_count, derived by each reader. The constructor takes
    the fields as given: ``build_composite`` and ``load_composite`` check
    them. The index is built on first use and kept current by the build's
    fold; it is neither compared nor shown.
    """

    __slots__ = ("domain_genre", "doc_count", "root", "forms", "parents", "supports", "positions", "children", "_index")
    _fields = __slots__[:-1]

    def preorder(self, start: int | None = None) -> list[tuple[int, int]]:
        """(id, depth below start) of start, the root by default, and of
        every node below it, in pre-order: each node before its children,
        siblings in position order."""
        children = self.children
        order = []
        stack = [(self.root if start is None else start, 0)]
        while stack:
            node_id, depth = stack.pop()
            order.append((node_id, depth))
            stack.extend([(child, depth + 1) for child in reversed(children[node_id])])
        return order

    def nodes(self) -> list[NormNode]:
        """One record per node, in pre-order."""
        forms, positions, supports, doc_count = self.forms, self.positions, self.supports, self.doc_count
        return [
            NormNode(node_id, forms[node_id], positions[node_id], supports[node_id], supports[node_id] / doc_count)
            for node_id, _ in self.preorder()
        ]

    def index(self) -> CompositeIndex:
        try:
            return self._index
        except AttributeError:
            # the slot stays unset until the first use
            self._index = CompositeIndex(self)
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
    # a member equals only itself, so hashing by identity agrees with
    # equality, and in C: Enum.__hash__ is a Python function
    __hash__ = object.__hash__

    TYPICAL = "typical"
    RARE = "rare"
    INTRICATE = "intricate"
    IRRELEVANT = "irrelevant"


class DocumentCategory(Enum):
    """Document classes, in presentation order."""

    __hash__ = object.__hash__

    PROTOTYPICAL = "prototypical"
    COMPREHENSIVE = "comprehensive"
    SPECIALIZED = "specialized"
    ATYPICAL = "atypical"
    DEEP = "deep"
    IRRELEVANT = "irrelevant"
    GENERIC = "generic"


CATEGORY_ORDER: tuple[DocumentCategory, ...] = tuple(DocumentCategory)
