"""Building the composite topic tree (the domain/genre norm) by aligning and
folding document topic trees from a reference corpus; reading and writing
norm files.

``build_composite`` is the only public way to change a norm. It folds the
corpus in document (file-name) order into a norm of the first document's
root only: the first document is folded in without being aligned, so none of
its headers is absorbed into the root, and every further one is aligned
against the current norm, then folded in. Per node the norm tracks support
(how many documents contributed the topic) and position (mean normalized
sibling rank over contributors); typicality, support / documents seen, is
derived where it is read, never stored.

Alignment is greedy and top-down. Roots always align. Every other document
node may only match among the children of its parent's matched composite
node, plus that node itself, so a level skip in one document can be
absorbed. A match needs label similarity >= threshold, the best token-set
Jaccard between the labels' normal forms; ties fall to the candidate with
the lower position, then the lower id. Scoring reads the norm's index
(``CompositeTopicTree.index``), which the fold keeps current:

- a candidate that holds one of the header's token sets scores 1.0, the best
  there is, so when the anchor or one of its children holds one, the lowest
  (position, id) among those holders wins and nothing is scored;
- otherwise, above a threshold of 0, only the anchor and the children that
  share a token with the header are scored: any other child scores 0. At a
  threshold of exactly 0 every child of the anchor is scored;
- a label of several token sets, such as the root's, which gains one per
  distinct document title, is scored only over its sets that share a token
  with the header; every other set scores 0.

A header's match depends on nothing but the norm, the threshold, its anchor
(the match of its parent) and its token sets. ``align_tree`` memoizes it in
the index's ``alignments``, so against a norm loaded once each distinct
header is scored once per anchor. Whatever changes the norm clears the memo;
``build_composite`` aligns without it, as the next fold would clear each
entry before it could be read back.

``build_composite`` takes each document's token sets once, from the norm's
label memo (``CompositeIndex.label_sets``), and hands them to both alignment
and the fold, so each distinct header spelling of a corpus is tokenized
once. Folding a document costs in proportion to the document and the
sibling lists it changes, never to the whole norm:

- sibling lists are always sorted by position; the fold re-sorts, stably,
  only those in which it moved a child's position or inserted a child, so
  ties keep their order and new children come last;
- merging a header's spelling into a label costs in proportion to that one
  spelling, not to the spellings the label holds
  (``CompositeIndex.merge_label``); a new topic takes the header's token
  sets.

``save_composite`` writes a versioned JSON file, byte-identical for
identical norms, in one f-string per node; within one call it formats each
distinct support's typicality and each distinct non-zero position once.
``load_composite`` reads a file's nodes in one loop, in pre-order, straight
into the norm's fields: every node is checked before its children, and the
first fault in that order is the one named. A node more than half the
recursion limit below the root makes the file "nested too deeply", which
leaves the writer, which recurses once per level, half the stack. Each
sibling list is sorted by position once, stably, after the loop. Loading
builds no index; it is built on the first lookup.
"""
from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring
from pathlib import Path
from types import MappingProxyType

from .ingest import CorpusSet
from .model import (
    CompositeIndex,
    CompositeTopicTree,
    DocumentTopicTree,
    LexicalForms,
    Record,
    best_jaccard,
    brief_repr,
    check_line,
    read_json,
)

SCHEMA_VERSION = "1"


class EmptyCorpusError(ValueError):
    """A norm cannot be built from an empty corpus."""


class CompositeSchemaError(ValueError):
    """A composite file failed schema or invariant validation."""


class Alignment(Record):
    """Mapping from document node ids to composite node ids.

    Every document node is either in pairs or in unmatched; a matched child
    always maps inside the subtree of its parent's match.
    """

    __slots__ = _fields = ("pairs", "unmatched")

    def __init__(self, pairs: dict[int, int] | None = None, unmatched: set[int] | None = None) -> None:
        self.pairs = {} if pairs is None else pairs
        self.unmatched = set() if unmatched is None else unmatched


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")


_UNSEEN = object()
# the posting maps of a node with no children: read, never written
_NONE_POSTED = MappingProxyType({})


def align_tree(
    doc: DocumentTopicTree,
    composite: CompositeTopicTree,
    threshold: float,
    *,
    token_sets: list[tuple[frozenset[str], ...]] | None = None,
    _memoize: bool = True,
) -> Alignment:
    """Greedily align a document tree against the composite, comparing its
    labels by token_sets (one entry per node; taken from the norm's label
    memo when not given).

    Each header's match is looked up in, or stored to, the composite index's
    alignment memo; ``build_composite`` passes ``_memoize=False``, as the
    norm it aligns against changes before any entry could be read back.
    """
    _check_threshold(threshold)
    norm = composite.index()
    if token_sets is None:
        token_sets = doc.token_sets(norm.label_sets)
    memo = norm.alignments if _memoize else None
    doc_parents = doc.parents

    alignment = Alignment(pairs={0: composite.root})
    pairs, unmatched = alignment.pairs, alignment.unmatched
    for node_id in range(1, len(doc_parents)):
        anchor_id = pairs.get(doc_parents[node_id])
        if anchor_id is None:
            unmatched.add(node_id)
            continue
        sets = token_sets[node_id]
        if memo is None:
            match = _best_match(norm, anchor_id, sets, threshold)
        else:
            key = (threshold, anchor_id, sets)
            match = memo.get(key, _UNSEEN)
            if match is _UNSEEN:
                match = memo[key] = _best_match(norm, anchor_id, sets, threshold)
        if match is None:
            unmatched.add(node_id)
        else:
            pairs[node_id] = match
    return alignment


def _best_match(
    norm: CompositeIndex,
    anchor_id: int,
    token_sets: tuple[frozenset[str], ...],
    threshold: float,
) -> int | None:
    """The id of the composite node a header with these token sets matches
    under the anchor (the anchor itself or one of its children), or None."""
    positions = norm.positions
    # a candidate holding one of the header's token sets scores 1.0, which
    # no other can beat: the lowest (position, id) among those wins
    held_below = norm.children_by_set.get(anchor_id, _NONE_POSTED)
    held_beside = norm.children_by_set[norm.parents[anchor_id]]
    exact: tuple[float, int] | None = None
    for tokens in token_sets:
        for candidate_id in held_below.get(tokens, ()):
            key = (positions[candidate_id], candidate_id)
            if exact is None or key < exact:
                exact = key
        if anchor_id in held_beside.get(tokens, ()):
            key = (positions[anchor_id], anchor_id)
            if exact is None or key < exact:
                exact = key
    if exact is not None:
        return exact[1]
    if threshold > 0.0:
        candidates = {anchor_id}
        postings = norm.children_by_token.get(anchor_id, _NONE_POSTED)
        for tokens in token_sets:
            for token in tokens:
                candidates.update(postings.get(token, ()))
    else:
        candidates = {anchor_id, *norm.children[anchor_id]}
    sets_of, set_postings = norm.token_sets, norm.set_postings
    best_key: tuple[float, float, int] | None = None
    for candidate_id in candidates:
        sets = sets_of[candidate_id]
        by_token = set_postings.get(candidate_id)
        if by_token is not None:
            # a set that shares no token with the header scores 0: skip it
            shared = {offset for tokens in token_sets for token in tokens for offset in by_token.get(token, ())}
            sets = [sets[offset] for offset in shared]
        similarity = best_jaccard(token_sets, sets)
        if similarity < threshold:
            continue
        key = (-similarity, positions[candidate_id], candidate_id)
        if best_key is None or key < best_key:
            best_key = key
    return None if best_key is None else best_key[2]


def _fold_document(
    composite: CompositeTopicTree,
    pairs: dict[int, int],
    doc: DocumentTopicTree,
    token_sets: list[tuple[frozenset[str], ...]],
) -> None:
    """Add one document, aligned by pairs (document id -> composite id), to
    the composite: support, positions, spellings and new topics, in place,
    keeping the composite's index current and clearing its memos.
    token_sets holds each document node's token sets.

    Work is in proportion to the document: only the parents whose child lists
    changed (a child's position moved or a child was inserted) are re-sorted.
    Every other child list kept its positions and, as every list is sorted
    from the start, stays sorted.
    """
    norm = composite.index()
    forms, comp_parents, supports = composite.forms, composite.parents, composite.supports
    positions, children = composite.positions, composite.children
    post, merge_label = norm.post, norm.merge_label
    parents = doc.parents

    touched: set[int] = set()
    contributed: set[int] = set()
    inserted: dict[int, int] = {}
    # pre-order: the first document node to hit a composite node carries the
    # support and rank contribution for this document, and an unmatched
    # parent is inserted before its children
    for node_id, (label, rank, sets) in enumerate(zip(doc.labels, doc.ranks(), token_sets)):
        target = pairs.get(node_id)
        if target is None:
            fresh = norm.next_id
            norm.next_id = fresh + 1
            parent = parents[node_id]
            comp_parent = inserted.get(parent)
            if comp_parent is None:
                comp_parent = pairs[parent]
                touched.add(comp_parent)
            # else a fresh parent, whose children arrive in document order,
            # so by ascending rank
            # valid by construction: token_sets refused a blank label
            forms[fresh] = (label,)
            comp_parents[fresh] = comp_parent
            supports[fresh] = 1
            positions[fresh] = rank
            children[fresh] = []
            children[comp_parent].append(fresh)
            post(fresh, sets)
            inserted[node_id] = fresh
        elif target not in contributed:
            contributed.add(target)
            support = supports[target]
            old = positions[target]
            position = positions[target] = (old * support + rank) / (support + 1)
            if position != old:
                parent_id = comp_parents[target]
                if parent_id is not None:
                    touched.add(parent_id)
            supports[target] = support + 1
            merge_label(target, label, sets)

    by_position = positions.__getitem__
    for parent_id in touched:
        children[parent_id].sort(key=by_position)
    norm.clear_memos()
    composite.doc_count += 1


def build_composite(corpus: CorpusSet, threshold: float, domain_genre: str | None = None) -> CompositeTopicTree:
    """Fold a whole corpus into a composite tree, in document (name) order.

    Raises CompositeSchemaError, before folding anything, when the domain
    genre (given, or the corpus directory's name) is not one line of UTF-8
    text, and ValueError (from ``DocumentTopicTree.token_sets``) for a
    blank document label, which only a hand-built document can hold."""
    _check_threshold(threshold)
    if not corpus.docs:
        raise EmptyCorpusError("cannot build norm from empty corpus")
    if domain_genre is None:
        domain_genre = Path(corpus.origin).name or "corpus"
    # the trace prints the domain genre on one line and the norm file stores it as UTF-8
    check_line(domain_genre, "the norm for domain genre", CompositeSchemaError)
    first = corpus.docs[0]
    composite = CompositeTopicTree(domain_genre, 0, 0, {0: (first.labels[0],)}, {0: None}, {0: 0}, {0: 0.0}, {0: []})
    label_sets = composite.index().label_sets
    # the first document meets a norm of its own root only: it is not aligned,
    # so every header is new and none is absorbed into the root
    _fold_document(composite, {0: 0}, first, first.token_sets(label_sets))
    for doc in corpus.docs[1:]:
        token_sets = doc.token_sets(label_sets)
        pairs = align_tree(doc, composite, threshold, token_sets=token_sets, _memoize=False).pairs
        _fold_document(composite, pairs, doc, token_sets)
    return composite


# ---------------------------------------------------------------------------
# serialization: versioned JSON with a deterministic writer. Support and
# doc_count round-trip bit-exactly as integers; typicality is written with 12
# decimals for readability and derived again as support / doc_count on load.

def save_composite(composite: CompositeTopicTree, path: str | Path) -> None:
    """Write a composite tree; byte-identical for identical trees. Text that
    UTF-8 cannot encode raises before the file is opened, leaving it intact."""
    forms, supports, positions, children = composite.forms, composite.supports, composite.positions, composite.children
    doc_count = composite.doc_count
    # each distinct support's typicality text and each distinct non-zero
    # position's, made once per call: 0.0 and -0.0 are one key, so a zero
    # bypasses the table to keep its sign
    typicality_text: dict[int, str] = {}
    position_text: dict[float, str] = {}
    out: list[str] = [
        f'{{\n  "version": {json.dumps(SCHEMA_VERSION)},\n'
        f'  "domain_genre": {json.dumps(composite.domain_genre, ensure_ascii=False)},\n'
        f'  "doc_count": {doc_count},\n  "root":\n'
    ]

    def emit(node_id: int, indent: str, lead: str) -> None:
        # one string per node, from lead (the separator after the sibling
        # before it) up to its closing brace, and one more that closes its
        # children. encode_basestring and float.__repr__ write what json.dumps
        # writes for a str (ensure_ascii=False) and a finite float
        inner = indent + "  "
        support = supports[node_id]
        typicality = typicality_text.get(support)
        if typicality is None:
            typicality = typicality_text[support] = f"{support / doc_count:.12f}"
        position = positions[node_id]
        if position:
            place = position_text.get(position)
            if place is None:
                place = position_text[position] = float.__repr__(position)
        else:
            place = float.__repr__(position)
        below = children[node_id]
        opened = "[\n" if below else f"[]\n{indent}}}"
        out.append(
            f'{lead}{indent}{{\n{inner}"id": {node_id},\n'
            f'{inner}"forms": [{", ".join(map(encode_basestring, forms[node_id]))}],\n'
            f'{inner}"typicality": {typicality},\n'
            f'{inner}"position": {place},\n'
            f'{inner}"support": {support},\n'
            f'{inner}"children": {opened}'
        )
        if below:
            deeper = inner + "  "
            lead = ""
            for child in below:
                emit(child, deeper, lead)
                lead = ",\n"
            out.append(f"\n{inner}]\n{indent}}}")

    emit(composite.root, "  ", "")
    out.append("\n}\n")
    Path(path).write_bytes("".join(out).encode("utf-8"))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CompositeSchemaError(message)


def load_composite(path: str | Path) -> CompositeTopicTree:
    """Load and validate a composite file (UTF-8, a leading byte-order mark
    dropped); typicality is derived from support, and sibling lists are
    sorted by position.

    The nodes are read in one loop in pre-order, with a stack of (payload,
    its parent's id, its depth): each node is checked before its children,
    and its children in file order, so a file with several faults names the
    first of them in that order. Each node's fields go straight into the
    norm's dicts, and each child list of two or more is sorted by position
    once it is filled. JSON values are never instances of a subclass, so
    each type is checked with one ``type(x) is`` test, which also keeps
    ``bool`` out of ``int``.
    """
    payload = read_json(path, "composite", CompositeSchemaError)
    _require(isinstance(payload, dict), "composite file must hold an object")
    _require(payload.get("version") == SCHEMA_VERSION, f"unsupported composite schema version {brief_repr(payload.get('version'))}")
    doc_count = payload.get("doc_count")
    _require(isinstance(doc_count, int) and not isinstance(doc_count, bool) and doc_count >= 1, "doc_count must be a positive integer")
    domain_genre = payload.get("domain_genre")
    _require(isinstance(domain_genre, str), "domain_genre must be a string")
    check_line(domain_genre, "the norm for domain genre", CompositeSchemaError)
    # each message is formatted only when its check fails: a norm file holds
    # thousands of nodes, and nearly all of them pass
    max_depth = sys.getrecursionlimit() // 2
    labels: dict[int, tuple[str, ...]] = {}
    parents: dict[int, int | None] = {}
    supports: dict[int, int] = {}
    positions: dict[int, float] = {}
    kids: dict[int, list[int]] = {}
    unsorted: list[list[int]] = []
    stack: list[tuple[object, int | None, int]] = [(payload.get("root"), None, 0)]
    while stack:
        node, parent_id, depth = stack.pop()
        if depth > max_depth:
            raise CompositeSchemaError(f"composite file {path} is nested too deeply")
        if type(node) is not dict:
            raise CompositeSchemaError("composite node must be an object")
        node_id = node.get("id")
        if type(node_id) is not int:
            raise CompositeSchemaError("node id must be an integer")
        if node_id in labels:
            raise CompositeSchemaError(f"duplicate node id {node_id}")
        forms = node.get("forms")
        if not (type(forms) is list and forms and all(type(f) is str and f.strip() for f in forms)):
            raise CompositeSchemaError(f"node {node_id}: forms must be a non-empty list of strings")
        support = node.get("support")
        if type(support) is not int:
            raise CompositeSchemaError(f"node {node_id}: support must be an integer")
        if support < 1:
            raise CompositeSchemaError(f"node {node_id}: support must be >= 1")
        if support > doc_count:
            raise CompositeSchemaError(f"node {node_id}: support {support} exceeds doc_count {doc_count}")
        position = node.get("position")
        # json.loads accepts NaN and Infinity; either would make sibling order
        # and alignment tie-breaks unstable. The bound also rejects integers
        # too large for a float.
        if not ((type(position) is float or type(position) is int) and abs(position) <= sys.float_info.max):
            raise CompositeSchemaError(f"node {node_id}: position must be a finite number")
        children = node.get("children", [])
        if type(children) is not list:
            raise CompositeSchemaError(f"node {node_id}: children must be a list")
        labels[node_id] = LexicalForms.of(*forms).forms
        parents[node_id] = parent_id
        supports[node_id] = support
        positions[node_id] = float(position)
        kin = kids[node_id] = []
        if parent_id is not None:
            kids[parent_id].append(node_id)
        if children:
            depth += 1
            stack.extend([(child, node_id, depth) for child in reversed(children)])
            if len(children) > 1:
                unsorted.append(kin)
    # siblings are kept sorted by position; a hand-written file may list them
    # in any order, and a stable sort keeps the file order of ties
    by_position = positions.__getitem__
    for siblings in unsorted:
        siblings.sort(key=by_position)
    root = next(iter(labels))
    _require(supports[root] == doc_count, "root support must equal doc_count (root typicality is 1.0 by construction)")
    return CompositeTopicTree(domain_genre, doc_count, root, labels, parents, supports, positions, kids)
