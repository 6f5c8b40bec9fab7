"""Building the composite topic tree (the domain/genre norm) by aligning and
folding document topic trees from a reference corpus.

The build is a deterministic fold in document (file-name) order, from a norm
of the first document's root only: the first document is folded in without
being aligned, so none of its headers is absorbed into the root, and every
further one is aligned against the current composite, then folded in.
``build_composite`` is the only public way to change a norm. Per node the
composite tracks support (how many documents contributed the topic),
typicality (support / documents seen) and position (mean normalized sibling
rank over contributors).

Alignment is greedy and top-down. Roots always align. Every other document
node may only match among the children of its parent's matched composite
node, plus that node itself so a level skip in one document can be absorbed.
A match needs label similarity >= threshold; ties fall to the candidate with
the lower position, then the lower id.

Similarity is the best token-set Jaccard between two labels' normal forms, so
scoring goes through the composite's index (``CompositeTopicTree.index``),
which the fold keeps current, so no alignment re-walks the growing norm.
Each composite label's token sets are computed once, and each parent posts
its children by every token of their labels and by every token set they
hold. A candidate that holds one of the header's token sets scores 1.0, the
best there is, so when the anchor or one of its children holds one, the
lowest (position, id) among those holders wins and nothing is scored.
Otherwise, with a threshold above 0, a document node is scored only against
the anchor and the children that share a token with it; any other child
scores 0 and could never reach the threshold. A threshold of exactly 0
accepts a score of 0, so there every child of the anchor is scored. A label
of several token sets is scored only over the sets that share a token with
the header, through its set postings (token -> indices of its sets): every
other set scores 0. This matters for the root, which gains one token set
per distinct document title and is the anchor of every top-level header.

A header's match depends on the norm and on nothing else but the threshold,
the header's anchor (the match of its parent) and its label's token sets.
``align_tree`` memoizes it in the composite index: ``alignments`` maps
(threshold, anchor id, token sets) to the matched composite id or None, so
against a norm loaded once each distinct header is scored once per anchor,
however many documents repeat it. The memo holds one entry per distinct key
seen and lives as long as the norm's index; the fold clears it, together
with the possible-typical memo, whenever it changes the norm.
``build_composite`` aligns without the memo: each of its documents is
aligned against a norm that the next fold changes, so no entry could ever be
read back.

A document is read through its pre-order lists (``model.DocumentTopicTree``).
``build_composite`` takes each document's token sets once, from the norm's
label memo (``CompositeIndex.label_sets``), and passes them to
``align_tree`` and to the fold, so each distinct header spelling of the
corpus is tokenized once; the built norm keeps the memo for every document
later read against it. The fold derives the document's sibling ranks once
and takes new composite ids from the index's next free id.

Folding a document walks the document and the sibling lists it changes,
never the whole norm. Sibling lists are sorted by position:
``load_composite`` sorts each list it reads (stably, so ties keep file
order), and the fold re-sorts only the lists in which the document moved a
child's position or inserted a child, with a stable sort, so ties keep the
order they had, new children last. Nothing in the fold reads typicality,
so ``build_composite`` refreshes it once, after the last document.
Typicality stays a stored field because readers such as ``save_composite``
and ``classify`` take it from the node, which has no link to its tree's
doc_count.

A label merge costs in proportion to the one spelling a document node
brings, not to the spellings the composite label holds (the root gains one
per distinct document title): the index keeps each label's fold keys as a
set, so the spelling is folded once and looked up, and only a new
spelling's token set is posted. Inserted topics take the document's token
sets.
"""
from __future__ import annotations

import json
import operator
import sys
from json.encoder import encode_basestring
from pathlib import Path

from .ingest import CorpusSet
from .model import (
    CompositeIndex,
    CompositeNode,
    CompositeTopicTree,
    DocumentTopicTree,
    LexicalForms,
    Record,
    best_jaccard,
    brief_repr,
    check_line,
    read_json,
    walk,
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

    alignment = Alignment(pairs={0: composite.root.id})
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
    nodes = norm.nodes
    # a candidate holding one of the header's token sets scores 1.0, which
    # no other can beat: the lowest (position, id) among those wins
    held_below = norm.children_by_set.get(anchor_id, {})
    held_beside = norm.children_by_set[norm.parents[anchor_id]]
    exact: tuple[float, int] | None = None
    for tokens in token_sets:
        for candidate_id in held_below.get(tokens, ()):
            key = (nodes[candidate_id].position, candidate_id)
            if exact is None or key < exact:
                exact = key
        if anchor_id in held_beside.get(tokens, ()):
            key = (nodes[anchor_id].position, anchor_id)
            if exact is None or key < exact:
                exact = key
    if exact is not None:
        return exact[1]
    if threshold > 0.0:
        candidates = {anchor_id}
        postings = norm.children_by_token.get(anchor_id, {})
        for tokens in token_sets:
            for token in tokens:
                candidates.update(postings.get(token, ()))
    else:
        candidates = {anchor_id, *(child.id for child in nodes[anchor_id].children)}
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
        key = (-similarity, nodes[candidate_id].position, candidate_id)
        if best_key is None or key < best_key:
            best_key = key
    return None if best_key is None else best_key[2]


_by_position = operator.attrgetter("position")


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
    from the start, stays sorted. Typicality is left stale for the caller to
    refresh; nothing here reads it.
    """
    norm = composite.index()
    comp_nodes = norm.nodes
    parents = doc.parents
    ranks = doc.ranks()

    touched: set[int] = set()
    contributed: set[int] = set()
    inserted: dict[int, CompositeNode] = {}
    # pre-order: the first document node to hit a composite node carries the
    # support and rank contribution for this document, and an unmatched
    # parent is inserted before its children
    for node_id, label in enumerate(doc.labels):
        target = pairs.get(node_id)
        if target is None:
            # valid by construction: token_sets refused a blank label
            fresh = CompositeNode(
                id=norm.next_id, label=LexicalForms._trusted((label,)), typicality=0.0, position=ranks[node_id], support=1
            )
            parent = parents[node_id]
            comp_parent = inserted.get(parent)
            if comp_parent is None:
                comp_parent = comp_nodes[pairs[parent]]
                touched.add(comp_parent.id)
            # else a fresh parent, whose children arrive in document order,
            # so by ascending rank
            comp_parent.children.append(fresh)
            norm.add(fresh, comp_parent.id, token_sets[node_id])
            inserted[node_id] = fresh
        elif target not in contributed:
            contributed.add(target)
            comp = comp_nodes[target]
            position = (comp.position * comp.support + ranks[node_id]) / (comp.support + 1)
            parent_id = norm.parents[target]
            if parent_id is not None and position != comp.position:
                touched.add(parent_id)
            comp.position = position
            comp.support += 1
            norm.merge_label(comp, label, token_sets[node_id])

    for parent_id in touched:
        comp_nodes[parent_id].children.sort(key=_by_position)
    norm.clear_memos()
    composite.doc_count += 1


def _refresh_typicality(composite: CompositeTopicTree) -> None:
    for node in walk(composite.root):
        node.typicality = node.support / composite.doc_count


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
    root = CompositeNode(id=0, label=LexicalForms._trusted((first.labels[0],)), typicality=0.0, position=0.0, support=0)
    composite = CompositeTopicTree(root=root, domain_genre=domain_genre, doc_count=0)
    label_sets = composite.index().label_sets
    # the first document meets a norm of its own root only: it is not aligned,
    # so every header is new and none is absorbed into the root
    _fold_document(composite, {0: root.id}, first, first.token_sets(label_sets))
    for doc in corpus.docs[1:]:
        token_sets = doc.token_sets(label_sets)
        pairs = align_tree(doc, composite, threshold, token_sets=token_sets, _memoize=False).pairs
        _fold_document(composite, pairs, doc, token_sets)
    _refresh_typicality(composite)
    return composite


# ---------------------------------------------------------------------------
# serialization: versioned JSON with a deterministic writer. Support and
# doc_count round-trip bit-exactly as integers; typicality is written with 12
# decimals for readability but re-derived as support / doc_count on load.

def _emit_node(node: CompositeNode, out: list[str], indent: str) -> None:
    # encode_basestring and float.__repr__ are what json.dumps writes for a
    # str (ensure_ascii=False) and for a finite float, which every position
    # is, without setting up an encoder per call
    inner = indent + "  "
    out.append(indent + "{\n")
    out.append(f'{inner}"id": {node.id},\n')
    out.append(f'{inner}"forms": [{", ".join(map(encode_basestring, node.label.forms))}],\n')
    out.append(f'{inner}"typicality": {node.typicality:.12f},\n')
    out.append(f'{inner}"position": {float.__repr__(node.position)},\n')
    out.append(f'{inner}"support": {node.support},\n')
    if node.children:
        out.append(f'{inner}"children": [\n')
        for index, child in enumerate(node.children):
            _emit_node(child, out, inner + "  ")
            out.append(",\n" if index < len(node.children) - 1 else "\n")
        out.append(f"{inner}]\n")
    else:
        out.append(f'{inner}"children": []\n')
    out.append(indent + "}")


def save_composite(composite: CompositeTopicTree, path: str | Path) -> None:
    """Write a composite tree; byte-identical for identical trees. Text that
    UTF-8 cannot encode raises before the file is opened, leaving it intact."""
    out: list[str] = ["{\n"]
    out.append(f'  "version": {json.dumps(SCHEMA_VERSION)},\n')
    out.append(f'  "domain_genre": {json.dumps(composite.domain_genre, ensure_ascii=False)},\n')
    out.append(f'  "doc_count": {composite.doc_count},\n')
    out.append('  "root":\n')
    _emit_node(composite.root, out, "  ")
    out.append("\n}\n")
    Path(path).write_bytes("".join(out).encode("utf-8"))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CompositeSchemaError(message)


def _parse_node(payload: object, doc_count: int, seen: set[int]) -> CompositeNode:
    # each message is formatted only when its check fails: a norm file holds
    # thousands of nodes, and nearly all of them pass
    if not isinstance(payload, dict):
        raise CompositeSchemaError("composite node must be an object")
    node_id = payload.get("id")
    if not isinstance(node_id, int) or isinstance(node_id, bool):
        raise CompositeSchemaError("node id must be an integer")
    if node_id in seen:
        raise CompositeSchemaError(f"duplicate node id {node_id}")
    seen.add(node_id)
    forms = payload.get("forms")
    if not (isinstance(forms, list) and forms and all(isinstance(f, str) and f.strip() for f in forms)):
        raise CompositeSchemaError(f"node {node_id}: forms must be a non-empty list of strings")
    support = payload.get("support")
    if not isinstance(support, int) or isinstance(support, bool):
        raise CompositeSchemaError(f"node {node_id}: support must be an integer")
    if support < 1:
        raise CompositeSchemaError(f"node {node_id}: support must be >= 1")
    if support > doc_count:
        raise CompositeSchemaError(f"node {node_id}: support {support} exceeds doc_count {doc_count}")
    position = payload.get("position")
    # json.loads accepts NaN and Infinity; either would make sibling order
    # and alignment tie-breaks unstable. The bound also rejects integers too
    # large for a float.
    if not (
        isinstance(position, (int, float)) and not isinstance(position, bool) and abs(position) <= sys.float_info.max
    ):
        raise CompositeSchemaError(f"node {node_id}: position must be a finite number")
    children = payload.get("children", [])
    if not isinstance(children, list):
        raise CompositeSchemaError(f"node {node_id}: children must be a list")
    nodes = [_parse_node(child, doc_count, seen) for child in children]
    # siblings are kept sorted by position; a hand-written file may list them
    # in any order, and a stable sort keeps the file order of ties
    nodes.sort(key=_by_position)
    return CompositeNode(
        id=node_id,
        label=LexicalForms.of(*forms),
        typicality=support / doc_count,
        position=float(position),
        support=support,
        children=nodes,
    )


def load_composite(path: str | Path) -> CompositeTopicTree:
    """Load and validate a composite file (UTF-8, a leading byte-order mark
    dropped); typicality is re-derived and sibling lists are sorted by
    position."""
    payload = read_json(path, "composite", CompositeSchemaError)
    _require(isinstance(payload, dict), "composite file must hold an object")
    _require(payload.get("version") == SCHEMA_VERSION, f"unsupported composite schema version {brief_repr(payload.get('version'))}")
    doc_count = payload.get("doc_count")
    _require(isinstance(doc_count, int) and not isinstance(doc_count, bool) and doc_count >= 1, "doc_count must be a positive integer")
    domain_genre = payload.get("domain_genre")
    _require(isinstance(domain_genre, str), "domain_genre must be a string")
    check_line(domain_genre, "the norm for domain genre", CompositeSchemaError)
    try:
        root = _parse_node(payload.get("root"), doc_count, set())
    except RecursionError as exc:
        raise CompositeSchemaError(f"composite file {path} is nested too deeply") from exc
    _require(root.support == doc_count, "root support must equal doc_count (root typicality is 1.0 by construction)")
    return CompositeTopicTree(root=root, domain_genre=domain_genre, doc_count=doc_count)
