"""Building the composite topic tree (the domain/genre norm) by aligning and
merging document topic trees from a reference corpus.

The build is a deterministic fold: the composite is seeded from the first
document (file-name order) and every further document is aligned against the
current composite, then merged in. Per node the composite tracks support
(how many documents contributed the topic), typicality (support / documents
seen) and position (mean normalized sibling rank over contributors).

Alignment is greedy and top-down. Roots always align. Every other document
node may only match among the children of its parent's matched composite
node, plus that node itself so a level skip in one document can be absorbed.
A match needs label similarity >= threshold; ties fall to the candidate with
the lower position, then the lower id.

Similarity is the best token-set Jaccard between two labels' normal forms, so
scoring goes through the composite's index (``CompositeTopicTree.index``):
each composite label's token sets are computed once, and each parent posts
its children under every token of their labels. With a threshold above 0 a
document node is scored only against the anchor and the children that share
a token with it; any other child scores 0 and could never reach the
threshold. A threshold of exactly 0 accepts a score of 0, so there every
child of the anchor is scored. The index is built on the first alignment and
``merge`` keeps it current, so no alignment re-walks the growing norm.

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

The document side is read through a ``DocumentIndex``: one pre-order pass
records its ids, parents, sibling ranks and label token sets.
``build_composite`` builds one per document and shares it between
``align_tree`` and the fold, so each document is walked once; the index is
dropped after the document and never stored on it. New composite ids come
from the composite index's next free id, not from a scan of the norm.

Folding a document in costs in proportion to the document, not the norm.
Only the parents whose child lists changed are re-sorted; every other
sibling list kept its positions and stays sorted. Nothing in the fold reads
typicality, so ``build_composite`` refreshes it once, after the last
document; the public ``merge`` refreshes it after every document.
Typicality stays a stored field because readers such as ``save_composite``
and ``classify`` take it from the node, which has no link to its tree's
doc_count.

A label merge costs in proportion to the spellings the document brings, not
to those the composite label has gathered (the root gains one per distinct
document title). The composite index keeps each label's fold keys once a
document brings it a spelling it lacks verbatim, so each new spelling is
folded once, and only the new spellings' token sets and postings are added.
Topics the fold inserts take their token sets from the document's index.
"""
from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path

from .ingest import CorpusSet
from .model import (
    CompositeIndex,
    CompositeNode,
    CompositeTopicTree,
    DocumentIndex,
    DocumentTopicTree,
    LexicalForms,
    TopicNode,
    best_jaccard,
    brief_repr,
    sibling_rank_map,
    walk,
)

SCHEMA_VERSION = "1"


class EmptyCorpusError(ValueError):
    """A norm cannot be built from an empty corpus."""


class CompositeSchemaError(ValueError):
    """A composite file failed schema or invariant validation."""


@dataclass
class Alignment:
    """Mapping from document node ids to composite node ids.

    Every document node is either in pairs or in unmatched; a matched child
    always maps inside the subtree of its parent's match.
    """

    pairs: dict[int, int] = field(default_factory=dict)
    unmatched: set[int] = field(default_factory=set)


def label_similarity(a: LexicalForms, b: LexicalForms) -> float:
    """Similarity in [0, 1]: the best token-level Jaccard over all pairs of
    normalized forms, so 1.0 when a normalized form is shared."""
    return best_jaccard(a.token_sets(), b.token_sets())


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")


_UNSEEN = object()


def align_tree(
    doc: DocumentTopicTree,
    composite: CompositeTopicTree,
    threshold: float,
    *,
    index: DocumentIndex | None = None,
    _memoize: bool = True,
) -> Alignment:
    """Greedily align a document tree against the composite, reading the
    document through its index (given, or built here).

    Each header's match is looked up in, or stored to, the composite index's
    alignment memo; ``build_composite`` passes ``_memoize=False``, as the
    norm it aligns against changes before any entry could be read back.
    """
    _check_threshold(threshold)
    if index is None:
        index = DocumentIndex(doc.root)
    norm = composite.index()
    memo = norm.alignments if _memoize else None
    doc_parents = index.parents

    alignment = Alignment(pairs={doc.root.id: composite.root.id})
    pairs, unmatched = alignment.pairs, alignment.unmatched
    for node_id, token_sets in index.token_sets.items():
        if node_id == doc.root.id:
            continue
        anchor_id = pairs.get(doc_parents[node_id])
        if anchor_id is None:
            unmatched.add(node_id)
            continue
        if memo is None:
            match = _best_match(norm, anchor_id, token_sets, threshold)
        else:
            key = (threshold, anchor_id, token_sets)
            match = memo.get(key, _UNSEEN)
            if match is _UNSEEN:
                match = memo[key] = _best_match(norm, anchor_id, token_sets, threshold)
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
    if threshold > 0.0:
        candidates = {anchor_id}
        postings = norm.children_by_token.get(anchor_id, {})
        for tokens in token_sets:
            for token in tokens:
                candidates.update(postings.get(token, ()))
    else:
        candidates = {anchor_id, *(child.id for child in norm.nodes[anchor_id].children)}
    best_key: tuple[float, float, int] | None = None
    for candidate_id in candidates:
        similarity = best_jaccard(token_sets, norm.token_sets[candidate_id])
        if similarity < threshold:
            continue
        key = (-similarity, norm.nodes[candidate_id].position, candidate_id)
        if best_key is None or key < best_key:
            best_key = key
    return None if best_key is None else best_key[2]


_by_position = operator.attrgetter("position")


def _fold_document(composite: CompositeTopicTree, alignment: Alignment, index: DocumentIndex) -> None:
    """Add one aligned document (read through its index) to the composite:
    support, positions, spellings and new topics, in place, keeping the
    composite's index current and clearing its memos.

    Work is in proportion to the document: only the parents whose child lists
    changed (a child's position moved or a child was inserted) are re-sorted.
    Every other child list kept its positions, so if it was sorted, a stable
    re-sort would leave it as it is. Typicality is left stale for the caller
    to refresh; nothing here reads it.
    """
    norm = composite.index()
    comp_nodes = norm.nodes
    pairs = alignment.pairs

    # first document node (pre-order) to hit a composite node carries the
    # support and rank contribution for this document
    contributions: dict[int, TopicNode] = {}
    for node_id, node in index.nodes.items():
        target = pairs.get(node_id)
        if target is not None and target not in contributions:
            contributions[target] = node

    touched: set[int | None] = set()
    for comp_id, node in contributions.items():
        comp = comp_nodes[comp_id]
        rank = index.ranks[node.id]
        comp.position = (comp.position * comp.support + rank) / (comp.support + 1)
        comp.support += 1
        touched.add(norm.parents[comp_id])
        norm.merge_label(comp, node.label)

    # insert unmatched nodes top-down: parents are processed before children,
    # so an unmatched parent already has its fresh composite node
    inserted: dict[int, CompositeNode] = {}
    for node_id, node in index.nodes.items():
        if node_id in pairs:
            continue
        parent = index.parents[node_id]
        comp_parent = comp_nodes[pairs[parent]] if parent in pairs else inserted[parent]
        fresh = CompositeNode(
            id=norm.next_id,
            label=node.label,
            typicality=0.0,
            position=index.ranks[node_id],
            support=1,
        )
        comp_parent.children.append(fresh)
        touched.add(comp_parent.id)
        norm.add(fresh, comp_parent.id, index.token_sets[node_id])
        inserted[node_id] = fresh

    touched.discard(None)
    for parent_id in touched:
        comp_nodes[parent_id].children.sort(key=_by_position)
    norm.clear_memos()
    composite.doc_count += 1


def _refresh_typicality(composite: CompositeTopicTree) -> None:
    for node in walk(composite.root):
        node.typicality = node.support / composite.doc_count


def merge(composite: CompositeTopicTree, doc: DocumentTopicTree, alignment: Alignment) -> CompositeTopicTree:
    """Fold one document into the composite, in place.

    Matched composite nodes gain support and lexical variants (once per
    document, even if several document nodes collapsed onto them); unmatched
    document nodes are inserted as fresh children under their parent's
    composite node. Only the parents whose child lists changed are re-sorted
    by position, so sorted sibling lists (as every build and every saved file
    has) stay sorted. Typicality is then refreshed on every node, and the
    composite's index is updated to match. ``build_composite`` folds without
    this per-document refresh and refreshes typicality once at the end.
    """
    _fold_document(composite, alignment, DocumentIndex(doc.root))
    _refresh_typicality(composite)
    return composite


def _seed_composite(doc: DocumentTopicTree, domain_genre: str) -> CompositeTopicTree:
    ranks = sibling_rank_map(doc.root)

    def convert(node: TopicNode) -> CompositeNode:
        return CompositeNode(
            id=node.id,
            label=node.label,
            typicality=1.0,
            position=ranks[node.id],
            support=1,
            children=[convert(child) for child in node.children],
        )

    return CompositeTopicTree(root=convert(doc.root), domain_genre=domain_genre, doc_count=1)


def build_composite(corpus: CorpusSet, threshold: float, domain_genre: str | None = None) -> CompositeTopicTree:
    """Fold a whole corpus into a composite tree, in document (name) order."""
    _check_threshold(threshold)
    if not corpus.docs:
        raise EmptyCorpusError("cannot build norm from empty corpus")
    if domain_genre is None:
        domain_genre = Path(corpus.origin).name or "corpus"
    composite = _seed_composite(corpus.docs[0], domain_genre)
    for doc in corpus.docs[1:]:
        index = DocumentIndex(doc.root)
        _fold_document(composite, align_tree(doc, composite, threshold, index=index, _memoize=False), index)
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
    """Write a composite tree; byte-identical for identical trees."""
    out: list[str] = ["{\n"]
    out.append(f'  "version": {json.dumps(SCHEMA_VERSION)},\n')
    out.append(f'  "domain_genre": {json.dumps(composite.domain_genre, ensure_ascii=False)},\n')
    out.append(f'  "doc_count": {composite.doc_count},\n')
    out.append('  "root":\n')
    _emit_node(composite.root, out, "  ")
    out.append("\n}\n")
    Path(path).write_text("".join(out), encoding="utf-8", newline="\n")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CompositeSchemaError(message)


def _parse_node(payload: object, doc_count: int, seen: set[int]) -> CompositeNode:
    _require(isinstance(payload, dict), "composite node must be an object")
    assert isinstance(payload, dict)
    node_id = payload.get("id")
    _require(isinstance(node_id, int) and not isinstance(node_id, bool), "node id must be an integer")
    _require(node_id not in seen, f"duplicate node id {node_id}")
    seen.add(node_id)
    forms = payload.get("forms")
    _require(
        isinstance(forms, list) and forms and all(isinstance(f, str) and f.strip() for f in forms),
        f"node {node_id}: forms must be a non-empty list of strings",
    )
    support = payload.get("support")
    _require(isinstance(support, int) and not isinstance(support, bool), f"node {node_id}: support must be an integer")
    _require(support >= 1, f"node {node_id}: support must be >= 1")
    _require(support <= doc_count, f"node {node_id}: support {support} exceeds doc_count {doc_count}")
    position = payload.get("position")
    # json.loads accepts NaN and Infinity; either would make sibling order
    # and alignment tie-breaks unstable. The bound also rejects integers too
    # large for a float.
    _require(
        isinstance(position, (int, float)) and not isinstance(position, bool) and abs(position) <= sys.float_info.max,
        f"node {node_id}: position must be a finite number",
    )
    children = payload.get("children", [])
    _require(isinstance(children, list), f"node {node_id}: children must be a list")
    return CompositeNode(
        id=node_id,
        label=LexicalForms.of(*forms),
        typicality=support / doc_count,
        position=float(position),
        support=support,
        children=[_parse_node(child, doc_count, seen) for child in children],
    )


def load_composite(path: str | Path) -> CompositeTopicTree:
    """Load and validate a composite file; typicality is re-derived."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CompositeSchemaError(f"cannot read composite file {path}: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer too long to convert
        raise CompositeSchemaError(f"composite file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CompositeSchemaError(f"composite file {path} is nested too deeply") from exc
    _require(isinstance(payload, dict), "composite file must hold an object")
    _require(payload.get("version") == SCHEMA_VERSION, f"unsupported composite schema version {brief_repr(payload.get('version'))}")
    doc_count = payload.get("doc_count")
    _require(isinstance(doc_count, int) and not isinstance(doc_count, bool) and doc_count >= 1, "doc_count must be a positive integer")
    domain_genre = payload.get("domain_genre")
    _require(isinstance(domain_genre, str), "domain_genre must be a string")
    try:
        root = _parse_node(payload.get("root"), doc_count, set())
    except RecursionError as exc:
        raise CompositeSchemaError(f"composite file {path} is nested too deeply") from exc
    _require(root.support == doc_count, "root support must equal doc_count (root typicality is 1.0 by construction)")
    return CompositeTopicTree(root=root, domain_genre=domain_genre, doc_count=doc_count)
