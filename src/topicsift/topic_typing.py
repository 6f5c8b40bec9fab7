"""Query mapping and topic typing.

The query picks one node per tree (the query node); that node splits the
tree into three regions: topics within k hops below it are relevant, deeper
subtree topics are intricate, everything else (ancestors, siblings, other
branches) is irrelevant. Relevant topics then split into typical vs rare by
the norm typicality they inherit through the composite alignment.
``assign_types`` gives every topic its type in one scan of the query node's
subtree, which in a pre-order document is a contiguous range of ids; the
regions are never stored.

``type_document`` takes the document's token sets once, from the norm's
label memo (``CompositeIndex.label_sets``), and passes them as
``token_sets=`` to ``align_tree`` and ``map_query``, so no stage
re-tokenizes a label; each of them called without token sets takes its own.
A header spelling that many documents repeat is therefore tokenized once
per norm; the memo grows by one entry per distinct spelling and lives as
long as the norm. The query's token sets come the same way from the norm's
query memo (``CompositeIndex.query_sets``) and reach ``map_query`` as
``query_sets=``, so a query typed against a page of documents is tokenized
once.
"""
from __future__ import annotations

from .composite import Alignment, align_tree
from .model import (
    CompositeTopicTree,
    DocumentTopicTree,
    Record,
    TopicType,
    TypingParams,
    best_jaccard,
    token_sets_of,
)


# The members the per-node loops below compare against. On Python 3.11 the
# Enum metaclass hooks attribute lookup, so reading a member through its
# class (``TopicType.RARE``) costs several times a module global's read.
_TYPICAL = TopicType.TYPICAL
_RARE = TopicType.RARE
_INTRICATE = TopicType.INTRICATE
_IRRELEVANT = TopicType.IRRELEVANT


class TypedTree(Record):
    """A document tree with one TopicType per node, indexed by node id,
    under one query."""

    __slots__ = _fields = ("doc", "query", "query_node", "types")

    def __init__(
        self, doc: DocumentTopicTree, query: str, query_node: int | None, types: list[TopicType] | None = None
    ) -> None:
        self.doc = doc
        self.query = query
        self.query_node = query_node
        self.types = [] if types is None else types

    def relevant_count(self) -> int:
        """Topics in the relevant region (typical + rare)."""
        return self.types.count(_TYPICAL) + self.types.count(_RARE)


def map_query(
    query: str,
    tree: DocumentTopicTree | CompositeTopicTree,
    tau: float,
    *,
    token_sets: list[tuple[frozenset[str], ...]] | None = None,
    query_sets: tuple[frozenset[str], ...] | None = None,
) -> int | None:
    """Find the single node most similar to the query text.

    Returns None when the best similarity falls below tau. Ties break to the
    shallower node, then to the earlier node in pre-order. A document is
    scanned through token_sets, one entry per node, and the query is
    compared by query_sets, ``token_sets_of((query,))`` (each derived here
    when not given). A blank query raises ValueError.

    Over either tree only the root and the nodes that share a token with
    the query are scored. Any other node scores 0, which never displaces
    the root: the root scores at least 0 and is the only node at depth 0,
    so the result is the full scan's at every tau. A composite is not
    walked: its index's token postings give the nodes that share a token,
    through any of their labels' token sets, and each of them is placed in
    pre-order by its sibling indices from the root down.
    """
    if not query or not query.strip():
        raise ValueError("query must be non-empty")
    if query_sets is None:
        query_sets = token_sets_of((query,))
    # a query has at most one token set
    query_tokens = query_sets[0] if query_sets else frozenset()
    if isinstance(tree, CompositeTopicTree):
        norm = tree.index()
        parents, children = tree.parents, tree.children
        # every node but the root is posted under its parent by each token
        # of its label, so these are the nodes that share a token
        found = {tree.root}
        for postings in norm.children_by_token.values():
            for token in query_tokens:
                found.update(postings.get(token, ()))
        # each parent's child -> sibling index, made once per parent met,
        # so a wide sibling list is never searched once per node
        ranks: dict[int, dict[int, int]] = {}
        placed = []
        for node_id in found:
            # the sibling indices from the root down, which compare as lists
            # in pre-order; as many as the node's depth
            path = []
            child, parent = node_id, parents[node_id]
            while parent is not None:
                rank = ranks.get(parent)
                if rank is None:
                    rank = ranks[parent] = {sibling: index for index, sibling in enumerate(children[parent])}
                path.append(rank[child])
                child, parent = parent, parents[parent]
            placed.append((path[::-1], node_id))
        placed.sort()
        scored = [(node_id, len(path), norm.token_sets[node_id]) for path, node_id in placed]
    else:
        if token_sets is None:
            token_sets = tree.token_sets({})
        # a header has at most one token set
        disjoint = query_tokens.isdisjoint
        depths = tree.depths
        scored = [(0, 0, token_sets[0])]
        scored += [
            (node_id, depths[node_id], node_sets)
            for node_id, node_sets in enumerate(token_sets[1:], 1)
            if node_sets and not disjoint(node_sets[0])
        ]
    # pre-order: a later node wins only by a higher score or a shallower tie
    best_id, best_similarity, best_depth = None, -1.0, 0
    for node_id, depth, node_sets in scored:
        similarity = best_jaccard(query_sets, node_sets)
        if similarity > best_similarity or (similarity == best_similarity and depth < best_depth):
            best_id, best_similarity, best_depth = node_id, similarity, depth
    if best_similarity < tau:
        return None
    return best_id


def assign_types(
    doc: DocumentTopicTree,
    composite: CompositeTopicTree,
    alignment: Alignment,
    query: str,
    query_node: int | None,
    params: TypingParams,
) -> TypedTree:
    """Label every topic with one of the four topic types in one scan of the
    query node's subtree; raises UnknownNodeError for a query node not in
    the tree.

    Topics outside that subtree (ancestors, siblings, other branches, or
    every topic when the query matched none) are irrelevant; those more
    than k hops below the query node are intricate. The rest inherit their
    aligned composite node's typicality (0 when unmatched, maximally
    off-norm) and are typical when it reaches alpha, rare otherwise.
    """
    types = [_IRRELEVANT] * len(doc.labels)
    if query_node is not None:
        subtree = doc.subtree(query_node)
        supports, doc_count = composite.supports, composite.doc_count
        pairs = alignment.pairs
        depths = doc.depths
        deepest = depths[query_node] + params.k
        for node_id in subtree:
            if depths[node_id] > deepest:
                types[node_id] = _INTRICATE
            else:
                comp_id = pairs.get(node_id)
                typicality = supports[comp_id] / doc_count if comp_id is not None else 0.0
                types[node_id] = _TYPICAL if typicality >= params.alpha else _RARE
    return TypedTree(doc=doc, query=query, query_node=query_node, types=types)


def type_document(
    doc: DocumentTopicTree,
    composite: CompositeTopicTree,
    query: str,
    params: TypingParams,
    align_threshold: float = 0.5,
) -> tuple[TypedTree, Alignment]:
    """Run the whole typing stage for one document, on one list of its
    token sets.

    When the query matches no topic (best similarity below tau) every topic
    is irrelevant and the document will land in the irrelevant/generic bins.
    """
    norm = composite.index()
    token_sets = doc.token_sets(norm.label_sets)
    alignment = align_tree(doc, composite, align_threshold, token_sets=token_sets)
    query_sets = norm.query_sets.get(query)
    if query_sets is None and query.strip():
        # a blank query is left to map_query, which refuses it
        query_sets = norm.query_sets[query] = token_sets_of((query,))
    query_node = map_query(query, doc, params.tau, token_sets=token_sets, query_sets=query_sets)
    return assign_types(doc, composite, alignment, query, query_node, params), alignment
