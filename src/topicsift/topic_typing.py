"""Query mapping and topic typing.

The query picks one node per tree (the query node); that node splits the
tree into three regions: topics within k hops below it are relevant, deeper
subtree topics are intricate, everything else (ancestors, siblings, other
branches) is irrelevant. Relevant topics then split into typical vs rare by
the norm typicality they inherit through the composite alignment.
``assign_types`` gives every topic its type in one walk of the query node's
subtree; the regions are never stored.

``type_document`` walks the document once: it builds one ``DocumentIndex``
(pre-order ids, parents, depths, sibling ranks and label token sets) and
passes it as ``index=`` to ``align_tree``, ``map_query`` and
``assign_types``, so no stage re-walks the tree or re-tokenizes a label.
Each of them called without an index builds its own. The index lives only
for the call; it is never stored on the document. Its token sets come from
the norm's label memo (``CompositeIndex.label_sets``), so a header spelling
that many documents repeat is tokenized once per norm; the memo grows by one
entry per distinct spelling and lives as long as the norm.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .composite import Alignment, align_tree
from .model import (
    CompositeTopicTree,
    DocumentIndex,
    DocumentTopicTree,
    LexicalForms,
    TopicType,
    TypingParams,
    UnknownNodeError,
    best_jaccard,
    walk_depth,
)


# The members the per-node loops below compare against. On Python 3.11 the
# Enum metaclass hooks attribute lookup, so reading a member through its
# class (``TopicType.RARE``) costs several times a module global's read.
_TYPICAL = TopicType.TYPICAL
_RARE = TopicType.RARE
_INTRICATE = TopicType.INTRICATE
_IRRELEVANT = TopicType.IRRELEVANT


@dataclass
class TypedTree:
    """A document tree with one TopicType per node, under one query."""

    doc: DocumentTopicTree
    query: str
    query_node: int | None
    types: dict[int, TopicType] = field(default_factory=dict)

    def relevant_count(self) -> int:
        """Topics in the relevant region (typical + rare)."""
        return sum(1 for t in self.types.values() if t is _TYPICAL or t is _RARE)


def map_query(
    query: str,
    tree: DocumentTopicTree | CompositeTopicTree,
    tau: float,
    *,
    index: DocumentIndex | None = None,
) -> int | None:
    """Find the single node most similar to the query text.

    Returns None when the best similarity falls below tau. Ties break to the
    shallower node, then to the earlier node in pre-order. A document is
    scanned through its index (given, or built here); a composite through
    its own cached token sets.
    """
    if not query or not query.strip():
        raise ValueError("query must be non-empty")
    query_sets = LexicalForms.of(query).token_sets()
    if isinstance(tree, CompositeTopicTree):
        cached = tree.index().token_sets
        scored = ((node.id, depth, cached[node.id]) for node, depth in walk_depth(tree.root))
    else:
        if index is None:
            index = DocumentIndex(tree.root)
        depths = index.depths
        scored = ((node_id, depths[node_id], sets) for node_id, sets in index.token_sets.items())
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
    *,
    index: DocumentIndex | None = None,
) -> TypedTree:
    """Label every topic with one of the four topic types in one walk of the
    query node's subtree.

    Topics outside that subtree (ancestors, siblings, other branches, or
    every topic when the query matched none) are irrelevant; those more
    than k hops below the query node are intricate. The rest inherit their
    aligned composite node's typicality (0 when unmatched, maximally
    off-norm) and are typical when it reaches alpha, rare otherwise.
    """
    if index is None:
        index = DocumentIndex(doc.root, composite.index().label_sets)
    nodes = index.nodes
    types = dict.fromkeys(nodes, _IRRELEVANT)
    if query_node is not None:
        if query_node not in nodes:
            raise UnknownNodeError(f"query node {query_node!r} is not in the tree")
        comp_nodes = composite.index().nodes
        pairs = alignment.pairs
        for node, depth in walk_depth(nodes[query_node]):
            if depth > params.k:
                types[node.id] = _INTRICATE
            else:
                comp_id = pairs.get(node.id)
                typicality = comp_nodes[comp_id].typicality if comp_id is not None else 0.0
                types[node.id] = _TYPICAL if typicality >= params.alpha else _RARE
    return TypedTree(doc=doc, query=query, query_node=query_node, types=types)


def type_document(
    doc: DocumentTopicTree,
    composite: CompositeTopicTree,
    query: str,
    params: TypingParams,
    align_threshold: float = 0.5,
) -> tuple[TypedTree, Alignment]:
    """Run the whole typing stage for one document, on one index of it.

    When the query matches no topic (best similarity below tau) every topic
    is irrelevant and the document will land in the irrelevant/generic bins.
    """
    index = DocumentIndex(doc.root, composite.index().label_sets)
    alignment = align_tree(doc, composite, align_threshold, index=index)
    query_node = map_query(query, doc, params.tau, index=index)
    return assign_types(doc, composite, alignment, query, query_node, params, index=index), alignment
