"""Query mapping and topic typing.

The query picks one node per tree (the query node); that node splits the
tree into three regions: topics within k hops below it are relevant, deeper
subtree topics are intricate, everything else (ancestors, siblings, other
branches) is irrelevant. Relevant topics then split into typical vs rare by
the norm typicality they inherit through the composite alignment.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .composite import Alignment, align_tree
from .model import (
    CompositeTopicTree,
    DocumentTopicTree,
    LexicalForms,
    TopicType,
    TypingParams,
    UnknownNodeError,
    best_jaccard,
    node_map,
    walk_depth,
)


class Region(Enum):
    RELEVANT = "relevant"
    INTRICATE = "intricate"
    IRRELEVANT = "irrelevant"


@dataclass
class TypedTree:
    """A document tree with one TopicType per node, under one query."""

    doc: DocumentTopicTree
    query: str
    query_node: int | None
    types: dict[int, TopicType] = field(default_factory=dict)

    def count(self, topic_type: TopicType) -> int:
        return sum(1 for t in self.types.values() if t is topic_type)

    def relevant_count(self) -> int:
        """Topics in the relevant region (typical + rare)."""
        return self.count(TopicType.TYPICAL) + self.count(TopicType.RARE)


def map_query(query: str, tree: DocumentTopicTree | CompositeTopicTree, tau: float) -> int | None:
    """Find the single node most similar to the query text.

    Returns None when the best similarity falls below tau. Ties break to the
    shallower node, then to the earlier node in pre-order.
    """
    if not query or not query.strip():
        raise ValueError("query must be non-empty")
    query_sets = LexicalForms.of(query).token_sets()
    cached = tree.index().token_sets if isinstance(tree, CompositeTopicTree) else None
    best_id: int | None = None
    best_key: tuple[float, int, int] | None = None
    for order, (node, depth) in enumerate(walk_depth(tree.root)):
        node_sets = cached[node.id] if cached is not None else node.label.token_sets()
        similarity = best_jaccard(query_sets, node_sets)
        key = (-similarity, depth, order)
        if best_key is None or key < best_key:
            best_key, best_id = key, node.id
    assert best_key is not None and best_id is not None
    if -best_key[0] < tau:
        return None
    return best_id


def assign_regions(
    tree: DocumentTopicTree | CompositeTopicTree, query_node: int, k: int
) -> dict[int, Region]:
    """Partition every node of the tree into the three query regions."""
    if k < 1:
        raise ValueError("k must be >= 1")
    nodes = node_map(tree.root)
    if query_node not in nodes:
        raise UnknownNodeError(f"query node {query_node!r} is not in the tree")
    regions = {node_id: Region.IRRELEVANT for node_id in nodes}
    for node, depth in walk_depth(nodes[query_node]):
        regions[node.id] = Region.RELEVANT if depth <= k else Region.INTRICATE
    return regions


def assign_types(
    doc: DocumentTopicTree,
    regions: dict[int, Region],
    composite: CompositeTopicTree,
    alignment: Alignment,
    alpha: float,
    *,
    query: str = "",
    query_node: int | None = None,
) -> TypedTree:
    """Label every topic with one of the four topic types.

    Region decides intricate/irrelevant outright; relevant topics inherit
    their aligned composite node's typicality (0 when unmatched, maximally
    off-norm) and are typical when it reaches alpha, rare otherwise.
    """
    comp_nodes = composite.index().nodes
    types: dict[int, TopicType] = {}
    for node in doc.nodes():
        region = regions[node.id]
        if region is Region.IRRELEVANT:
            types[node.id] = TopicType.IRRELEVANT
        elif region is Region.INTRICATE:
            types[node.id] = TopicType.INTRICATE
        else:
            comp_id = alignment.pairs.get(node.id)
            typicality = comp_nodes[comp_id].typicality if comp_id is not None else 0.0
            types[node.id] = TopicType.TYPICAL if typicality >= alpha else TopicType.RARE
    return TypedTree(doc=doc, query=query, query_node=query_node, types=types)


def type_document(
    doc: DocumentTopicTree,
    composite: CompositeTopicTree,
    query: str,
    params: TypingParams,
    align_threshold: float = 0.5,
) -> tuple[TypedTree, Alignment]:
    """Run the whole typing stage for one document.

    When the query matches no topic (best similarity below tau) every topic
    is irrelevant and the document will land in the irrelevant/generic bins.
    """
    alignment = align_tree(doc, composite, align_threshold)
    query_node = map_query(query, doc, params.tau)
    if query_node is None:
        types = {node.id: TopicType.IRRELEVANT for node in doc.nodes()}
        return TypedTree(doc=doc, query=query, query_node=None, types=types), alignment
    regions = assign_regions(doc, query_node, params.k)
    typed = assign_types(
        doc, regions, composite, alignment, params.alpha, query=query, query_node=query_node
    )
    return typed, alignment
