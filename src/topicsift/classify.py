"""Document classification from the distribution of topic types.

A document's four type counts, together with how much of the norm's
query-relevant typical content it covers, place it in exactly one of the
seven document categories. Rules are evaluated in table order, first match
wins; every ">50%" is strict.
"""
from __future__ import annotations

from dataclasses import dataclass

from .composite import Alignment
from .model import CompositeTopicTree, DocumentCategory, TopicType, TypingParams
from .topic_typing import Region, TypedTree, assign_regions, map_query


@dataclass(frozen=True)
class TypeDistribution:
    """Topic-type counts for one document plus norm-coverage counters.

    covered_typical counts the distinct composite topics in the norm's
    query-relevant typical set that this document's typical topics matched;
    possible_typical is the size of that set.
    """

    typical: int
    rare: int
    intricate: int
    irrelevant: int
    total: int
    covered_typical: int
    possible_typical: int

    def __post_init__(self) -> None:
        counts = (self.typical, self.rare, self.intricate, self.irrelevant)
        if any(c < 0 for c in counts) or self.covered_typical < 0 or self.possible_typical < 0:
            raise ValueError("distribution counts must be non-negative")
        if sum(counts) != self.total:
            raise ValueError("type counts must sum to total")
        if self.total < 1:
            raise ValueError("total must be positive")
        if self.covered_typical > self.possible_typical:
            raise ValueError("covered_typical cannot exceed possible_typical")

    @property
    def coverage(self) -> float:
        """Fraction of the norm's possible typical topics covered; 0 when the
        norm offers none (no coverage claim from an empty norm)."""
        if self.possible_typical == 0:
            return 0.0
        return self.covered_typical / self.possible_typical


def possible_typical_topics(
    composite: CompositeTopicTree, query: str, params: TypingParams
) -> frozenset[int]:
    """Composite node ids that count as "possible typical" for this query:
    nodes in the composite's own query-relevant region with typicality >= alpha.

    The set depends only on the norm, the query and the params, so it is
    computed once per query and kept in the composite's index until the next
    merge."""
    memo = composite.index().possible_typical
    key = (query, params)
    if key not in memo:
        memo[key] = _possible_typical(composite, query, params)
    return memo[key]


def _possible_typical(composite: CompositeTopicTree, query: str, params: TypingParams) -> frozenset[int]:
    query_node = map_query(query, composite, params.tau)
    if query_node is None:
        return frozenset()
    regions = assign_regions(composite, query_node, params.k)
    return frozenset(
        node.id
        for node in composite.nodes()
        if regions[node.id] is Region.RELEVANT and node.typicality >= params.alpha
    )


def distribution(
    typed: TypedTree,
    composite: CompositeTopicTree,
    alignment: Alignment,
    params: TypingParams,
) -> TypeDistribution:
    """Count topic types over all nodes (root included) and norm coverage."""
    possible = possible_typical_topics(composite, typed.query, params)
    covered = {
        alignment.pairs[node_id]
        for node_id, topic_type in typed.types.items()
        if topic_type is TopicType.TYPICAL and node_id in alignment.pairs
    }
    return TypeDistribution(
        typical=typed.count(TopicType.TYPICAL),
        rare=typed.count(TopicType.RARE),
        intricate=typed.count(TopicType.INTRICATE),
        irrelevant=typed.count(TopicType.IRRELEVANT),
        total=len(typed.types),
        covered_typical=len(covered & possible),
        possible_typical=len(possible),
    )


def classify(dist: TypeDistribution) -> DocumentCategory:
    """Apply the category rules in order; anything that matches none is generic."""
    typical = dist.typical / dist.total
    rare = dist.rare / dist.total
    intricate = dist.intricate / dist.total
    irrelevant = dist.irrelevant / dist.total
    coverage = dist.coverage
    if typical > 0.5 and coverage > 0.5:
        return DocumentCategory.PROTOTYPICAL
    if coverage > 0.5:
        return DocumentCategory.COMPREHENSIVE
    if typical > 0.5:
        return DocumentCategory.SPECIALIZED
    if rare > 0.5:
        return DocumentCategory.ATYPICAL
    if intricate > 0.5:
        return DocumentCategory.DEEP
    if irrelevant > 0.5:
        return DocumentCategory.IRRELEVANT
    return DocumentCategory.GENERIC
