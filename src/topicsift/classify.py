"""Document classification from the distribution of topic types.

A document's four type counts, together with how much of the norm's
query-relevant typical content it covers, place it in exactly one of the
seven document categories. Rules are evaluated in table order, first match
wins; every ">50%" is strict.
"""
from __future__ import annotations

from .composite import Alignment
from .model import CompositeTopicTree, DocumentCategory, FrozenRecord, TopicType, TypingParams
from .topic_typing import TypedTree, map_query

# read per node by distribution; on Python 3.11 a module global is several
# times cheaper to read than an Enum member through its class
_TYPICAL = TopicType.TYPICAL
_RARE = TopicType.RARE
_INTRICATE = TopicType.INTRICATE


class TypeDistribution(FrozenRecord):
    """Topic-type counts for one document plus norm-coverage counters.

    covered_typical counts the distinct composite topics in the norm's
    query-relevant typical set that this document's typical topics matched;
    possible_typical is the size of that set.
    """

    __slots__ = _fields = ("typical", "rare", "intricate", "irrelevant", "covered_typical", "possible_typical")

    def __init__(
        self, typical: int, rare: int, intricate: int, irrelevant: int, covered_typical: int, possible_typical: int
    ) -> None:
        if min(typical, rare, intricate, irrelevant, covered_typical, possible_typical) < 0:
            raise ValueError("distribution counts must be non-negative")
        if typical + rare + intricate + irrelevant < 1:
            raise ValueError("total must be positive")
        if covered_typical > possible_typical:
            raise ValueError("covered_typical cannot exceed possible_typical")
        self._fill(typical, rare, intricate, irrelevant, covered_typical, possible_typical)

    @classmethod
    def _trusted(
        cls, typical: int, rare: int, intricate: int, irrelevant: int, covered_typical: int, possible_typical: int
    ) -> "TypeDistribution":
        """A distribution over counts the caller knows to pass the checks,
        such as distribution's: non-negative, a positive total, and no more
        covered than possible typical topics."""
        dist = object.__new__(cls)
        dist._fill(typical, rare, intricate, irrelevant, covered_typical, possible_typical)
        return dist

    def _fill(
        self, typical: int, rare: int, intricate: int, irrelevant: int, covered_typical: int, possible_typical: int
    ) -> None:
        set_field = object.__setattr__
        set_field(self, "typical", typical)
        set_field(self, "rare", rare)
        set_field(self, "intricate", intricate)
        set_field(self, "irrelevant", irrelevant)
        set_field(self, "covered_typical", covered_typical)
        set_field(self, "possible_typical", possible_typical)

    @property
    def total(self) -> int:
        """The number of typed topics: the four type counts summed."""
        return self.typical + self.rare + self.intricate + self.irrelevant

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
    nodes within k hops below the composite's query node with typicality >= alpha.

    The set depends only on the norm, the query and the params, so it is
    computed once per query and kept in the composite's index until a fold
    changes the norm."""
    memo = composite.index().possible_typical
    key = (query, params)
    if key not in memo:
        memo[key] = _possible_typical(composite, query, params)
    return memo[key]


def _possible_typical(composite: CompositeTopicTree, query: str, params: TypingParams) -> frozenset[int]:
    query_node = map_query(query, composite, params.tau)
    if query_node is None:
        return frozenset()
    supports, doc_count = composite.supports, composite.doc_count
    return frozenset(
        node_id
        for node_id, depth in composite.preorder(query_node)
        if depth <= params.k and supports[node_id] / doc_count >= params.alpha
    )


def distribution(
    typed: TypedTree,
    composite: CompositeTopicTree,
    alignment: Alignment,
    params: TypingParams,
) -> TypeDistribution:
    """Count topic types over all nodes (root included) and norm coverage,
    in one pass over the types."""
    possible = possible_typical_topics(composite, typed.query, params)
    pairs = alignment.pairs
    covered: set[int] = set()
    typical = rare = intricate = 0
    for node_id, topic_type in enumerate(typed.types):
        if topic_type is _TYPICAL:
            typical += 1
            if node_id in pairs:
                covered.add(pairs[node_id])
        elif topic_type is _RARE:
            rare += 1
        elif topic_type is _INTRICATE:
            intricate += 1
    # the counts pass the checks: a document has at least its root, and
    # covered is a subset of possible
    return TypeDistribution._trusted(
        typical, rare, intricate, len(typed.types) - typical - rare - intricate, len(covered & possible), len(possible)
    )


def classify(dist: TypeDistribution) -> DocumentCategory:
    """Apply the category rules in order; anything that matches none is generic."""
    total = dist.total
    typical = dist.typical / total
    rare = dist.rare / total
    intricate = dist.intricate / total
    irrelevant = dist.irrelevant / total
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
