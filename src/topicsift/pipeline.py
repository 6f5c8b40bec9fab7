"""The generation pipeline over a document set, and its trace.

``summarize`` types each document against the norm, classifies it by its
topic-type distribution, plans the summary and realizes it; the returned
``Summary`` holds every intermediate result. ``render_trace`` renders a
summary as the line-oriented version-1 trace, in one pass: one loop over
each document's pre-order lists, with each norm node's typicality text
formatted once per run and one region/type text per topic type.
"""
from __future__ import annotations

import importlib
import logging
from collections.abc import Iterable
from json.encoder import encode_basestring

from . import planner, realizer, topic_typing
from .classify import TypeDistribution
from .composite import Alignment
from .lexicon import Lexicon
from .model import CompositeTopicTree, DocumentCategory, DocumentTopicTree, Record, TopicType, TypingParams
from .planner import HasFeature, HasTopics, SetElements, SummaryPlan
from .realizer import RealizedCategory, summary_lines
from .topic_typing import TypedTree

# stages are called through their modules, so patches on them (bench/tracer.py) see every call
classify = importlib.import_module(f"{__package__}.classify")  # the package binds "classify" to the function

log = logging.getLogger(__name__)

# the "region=... type=..." text of a trace node line, per topic type, keyed
# by the member's id: hashing an Enum member calls Enum.__hash__, a Python
# function, once per node line, while an int hashes in C
_REGION_AND_TYPE = {
    id(TopicType.TYPICAL): "region=relevant type=typical",
    id(TopicType.RARE): "region=relevant type=rare",
    id(TopicType.INTRICATE): "region=intricate type=intricate",
    id(TopicType.IRRELEVANT): "region=irrelevant type=irrelevant",
}


class DocResult(Record):
    __slots__ = _fields = ("typed", "alignment", "dist", "category")

    def __init__(
        self, typed: TypedTree, alignment: Alignment, dist: TypeDistribution, category: DocumentCategory
    ) -> None:
        self.typed = typed
        self.alignment = alignment
        self.dist = dist
        self.category = category


class Summary(Record):
    """One summarize run: its settings and every intermediate result."""

    __slots__ = _fields = (
        "query", "params", "align_threshold", "seed", "limit", "composite", "results", "plan", "realized",
    )

    def __init__(
        self,
        query: str,
        params: TypingParams,
        align_threshold: float,
        seed: int,
        limit: int,
        composite: CompositeTopicTree,
        results: list[DocResult],
        plan: SummaryPlan,
        realized: list[RealizedCategory],
    ) -> None:
        self.query = query
        self.params = params
        self.align_threshold = align_threshold
        self.seed = seed
        self.limit = limit
        self.composite = composite
        self.results = results
        self.plan = plan
        self.realized = realized


def summarize(
    docs: Iterable[DocumentTopicTree],
    composite: CompositeTopicTree,
    query: str,
    params: TypingParams,
    lexicon: Lexicon,
    *,
    seed: int,
    limit: int,
    align_threshold: float,
    extract_exists: bool,
) -> Summary:
    """Type, classify, plan and realize a document set against the norm for
    one query; raises LexiconGapError when the lexicon cannot realize the
    plan."""
    results = []
    for doc in docs:
        typed, alignment = topic_typing.type_document(doc, composite, query, params, align_threshold)
        if typed.query_node is None:
            log.warning("query %r matched no topic in %s", query, doc.doc_id)
        dist = classify.distribution(typed, composite, alignment, params)
        results.append(DocResult(typed=typed, alignment=alignment, dist=dist, category=classify.classify(dist)))
    splan = planner.plan([(r.typed, r.category) for r in results])
    titles = {r.typed.doc.doc_id: r.typed.doc.display_title() for r in results}
    realized = realizer.realize_plan(
        splan, lexicon, seed, titles=titles, limit=limit, extract_exists=extract_exists
    )
    return Summary(
        query=query,
        params=params,
        align_threshold=align_threshold,
        seed=seed,
        limit=limit,
        composite=composite,
        results=results,
        plan=splan,
        realized=realized,
    )


def _json_strings(items: tuple[str, ...]) -> str:
    """The JSON array json.dumps(list(items), ensure_ascii=False) writes,
    without setting up an encoder per call."""
    return "[" + ", ".join(map(encode_basestring, items)) + "]"


def render_trace(summary: Summary) -> list[str]:
    """The version-1 trace of a summarize run, one string per line."""
    params = summary.params
    composite = summary.composite
    results = summary.results
    supports, doc_count = composite.supports, composite.doc_count
    lines = [
        "trace-version: 1",
        f"query: {summary.query}",
        f"params: k={params.k} alpha={params.alpha:g} tau={params.tau:g} limit={summary.limit}"
        f" seed={summary.seed} align-threshold={summary.align_threshold:g}",
        f"composite: domain-genre={composite.domain_genre} doc-count={composite.doc_count}"
        f" nodes={len(supports)}",
        f"documents: {len(results)}",
    ]
    append = lines.append
    # "composite=... typicality=..." per norm node, formatted on first use
    unaligned = f"composite=- typicality={0.0:.10f}"
    aligned_text: dict[int, str] = {}
    for result in results:
        typed = result.typed
        doc = typed.doc
        types = typed.types
        pairs = result.alignment.pairs
        append(f"document: {doc.doc_id}")
        append(f"  title: {doc.display_title()}")
        append(f"  query-node: {'-' if typed.query_node is None else typed.query_node}")
        for node_id, (label, depth) in enumerate(zip(doc.labels, doc.depths)):
            comp_id = pairs.get(node_id)
            if comp_id is None:
                norm_text = unaligned
            else:
                norm_text = aligned_text.get(comp_id)
                if norm_text is None:
                    norm_text = aligned_text[comp_id] = (
                        f"composite={comp_id} typicality={supports[comp_id] / doc_count:.10f}"
                    )
            # encode_basestring writes what json.dumps(ensure_ascii=False) does for a str
            append(
                f"  node: id={node_id} depth={depth} {_REGION_AND_TYPE[id(types[node_id])]}"
                f" {norm_text} label={encode_basestring(label)}"
            )
        d = result.dist
        append(
            f"  distribution: typical={d.typical} rare={d.rare} intricate={d.intricate}"
            f" irrelevant={d.irrelevant} total={d.total}"
            f" covered-typical={d.covered_typical} possible-typical={d.possible_typical}"
        )
        append(f"  category: {result.category.value}")
    lines.append(f"plan: categories={len(summary.plan.categories)}")
    for item in summary.realized:
        lines.append(f"category: {item.plan.category.value}")
        if item.plan.reordered:
            lines.append("  reordered: true")
        for message in item.plan.messages:
            if isinstance(message, SetElements):
                lines.append(
                    f"  message: set-elements count={len(message.members)}"
                    f" members={_json_strings(message.members)}"
                )
            elif isinstance(message, HasTopics):
                lines.append(f"  message: has-topics topics={_json_strings(message.topics)}")
            elif isinstance(message, HasFeature):
                lines.append(
                    f"  message: has-feature kind={message.kind}"
                    f" values={_json_strings(message.values)}"
                    f" members={_json_strings(message.members)}"
                )
            else:
                lines.append("  message: description")
        for sentence, text in zip(item.sentences, item.texts):
            variant = "-" if sentence.chosen_description is None else str(sentence.chosen_description)
            lines.append(
                f"  sentence: relation={sentence.relation} pattern={sentence.chosen_pattern}"
                f" description-variant={variant} text={encode_basestring(text)}"
            )
        lines.append(f"  bullet: {item.bullet}")
    lines.append("summary:")
    lines.extend(summary_lines(summary.realized))
    return lines
