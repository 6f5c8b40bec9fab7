"""Independent brute-force evaluator for the document category table.

Kept separate from the package on purpose: it re-reads the classification
table with exact Fraction arithmetic and a data-driven rule loop, so tests
can cross-check the production classifier against it. The regex label
folding, brute-force label similarity, alignment, query mapping and the
full-walk norm build below play the same part for the indexed norm, and the
full-walk typing chain and the per-line header scan for the per-document
index and the parser, and the walk_depth renderer for the one-pass trace.
"""
from __future__ import annotations

import json
import re
import string
from fractions import Fraction

from topicsift.ingest import _HEADER, parse_metadata
from topicsift.model import (
    CompositeNode,
    CompositeTopicTree,
    DocumentTopicTree,
    LexicalForms,
    TopicNode,
    node_map,
    parent_map,
    sibling_rank_map,
    walk,
    walk_depth,
)
from topicsift.planner import HasFeature, HasTopics, SetElements
from topicsift.realizer import NO_MATCH_NOTICE

_RULES = (
    ("prototypical", ("typical", "coverage")),
    ("comprehensive", ("coverage",)),
    ("specialized", ("typical",)),
    ("atypical", ("rare",)),
    ("deep", ("intricate",)),
    ("irrelevant", ("irrelevant",)),
)


def oracle_classify(
    typical: int,
    rare: int,
    intricate: int,
    irrelevant: int,
    covered: int,
    possible: int,
) -> str:
    total = typical + rare + intricate + irrelevant
    ratios = {
        "typical": Fraction(typical, total),
        "rare": Fraction(rare, total),
        "intricate": Fraction(intricate, total),
        "irrelevant": Fraction(irrelevant, total),
        "coverage": Fraction(covered, possible) if possible else Fraction(0),
    }
    half = Fraction(1, 2)
    for name, needed in _RULES:
        if all(ratios[key] > half for key in needed):
            return name
    return "generic"


def all_distributions(max_total: int, max_possible: int):
    """Every (typical, rare, intricate, irrelevant, covered, possible) tuple
    with 1 <= total <= max_total and covered <= possible <= max_possible."""
    for total in range(1, max_total + 1):
        for typical in range(total + 1):
            for rare in range(total - typical + 1):
                for intricate in range(total - typical - rare + 1):
                    irrelevant = total - typical - rare - intricate
                    for possible in range(max_possible + 1):
                        for covered in range(possible + 1):
                            yield typical, rare, intricate, irrelevant, covered, possible


# ---------------------------------------------------------------------------
# Plain reference versions of the indexed scoring paths. They re-derive every
# label's normal forms on each comparison and scan every candidate, exactly as
# the package did before it indexed the norm; tests require the package to
# agree with them.

_FENCE = re.compile(r"^---\s*$")
_WS_RUN = re.compile(r"\s+")
_TRAILING_PUNCT = re.compile("[%s\\s]+$" % re.escape(string.punctuation))


def oracle_fold(text: str) -> str:
    """Case fold and collapse whitespace runs with a regex."""
    return _WS_RUN.sub(" ", text).strip().casefold()


def oracle_normalize(text: str) -> str:
    """oracle_fold, then strip any trailing run of punctuation and whitespace."""
    return _TRAILING_PUNCT.sub("", oracle_fold(text))


def oracle_label_similarity(a: LexicalForms, b: LexicalForms) -> float:
    """1.0 when any normalized form is shared, otherwise the best token-level
    Jaccard over all form pairs."""
    forms_a = {n for n in (oracle_normalize(f) for f in a.forms) if n}
    forms_b = {n for n in (oracle_normalize(f) for f in b.forms) if n}
    if forms_a & forms_b:
        return 1.0
    best = 0.0
    for fa in forms_a:
        tokens_a = set(fa.split())
        for fb in forms_b:
            tokens_b = set(fb.split())
            union = tokens_a | tokens_b
            if not union:
                continue
            best = max(best, len(tokens_a & tokens_b) / len(union))
    return best


def oracle_align_tree(doc, composite, threshold: float) -> tuple[dict[int, int], set[int]]:
    """Greedy top-down alignment scoring the anchor and every one of its
    children; returns (pairs, unmatched)."""
    comp_nodes = node_map(composite.root)
    doc_parents = parent_map(doc.root)
    pairs = {doc.root.id: composite.root.id}
    unmatched: set[int] = set()
    for node in walk(doc.root):
        if node.id == doc.root.id:
            continue
        anchor_id = pairs.get(doc_parents[node.id])
        if anchor_id is None:
            unmatched.add(node.id)
            continue
        anchor = comp_nodes[anchor_id]
        best_key = None
        for candidate in (anchor, *anchor.children):
            similarity = oracle_label_similarity(node.label, candidate.label)
            if similarity < threshold:
                continue
            key = (-similarity, candidate.position, candidate.id)
            if best_key is None or key < best_key:
                best_key = key
        if best_key is None:
            unmatched.add(node.id)
        else:
            pairs[node.id] = best_key[2]
    return pairs, unmatched


def oracle_map_query(query: str, tree, tau: float) -> int | None:
    """The node most similar to the query over a full scan of the tree; ties
    go to the shallower node, then the earlier one in pre-order."""
    query_forms = LexicalForms.of(query)
    best_id, best_key = None, None
    for order, (node, depth) in enumerate(walk_depth(tree.root)):
        key = (-oracle_label_similarity(query_forms, node.label), depth, order)
        if best_key is None or key < best_key:
            best_key, best_id = key, node.id
    if -best_key[0] < tau:
        return None
    return best_id


def oracle_possible_typical(composite, query: str, k: int, alpha: float, tau: float) -> frozenset[int]:
    """Composite ids within k hops below the query node with typicality >= alpha."""
    query_node = oracle_map_query(query, composite, tau)
    if query_node is None:
        return frozenset()
    start = node_map(composite.root)[query_node]
    return frozenset(
        node.id
        for node, depth in walk_depth(start)
        if depth <= k and node.typicality >= alpha
    )


def oracle_merge(composite, doc, pairs: dict[int, int]) -> None:
    """Fold one aligned document into the composite in place, then walk the
    whole norm to refresh typicality and re-sort every sibling list."""
    comp_nodes = node_map(composite.root)
    doc_parents = parent_map(doc.root)
    doc_ranks = sibling_rank_map(doc.root)
    next_id = max(comp_nodes) + 1
    contributions = {}
    for node in walk(doc.root):
        target = pairs.get(node.id)
        if target is not None and target not in contributions:
            contributions[target] = node
    for comp_id, node in contributions.items():
        comp = comp_nodes[comp_id]
        comp.position = (comp.position * comp.support + doc_ranks[node.id]) / (comp.support + 1)
        comp.support += 1
        comp.label = LexicalForms.of(*comp.label.forms, *node.label.forms)
    inserted = {}
    for node in walk(doc.root):
        if node.id in pairs:
            continue
        parent = doc_parents[node.id]
        comp_parent = comp_nodes[pairs[parent]] if parent in pairs else inserted[parent]
        fresh = CompositeNode(
            id=next_id,
            label=LexicalForms.of(*node.label.forms),
            typicality=0.0,
            position=doc_ranks[node.id],
            support=1,
        )
        next_id += 1
        comp_parent.children.append(fresh)
        inserted[node.id] = fresh
    composite.doc_count += 1
    for comp in walk(composite.root):
        comp.typicality = comp.support / composite.doc_count
        comp.children.sort(key=lambda child: child.position)


def oracle_build_composite(docs, threshold: float, domain_genre: str) -> CompositeTopicTree:
    """Seed from the first document, then align and merge every further one
    with the brute-force versions above."""
    ranks = sibling_rank_map(docs[0].root)

    def convert(node) -> CompositeNode:
        return CompositeNode(
            id=node.id,
            label=LexicalForms.of(*node.label.forms),
            typicality=1.0,
            position=ranks[node.id],
            support=1,
            children=[convert(child) for child in node.children],
        )

    composite = CompositeTopicTree(root=convert(docs[0].root), domain_genre=domain_genre, doc_count=1)
    for doc in docs[1:]:
        pairs, _ = oracle_align_tree(doc, composite, threshold)
        oracle_merge(composite, doc, pairs)
    return composite


def oracle_type_document(doc, composite, query: str, k: int, alpha: float, tau: float, threshold: float):
    """Align, map the query and type every topic with full walks of the
    document; returns (query_node, {id: type name}, pairs, unmatched)."""
    pairs, unmatched = oracle_align_tree(doc, composite, threshold)
    query_node = oracle_map_query(query, doc, tau)
    types = {node.id: "irrelevant" for node in walk(doc.root)}
    if query_node is not None:
        comp_nodes = node_map(composite.root)
        for node, depth in walk_depth(node_map(doc.root)[query_node]):
            if depth > k:
                types[node.id] = "intricate"
            else:
                typicality = comp_nodes[pairs[node.id]].typicality if node.id in pairs else 0.0
                types[node.id] = "typical" if typicality >= alpha else "rare"
    return query_node, types, pairs, unmatched


def oracle_split_front_matter(text: str) -> tuple[str, int]:
    """_split_front_matter, without its warning, splitting every text into
    lines before it looks for the opening fence."""
    lines = text.splitlines(keepends=True)
    if not lines or not _FENCE.match(lines[0].rstrip("\n")):
        return "", 0
    offset = len(lines[0])
    block: list[str] = []
    for line in lines[1:]:
        if _FENCE.match(line.rstrip("\n")):
            return "".join(block), offset + len(line)
        block.append(line)
        offset += len(line)
    return "", 0


def oracle_parse_document(text: str, doc_id: str, source_path: str = "") -> DocumentTopicTree:
    """parse_document with the header pattern tried on every body line."""
    front, body_start = oracle_split_front_matter(text)
    metadata = parse_metadata(front, source_path)
    headers = []
    offset = body_start
    for line in text[body_start:].splitlines(keepends=True):
        stripped = line.rstrip("\n")
        match = _HEADER.match(stripped)
        if match:
            headers.append((len(match.group(1)), match.group(2), (offset, offset + len(stripped))))
        offset += len(line)
    ids = iter(range(len(headers) + 1))

    def make(label, span):
        return TopicNode(id=next(ids), label=LexicalForms.of(label), source_span=span)

    if metadata.title:
        root, root_level = make(metadata.title, None), 0
    elif headers and headers[0][0] == 1:
        root, root_level = make(headers[0][1], headers[0][2]), 1
        headers = headers[1:]
    else:
        root, root_level = make(doc_id, None), 0
    stack = [(root_level, root)]
    for level, label, span in headers:
        while len(stack) > 1 and stack[-1][0] >= level:
            stack.pop()
        node = make(label, span)
        stack[-1][1].children.append(node)
        stack.append((level, node))
    return DocumentTopicTree(doc_id=doc_id, root=root, metadata=metadata)


_TRACE_REGIONS = {"typical": "relevant", "rare": "relevant", "intricate": "intricate", "irrelevant": "irrelevant"}


def oracle_trace_lines(
    query: str,
    params,
    args,
    composite,
    results,
    splan,
    realized,
) -> list[str]:
    """The version-1 trace as cli._trace_lines rendered it before the
    one-pass walk: walk_depth per document, composite.node() per node and
    json.dumps per label."""
    lines = [
        "trace-version: 1",
        f"query: {query}",
        f"params: k={params.k} alpha={params.alpha:g} tau={params.tau:g} limit={args.limit}"
        f" seed={args.seed} align-threshold={args.align_threshold:g}",
        f"composite: domain-genre={composite.domain_genre} doc-count={composite.doc_count}"
        f" nodes={len(composite.nodes())}",
        f"documents: {len(results)}",
    ]
    for result in results:
        typed = result.typed
        lines.append(f"document: {typed.doc.doc_id}")
        lines.append(f"  title: {typed.doc.display_title()}")
        lines.append(f"  query-node: {'-' if typed.query_node is None else typed.query_node}")
        for node, depth in walk_depth(typed.doc.root):
            topic_type = typed.types[node.id]
            comp_id = result.alignment.pairs.get(node.id)
            typicality = composite.node(comp_id).typicality if comp_id is not None else 0.0
            lines.append(
                f"  node: id={node.id} depth={depth} region={_TRACE_REGIONS[topic_type.value]}"
                f" type={topic_type.value} composite={'-' if comp_id is None else comp_id}"
                f" typicality={typicality:.10f} label={json.dumps(node.label.canonical, ensure_ascii=False)}"
            )
        d = result.dist
        lines.append(
            f"  distribution: typical={d.typical} rare={d.rare} intricate={d.intricate}"
            f" irrelevant={d.irrelevant} total={d.total}"
            f" covered-typical={d.covered_typical} possible-typical={d.possible_typical}"
        )
        lines.append(f"  category: {result.category.value}")
    lines.append(f"plan: categories={len(splan.categories)}")
    for item in realized:
        lines.append(f"category: {item.plan.category.value}")
        if item.plan.reordered:
            lines.append("  reordered: true")
        for message in item.plan.messages:
            if isinstance(message, SetElements):
                lines.append(
                    f"  message: set-elements count={len(message.members)}"
                    f" members={json.dumps(list(message.members), ensure_ascii=False)}"
                )
            elif isinstance(message, HasTopics):
                lines.append(f"  message: has-topics topics={json.dumps(list(message.topics), ensure_ascii=False)}")
            elif isinstance(message, HasFeature):
                lines.append(
                    f"  message: has-feature kind={message.kind}"
                    f" values={json.dumps(list(message.values), ensure_ascii=False)}"
                    f" members={json.dumps(list(message.members), ensure_ascii=False)}"
                )
            else:
                lines.append("  message: description")
        for sentence, text in zip(item.sentences, item.texts):
            variant = "-" if sentence.chosen_description is None else str(sentence.chosen_description)
            lines.append(
                f"  sentence: relation={sentence.relation} pattern={sentence.chosen_pattern}"
                f" description-variant={variant} text={json.dumps(text, ensure_ascii=False)}"
            )
        lines.append(f"  bullet: {item.bullet}")
    lines.append("summary:")
    if realized:
        lines.extend(item.bullet for item in realized)
    else:
        lines.append(NO_MATCH_NOTICE)
    return lines
