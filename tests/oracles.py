"""Independent brute-force evaluator for the document category table.

Kept separate from the package on purpose: it re-reads the classification
table with exact Fraction arithmetic and a data-driven rule loop, so tests
can cross-check the production classifier against it. The regex label
folding and the spelling merge built on it, brute-force label similarity,
alignment, query mapping and the full-walk norm build below play the same
part for the indexed norm, and the full-walk typing chain and the per-line
header scan for typing over the flat lists and the parser, the per-line
fence finder and regex-free metadata reader for the parser's front matter,
the walk_depth renderer for the one-pass trace, and the one-type-at-a-time
counts and the bind-every-lemma realizer for the one-pass distribution, lexicalize and
realize_plan, and the enumerated member positions for the subset phrases of
build_sentence_plans.
The oracles read a document as nested nodes, which ``nested`` rebuilds from
its parent list alone, and a norm as a tree of nested norm nodes of their
own (``OracleNorm``), which ``oracle_norm`` rebuilds from a package norm's
child lists; the plain tree walks over them (walk, walk_depth, node_map,
parent_map, sibling_rank_map) are the references for the document's flat
lists and derived ranks, and serve the oracles above.
The per-file ``Path`` corpus loader, the recursive norm parser and the
table-free norm writer are the references for the one-pass ``load_corpus``,
``load_composite`` and ``save_composite``.
"""
from __future__ import annotations

import json
import random
import re
import string
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from topicsift.composite import SCHEMA_VERSION, CompositeSchemaError
from topicsift.ingest import (
    SOURCE_EXTENSIONS,
    CorpusNameError,
    CorpusReadError,
    CorpusSet,
    parse_document,
)
from topicsift.lexicon import LexiconGapError
from topicsift.model import (
    CompositeTopicTree,
    DocumentMetadata,
    brief_repr,
    check_line,
    read_json,
)
from topicsift.planner import HasFeature, HasTopics, SetElements
from topicsift.realizer import NO_MATCH_NOTICE, build_sentence_plans, join_and, number_word, ordinal_word


@dataclass
class OracleNode:
    """A document topic as a nested node, the form the oracles read a
    document in."""

    id: int
    label: tuple[str, ...]
    children: list["OracleNode"] = field(default_factory=list)


@dataclass
class OracleDocument:
    doc_id: str
    root: OracleNode
    metadata: DocumentMetadata


@dataclass
class OracleNormNode:
    """A norm topic as a nested node; its label is its spellings, one per
    oracle_fold key, and its typicality is support / the norm's doc_count."""

    id: int
    label: tuple[str, ...]
    position: float
    support: int
    children: list["OracleNormNode"] = field(default_factory=list)


@dataclass
class OracleNorm:
    root: OracleNormNode
    domain_genre: str
    doc_count: int


def oracle_norm(composite) -> OracleNorm:
    """A norm as nested nodes: a package norm is rebuilt from its fields and
    child lists, an OracleNorm is taken as it is. Each of a package node's
    spellings must be non-blank and have an oracle_fold key of its own."""
    if isinstance(composite, OracleNorm):
        return composite

    def convert(node_id):
        forms = composite.forms[node_id]
        assert oracle_merge_forms(*forms) == forms, f"node {node_id}: blank or repeated forms {forms!r}"
        return OracleNormNode(
            id=node_id,
            label=forms,
            position=composite.positions[node_id],
            support=composite.supports[node_id],
            children=[convert(child) for child in composite.children[node_id]],
        )

    return OracleNorm(convert(composite.root), composite.domain_genre, composite.doc_count)


def walk(root):
    """Pre-order traversal over nested nodes."""
    yield root
    for child in root.children:
        yield from walk(child)


def walk_depth(root, depth=0):
    """Pre-order traversal yielding (node, depth below root)."""
    yield root, depth
    for child in root.children:
        yield from walk_depth(child, depth + 1)


def nested(doc) -> OracleNode:
    """A flat document's root as nested nodes, rebuilt from its labels and
    parent list alone: each node becomes the last child of its parent so
    far."""
    nodes = [OracleNode(node_id, oracle_merge_forms(label)) for node_id, label in enumerate(doc.labels)]
    for node, parent in zip(nodes, doc.parents):
        if parent >= 0:
            nodes[parent].children.append(node)
    return nodes[0]


def _root(tree):
    """A norm's root, or a flat document's, as nested nodes."""
    if isinstance(tree, (CompositeTopicTree, OracleNorm)):
        return oracle_norm(tree).root
    return nested(tree)


def node_map(root) -> dict[int, object]:
    """id -> node for a whole tree; rejects duplicate ids."""
    nodes: dict[int, object] = {}
    for node in walk(root):
        if node.id in nodes:
            raise ValueError("duplicate node id %r" % (node.id,))
        nodes[node.id] = node
    return nodes


def parent_map(root) -> dict[int, int | None]:
    """id -> parent id (None for the root)."""
    parents: dict[int, int | None] = {root.id: None}
    for node in walk(root):
        for child in node.children:
            parents[child.id] = node.id
    return parents


def sibling_rank_map(root) -> dict[int, float]:
    """id -> sibling index / max(sibling count - 1, 1); root ranks 0.0."""
    ranks = {root.id: 0.0}
    for node in walk(root):
        denom = max(len(node.children) - 1, 1)
        for index, child in enumerate(node.children):
            ranks[child.id] = index / denom
    return ranks


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

# one line's header, tried on every body line; the package scans for headers
# in one multi-line pass instead
_HEADER = re.compile(r"^(#{1,6}) (.*?\S)\s*$")
_WS_RUN = re.compile(r"\s+")
_TRAILING_PUNCT = re.compile("[%s\\s]+$" % re.escape(string.punctuation))


def oracle_fold(text: str) -> str:
    """Case fold and collapse whitespace runs with a regex."""
    return _WS_RUN.sub(" ", text).strip().casefold()


# each string's normal form, kept for the session: the oracle root gains a
# form per document title, and alignment scores the root's forms again for
# every top-level header of every document
_NORMAL_FORMS: dict[str, str] = {}


def oracle_normalize(text: str) -> str:
    """oracle_fold, then strip any trailing run of punctuation and whitespace."""
    normal = _NORMAL_FORMS.get(text)
    if normal is None:
        normal = _NORMAL_FORMS[text] = _TRAILING_PUNCT.sub("", oracle_fold(text))
    return normal


def oracle_merge_forms(*forms: str) -> tuple[str, ...]:
    """A topic's spellings: the first of each oracle_fold key, in order.
    ValueError for no spelling or a blank one."""
    if not forms or not all(form.strip() for form in forms):
        raise ValueError(f"a label needs non-blank forms, not {forms!r}")
    merged: dict[str, str] = {}
    for form in forms:
        merged.setdefault(oracle_fold(form), form)
    return tuple(merged.values())


def oracle_label_similarity(a: tuple[str, ...], b: tuple[str, ...]) -> float:
    """1.0 when any normalized form is shared, otherwise the best token-level
    Jaccard over all form pairs."""
    forms_a = {n for n in (oracle_normalize(f) for f in a) if n}
    forms_b = {n for n in (oracle_normalize(f) for f in b) if n}
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
    root = nested(doc)
    norm = oracle_norm(composite)
    comp_nodes = node_map(norm.root)
    doc_parents = parent_map(root)
    pairs = {root.id: norm.root.id}
    unmatched: set[int] = set()
    for node in walk(root):
        if node.id == root.id:
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
    query_forms = oracle_merge_forms(query)
    best_id, best_key = None, None
    for order, (node, depth) in enumerate(walk_depth(_root(tree))):
        key = (-oracle_label_similarity(query_forms, node.label), depth, order)
        if best_key is None or key < best_key:
            best_key, best_id = key, node.id
    if -best_key[0] < tau:
        return None
    return best_id


def oracle_possible_typical(composite, query: str, k: int, alpha: float, tau: float) -> frozenset[int]:
    """Composite ids within k hops below the query node with typicality >= alpha."""
    norm = oracle_norm(composite)
    query_node = oracle_map_query(query, norm, tau)
    if query_node is None:
        return frozenset()
    start = node_map(norm.root)[query_node]
    return frozenset(
        node.id
        for node, depth in walk_depth(start)
        if depth <= k and node.support / norm.doc_count >= alpha
    )


def oracle_merge(composite: OracleNorm, doc, pairs: dict[int, int]) -> None:
    """Fold one aligned document into the oracle norm in place, then walk
    the whole norm to re-sort every sibling list."""
    root = nested(doc)
    comp_nodes = node_map(composite.root)
    doc_parents = parent_map(root)
    doc_ranks = sibling_rank_map(root)
    next_id = max(comp_nodes) + 1
    contributions = {}
    for node in walk(root):
        target = pairs.get(node.id)
        if target is not None and target not in contributions:
            contributions[target] = node
    for comp_id, node in contributions.items():
        comp = comp_nodes[comp_id]
        comp.position = (comp.position * comp.support + doc_ranks[node.id]) / (comp.support + 1)
        comp.support += 1
        comp.label = oracle_merge_forms(*comp.label, *node.label)
    inserted = {}
    for node in walk(root):
        if node.id in pairs:
            continue
        parent = doc_parents[node.id]
        comp_parent = comp_nodes[pairs[parent]] if parent in pairs else inserted[parent]
        fresh = OracleNormNode(
            id=next_id,
            label=node.label,
            position=doc_ranks[node.id],
            support=1,
        )
        next_id += 1
        comp_parent.children.append(fresh)
        inserted[node.id] = fresh
    composite.doc_count += 1
    for comp in walk(composite.root):
        comp.children.sort(key=lambda child: child.position)


def oracle_build_composite(docs, threshold: float, domain_genre: str) -> OracleNorm:
    """Seed from the first document, then align and merge every further one
    with the brute-force versions above."""
    first = nested(docs[0])
    ranks = sibling_rank_map(first)

    def convert(node) -> OracleNormNode:
        return OracleNormNode(
            id=node.id,
            label=node.label,
            position=ranks[node.id],
            support=1,
            children=[convert(child) for child in node.children],
        )

    composite = OracleNorm(root=convert(first), domain_genre=domain_genre, doc_count=1)
    for doc in docs[1:]:
        pairs, _ = oracle_align_tree(doc, composite, threshold)
        oracle_merge(composite, doc, pairs)
    return composite


def oracle_type_document(doc, composite, query: str, k: int, alpha: float, tau: float, threshold: float):
    """Align, map the query and type every topic with full walks of the
    document; returns (query_node, {id: type name}, pairs, unmatched)."""
    pairs, unmatched = oracle_align_tree(doc, composite, threshold)
    query_node = oracle_map_query(query, doc, tau)
    root = nested(doc)
    types = {node.id: "irrelevant" for node in walk(root)}
    if query_node is not None:
        norm = oracle_norm(composite)
        comp_nodes = node_map(norm.root)
        for node, depth in walk_depth(node_map(root)[query_node]):
            if depth > k:
                types[node.id] = "intricate"
            else:
                typicality = comp_nodes[pairs[node.id]].support / norm.doc_count if node.id in pairs else 0.0
                types[node.id] = "typical" if typicality >= alpha else "rare"
    return query_node, types, pairs, unmatched


def oracle_is_fence(line: str) -> bool:
    """Whether one line, its line break kept or not, is a front-matter
    fence: "---", then nothing but whitespace."""
    return line[:3] == "---" and not line[3:].strip()


def oracle_split_front_matter(text: str) -> tuple[str, int]:
    """_split_front_matter, without its warning, splitting every text into
    lines and testing them one by one, from the first, for a fence; the
    block holds the lines between the first two fences, breaks kept."""
    lines = text.splitlines(keepends=True)
    if not lines or not oracle_is_fence(lines[0]):
        return "", 0
    offset = len(lines[0])
    block: list[str] = []
    for line in lines[1:]:
        if oracle_is_fence(line):
            return "".join(block), offset + len(line)
        block.append(line)
        offset += len(line)
    return "", 0


_KEY_START = frozenset(string.ascii_letters + "_")
_KEY_REST = _KEY_START | frozenset(string.digits + " -")


def oracle_parse_metadata(front_matter: str, source_path: str = "") -> DocumentMetadata:
    """parse_metadata, without its warning, one line at a time and without
    a regex: a line is cut at its first colon, and the part before must be
    a letter or "_", then letters, digits, "_", " " or "-". A later title
    replaces an earlier one, a blank one gives None, and the tags of every
    content_types and special_content line are gathered in sets."""
    title = None
    tags: dict[str, set[str]] = {"content_types": set(), "special_content": set()}
    for line in front_matter.splitlines():
        line = line.strip()
        key, colon, value = line.partition(":")
        if not colon or not key or key[0] not in _KEY_START or not set(key) <= _KEY_REST:
            continue  # a blank or malformed line
        key = key.strip().lower()
        if key == "title":
            title = value.strip() or None
        elif key in tags:
            tags[key] |= {oracle_normalize(part) for part in value.split(",")} - {""}
    return DocumentMetadata(
        title=title,
        content_types=frozenset(tags["content_types"]),
        special_content=frozenset(tags["special_content"]),
        source_path=source_path,
    )


def oracle_parse_document(text: str, doc_id: str, source_path: str = "") -> OracleDocument:
    """parse_document with the header pattern tried on every body line,
    building nested nodes."""
    front, body_start = oracle_split_front_matter(text)
    metadata = oracle_parse_metadata(front, source_path)
    headers = []
    for line in text[body_start:].splitlines():
        match = _HEADER.match(line)
        if match:
            headers.append((len(match.group(1)), match.group(2)))
    ids = iter(range(len(headers) + 1))

    def make(label):
        return OracleNode(id=next(ids), label=oracle_merge_forms(label))

    if metadata.title:
        root, root_level = make(metadata.title), 0
    elif headers and headers[0][0] == 1:
        root, root_level = make(headers[0][1]), 1
        headers = headers[1:]
    else:
        root, root_level = make(doc_id), 0
    stack = [(root_level, root)]
    for level, label in headers:
        while len(stack) > 1 and stack[-1][0] >= level:
            stack.pop()
        node = make(label)
        stack[-1][1].children.append(node)
        stack.append((level, node))
    return OracleDocument(doc_id=doc_id, root=root, metadata=metadata)


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
    """The version-1 trace as the CLI rendered it before the one-pass walk
    of pipeline.render_trace: walk_depth per document, a lookup in the
    reference walk node_map over the nested norm per node and json.dumps per
    label. args carries limit, seed and align_threshold; a pipeline.Summary
    does."""
    norm = oracle_norm(composite)
    comp_nodes = node_map(norm.root)
    lines = [
        "trace-version: 1",
        f"query: {query}",
        f"params: k={params.k} alpha={params.alpha:g} tau={params.tau:g} limit={args.limit}"
        f" seed={args.seed} align-threshold={args.align_threshold:g}",
        f"composite: domain-genre={composite.domain_genre} doc-count={composite.doc_count}"
        f" nodes={len(comp_nodes)}",
        f"documents: {len(results)}",
    ]
    for result in results:
        typed = result.typed
        lines.append(f"document: {typed.doc.doc_id}")
        lines.append(f"  title: {typed.doc.display_title()}")
        lines.append(f"  query-node: {'-' if typed.query_node is None else typed.query_node}")
        for node, depth in walk_depth(nested(typed.doc)):
            topic_type = typed.types[node.id]
            comp_id = result.alignment.pairs.get(node.id)
            typicality = comp_nodes[comp_id].support / norm.doc_count if comp_id is not None else 0.0
            lines.append(
                f"  node: id={node.id} depth={depth} region={_TRACE_REGIONS[topic_type.value]}"
                f" type={topic_type.value} composite={'-' if comp_id is None else comp_id}"
                f" typicality={typicality:.10f} label={json.dumps(node.label[0], ensure_ascii=False)}"
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


def oracle_distribution_counts(types: list, pairs: dict[int, int], possible: frozenset[int]) -> tuple[int, ...]:
    """(typical, rare, intricate, irrelevant, total, covered, possible) of one
    typed document (one type per node id), counted one type at a time."""
    counts = [sum(1 for t in types if t.value == name) for name in ("typical", "rare", "intricate", "irrelevant")]
    covered = {pairs[node_id] for node_id, t in enumerate(types) if t.value == "typical" and node_id in pairs}
    return (*counts, len(types), len(covered & possible), len(possible))


def oracle_lexicalize(plan, lexicon, rng_seed: int) -> str:
    """lexicalize as it was before it bound only the slots a pattern names:
    a copy of the plan's slots, the description phrase, then every
    morphology lemma's verb form under its upper-cased name, last one
    winning, whether the pattern names it or not."""
    rng = random.Random(rng_seed)
    patterns = lexicon.patterns.get(plan.relation)
    if not patterns:
        raise LexiconGapError(
            f"lexicon gap: no patterns for relation {plan.relation!r} (category {plan.category.value!r})"
        )
    pattern = patterns[rng.randrange(len(patterns))]
    bindings = dict(plan.slots)
    if "{DESCRIPTION}" in pattern.text:
        variants = lexicon.descriptions.get(plan.category.value, [])
        eligible = [
            (index, phrase)
            for index, phrase in enumerate(variants)
            if plan.extract_available or "{EXTRACT_REF}" not in phrase
        ]
        if not eligible:
            raise LexiconGapError(
                f"lexicon gap: no description for category {plan.category.value!r} (relation {plan.relation!r})"
            )
        _, phrase = eligible[rng.randrange(len(eligible))]
        phrase = phrase.replace("{QUERY}", plan.slots.get("QUERY", ""))
        bindings["DESCRIPTION"] = phrase.replace("{EXTRACT_REF}", "the extract above")
    plural = plan.counts.get(pattern.agree, 1) != 1
    for lemma, (singular, plural_form) in lexicon.morphology.items():
        bindings[lemma.upper()] = plural_form if plural else singular
    missing = [name for name in re.findall(r"\{([A-Z_]+)\}", pattern.text) if name not in bindings]
    if missing:
        raise LexiconGapError(
            f"lexicon gap: pattern {pattern.id!r} leaves slots unbound: {', '.join(sorted(set(missing)))}"
        )
    text = re.sub(r"\{([A-Z_]+)\}", lambda match: bindings[match.group(1)], pattern.text)
    text = re.sub(r"([.?!])\.$", r"\1", text)
    return text[:1].upper() + text[1:]


def oracle_realize_texts(plan, lexicon, seed: int, *, titles=None, limit: int = 5, extract_exists: bool = False) -> list[list[str]]:
    """realize_plan's sentence texts, category by category, each sentence
    lexicalized by oracle_lexicalize from the seed realize_plan draws for it."""
    master = random.Random(seed)
    return [
        [
            oracle_lexicalize(sentence, lexicon, master.randrange(2**32))
            for sentence in build_sentence_plans(
                category_plan, query=plan.query, titles=titles or {}, limit=limit, extract_available=extract_exists
            )
        ]
        for category_plan in plan.categories
    ]


def oracle_subset_phrase(category_plan, feature) -> str:
    """The SUBSET slot of a feature's sentence: the 1-based positions of the
    feature's members, taken by enumerating the category's SetElements
    members, as one contiguous run or an ordinal list."""
    members = next(message.members for message in category_plan.messages if isinstance(message, SetElements))
    positions = [index for index, doc_id in enumerate(members, 1) if doc_id in feature.members]
    first, size = positions[0], len(positions)
    if positions != list(range(first, first + size)):
        return f"The {join_and([ordinal_word(p) for p in positions])} documents"
    if len(members) == 1:
        return "The document"
    if size == 1:
        return f"The {ordinal_word(first)} document"
    if size == len(members):
        return f"All {number_word(size)} documents"
    if first == 1:
        return f"The first {number_word(size)} documents"
    return f"The {ordinal_word(first)} through {ordinal_word(positions[-1])} documents"


def oracle_load_corpus(directory) -> CorpusSet:
    """load_corpus through one ``Path`` per file: ``iterdir``, ``suffix``,
    ``is_file`` and ``read_text``."""
    root = Path(directory)
    try:
        paths = sorted(root.iterdir(), key=lambda p: p.name)
    except OSError as exc:
        raise CorpusReadError(f"cannot list corpus directory {root}: {exc.strerror or exc}") from exc
    docs = []
    for path in paths:
        if path.suffix.lower() not in SOURCE_EXTENSIONS:
            continue
        try:
            if not path.is_file():
                continue
            check_line(path.name, "the name of corpus file", CorpusNameError)
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusReadError(f"cannot read corpus file {path.name}: {exc}") from exc
        docs.append(parse_document(text, doc_id=path.name, source_path=str(path)))
    return CorpusSet(docs=docs, origin=str(root))


def _oracle_parse_node(payload, doc_count: int, seen: set[int]) -> OracleNormNode:
    """One norm node and, recursively, its children, each checked before its
    children; every sibling list is sorted by position."""
    def require(condition, message):
        if not condition:
            raise CompositeSchemaError(message)

    require(isinstance(payload, dict), "composite node must be an object")
    node_id = payload.get("id")
    require(isinstance(node_id, int) and not isinstance(node_id, bool), "node id must be an integer")
    require(node_id not in seen, f"duplicate node id {node_id}")
    seen.add(node_id)
    forms = payload.get("forms")
    require(
        isinstance(forms, list) and forms and all(isinstance(f, str) and f.strip() for f in forms),
        f"node {node_id}: forms must be a non-empty list of strings",
    )
    for form in forms:
        require(
            not any("\ud800" <= char <= "\udfff" for char in form),
            f"node {node_id}: form {brief_repr(form)} holds text that is not valid UTF-8",
        )
    support = payload.get("support")
    require(isinstance(support, int) and not isinstance(support, bool), f"node {node_id}: support must be an integer")
    require(support >= 1, f"node {node_id}: support must be >= 1")
    require(support <= doc_count, f"node {node_id}: support {support} exceeds doc_count {doc_count}")
    position = payload.get("position")
    require(
        isinstance(position, (int, float)) and not isinstance(position, bool) and abs(position) <= sys.float_info.max,
        f"node {node_id}: position must be a finite number",
    )
    children = payload.get("children", [])
    require(isinstance(children, list), f"node {node_id}: children must be a list")
    nodes = [_oracle_parse_node(child, doc_count, seen) for child in children]
    nodes.sort(key=lambda node: node.position)
    return OracleNormNode(
        id=node_id,
        label=oracle_merge_forms(*forms),
        position=float(position),
        support=support,
        children=nodes,
    )


def oracle_load_composite(path) -> OracleNorm:
    """load_composite with a recursive node parser."""
    payload = read_json(path, "composite", CompositeSchemaError)
    if not isinstance(payload, dict):
        raise CompositeSchemaError("composite file must hold an object")
    if payload.get("version") != SCHEMA_VERSION:
        raise CompositeSchemaError(f"unsupported composite schema version {brief_repr(payload.get('version'))}")
    doc_count = payload.get("doc_count")
    if not (isinstance(doc_count, int) and not isinstance(doc_count, bool) and doc_count >= 1):
        raise CompositeSchemaError("doc_count must be a positive integer")
    domain_genre = payload.get("domain_genre")
    if not isinstance(domain_genre, str):
        raise CompositeSchemaError("domain_genre must be a string")
    check_line(domain_genre, "the norm for domain genre", CompositeSchemaError)
    try:
        root = _oracle_parse_node(payload.get("root"), doc_count, set())
    except RecursionError as exc:
        raise CompositeSchemaError(f"composite file {path} is nested too deeply") from exc
    if root.support != doc_count:
        raise CompositeSchemaError("root support must equal doc_count (root typicality is 1.0 by construction)")
    return OracleNorm(root=root, domain_genre=domain_genre, doc_count=doc_count)


def oracle_composite_text(composite) -> str:
    """The schema-v1 text save_composite writes for a norm, recursively, each
    number formatted where it is written: json.dumps for every string and
    position, ``.12f`` of support / doc_count for every typicality."""
    norm = oracle_norm(composite)

    def emit(node, indent):
        inner = indent + "  "
        lines = [
            indent + "{",
            f'{inner}"id": {node.id},',
            f'{inner}"forms": {json.dumps(list(node.label), ensure_ascii=False)},',
            f'{inner}"typicality": {node.support / norm.doc_count:.12f},',
            f'{inner}"position": {json.dumps(node.position)},',
            f'{inner}"support": {node.support},',
        ]
        if node.children:
            lines.append(f'{inner}"children": [')
            lines.append(",\n".join(emit(child, inner + "  ") for child in node.children))
            lines.append(inner + "]")
        else:
            lines.append(f'{inner}"children": []')
        lines.append(indent + "}")
        return "\n".join(lines)

    return (
        "{\n"
        f'  "version": {json.dumps(SCHEMA_VERSION)},\n'
        f'  "domain_genre": {json.dumps(norm.domain_genre, ensure_ascii=False)},\n'
        f'  "doc_count": {norm.doc_count},\n'
        '  "root":\n'
        f"{emit(norm.root, '  ')}\n"
        "}\n"
    )
