"""Command-line driver.

Two subcommands: ``build`` compiles a composite topic tree (the norm) from a
reference corpus; ``summarize`` characterizes a document set against a norm
for a query, emitting either the prose summary or a line-oriented trace of
every intermediate stage. All output is deterministic for fixed inputs and
seed; warnings go to stderr.

The trace is rendered in one pass: one explicit pre-order walk per
document, with each norm node's typicality text formatted once per run and
one region/type text per topic type.
"""
from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path

from .classify import TypeDistribution, classify, distribution
from .composite import (
    Alignment,
    CompositeSchemaError,
    EmptyCorpusError,
    build_composite,
    load_composite,
    save_composite,
)
from .ingest import CorpusReadError, load_corpus
from .lexicon import Lexicon, LexiconError, LexiconGapError, default_lexicon, load_lexicon
from .model import CompositeTopicTree, DocumentCategory, TopicType, TypingParams
from .planner import HasFeature, HasTopics, SetElements, SummaryPlan, plan
from .realizer import NO_MATCH_NOTICE, RealizedCategory, realize_plan
from .topic_typing import TypedTree, type_document

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_INPUT = 2
EXIT_LEXICON_GAP = 3

# the "region=... type=..." text of a trace node line, per topic type
_REGION_AND_TYPE = {
    TopicType.TYPICAL: "region=relevant type=typical",
    TopicType.RARE: "region=relevant type=rare",
    TopicType.INTRICATE: "region=intricate type=intricate",
    TopicType.IRRELEVANT: "region=irrelevant type=irrelevant",
}


@dataclass
class DocResult:
    typed: TypedTree
    alignment: Alignment
    dist: TypeDistribution
    category: DocumentCategory


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicsift",
        description="Characterize a document set by how its topic structure differs from a domain norm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="compile a composite topic tree from a reference corpus")
    build.add_argument("corpus", help="directory of .md/.txt reference documents")
    build.add_argument("out", help="path for the composite file")
    build.add_argument("--align-threshold", type=float, default=0.5, help="label similarity needed to merge topics (default 0.5)")
    build.add_argument("--domain-genre", default=None, help="tag stored in the composite (default: corpus directory name)")

    summ = sub.add_parser("summarize", help="summarize a document set for a query")
    summ.add_argument("docs", help="directory of .md/.txt documents to summarize")
    summ.add_argument("--composite", required=True, help="composite file produced by build")
    summ.add_argument("--query", required=True, help="query text")
    summ.add_argument("--k", type=int, default=2, help="intricate beam depth (default 2)")
    summ.add_argument("--alpha", type=float, default=0.5, help="typicality threshold (default 0.5)")
    summ.add_argument("--tau", type=float, default=0.3, help="minimum query-match similarity (default 0.3)")
    summ.add_argument("--limit", type=int, default=5, help="max documents enumerated by title (default 5)")
    summ.add_argument("--seed", type=int, default=0, help="seed for lexical choice (default 0)")
    summ.add_argument("--align-threshold", type=float, default=0.5, help="label similarity for composite alignment (default 0.5)")
    summ.add_argument("--lexicon", default=None, help="lexicon file (default: built-in lexicon)")
    summ.add_argument("--format", choices=("text", "trace"), default="text", help="output format (default text)")
    summ.add_argument("--assume-extract", action="store_true", help="allow descriptions that reference a companion similarity extract")
    return parser


def _check_align_threshold(args: argparse.Namespace) -> None:
    if not 0.0 <= args.align_threshold <= 1.0:
        raise ValueError("align-threshold must be in [0, 1]")


def _summarize_params(args: argparse.Namespace) -> TypingParams:
    """Validate every summarize parameter; raises ValueError naming the first
    bad one."""
    if not args.query.strip():
        raise ValueError("query must be non-empty")
    _check_align_threshold(args)
    if args.limit < 1:
        raise ValueError("limit must be >= 1")
    return TypingParams(k=args.k, alpha=args.alpha, tau=args.tau)


def _unwritable_reason(path: Path) -> str | None:
    """Why the composite file cannot be written, or None when it looks
    writable: its directory must exist and be writable, and the path itself
    must not be a directory."""
    directory = path.parent
    if not directory.is_dir():
        return os.strerror(errno.ENOTDIR if directory.exists() else errno.ENOENT)
    if path.is_dir():
        return os.strerror(errno.EISDIR)
    if not os.access(directory, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def _write_error(path: str, reason: str) -> int:
    print(f"error: cannot write composite file {path}: {reason}", file=sys.stderr)
    return EXIT_ERROR


def cmd_build(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        _check_align_threshold(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # fail before the corpus is loaded and folded, not after
    reason = _unwritable_reason(Path(args.out))
    if reason is not None:
        return _write_error(args.out, reason)
    try:
        corpus = load_corpus(args.corpus)
    except CorpusReadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        composite = build_composite(corpus, args.align_threshold, domain_genre=args.domain_genre)
    except EmptyCorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        save_composite(composite, args.out)
    except OSError as exc:
        return _write_error(args.out, exc.strerror or str(exc))
    print(f"wrote {args.out} (documents={composite.doc_count}, topics={len(composite.nodes())})", file=out)
    return EXIT_OK


def _run_pipeline(corpus_docs, composite: CompositeTopicTree, query: str, params: TypingParams, align_threshold: float) -> list[DocResult]:
    results = []
    for doc in corpus_docs:
        typed, alignment = type_document(doc, composite, query, params, align_threshold)
        if typed.query_node is None:
            log.warning("query %r matched no topic in %s", query, doc.doc_id)
        dist = distribution(typed, composite, alignment, params)
        results.append(DocResult(typed=typed, alignment=alignment, dist=dist, category=classify(dist)))
    return results


def _json_strings(items: tuple[str, ...]) -> str:
    """The JSON array json.dumps(list(items), ensure_ascii=False) writes,
    without setting up an encoder per call."""
    return "[" + ", ".join(map(encode_basestring, items)) + "]"


def _trace_lines(
    query: str,
    params: TypingParams,
    args: argparse.Namespace,
    composite: CompositeTopicTree,
    results: list[DocResult],
    splan: SummaryPlan,
    realized: list[RealizedCategory],
) -> list[str]:
    norm_nodes = composite.index().nodes
    lines = [
        "trace-version: 1",
        f"query: {query}",
        f"params: k={params.k} alpha={params.alpha:g} tau={params.tau:g} limit={args.limit}"
        f" seed={args.seed} align-threshold={args.align_threshold:g}",
        f"composite: domain-genre={composite.domain_genre} doc-count={composite.doc_count}"
        f" nodes={len(norm_nodes)}",
        f"documents: {len(results)}",
    ]
    append = lines.append
    # "composite=... typicality=..." per norm node, formatted on first use
    unaligned = f"composite=- typicality={0.0:.10f}"
    aligned_text: dict[int, str] = {}
    for result in results:
        typed = result.typed
        types = typed.types
        pairs = result.alignment.pairs
        append(f"document: {typed.doc.doc_id}")
        append(f"  title: {typed.doc.display_title()}")
        append(f"  query-node: {'-' if typed.query_node is None else typed.query_node}")
        stack = [(typed.doc.root, 0)]
        while stack:
            node, depth = stack.pop()
            node_id = node.id
            comp_id = pairs.get(node_id)
            if comp_id is None:
                norm_text = unaligned
            else:
                norm_text = aligned_text.get(comp_id)
                if norm_text is None:
                    norm_text = aligned_text[comp_id] = (
                        f"composite={comp_id} typicality={norm_nodes[comp_id].typicality:.10f}"
                    )
            # encode_basestring writes what json.dumps(ensure_ascii=False) does for a str
            append(
                f"  node: id={node_id} depth={depth} {_REGION_AND_TYPE[types[node_id]]}"
                f" {norm_text} label={encode_basestring(node.label.canonical)}"
            )
            if node.children:
                below = depth + 1
                stack.extend([(child, below) for child in reversed(node.children)])
        d = result.dist
        append(
            f"  distribution: typical={d.typical} rare={d.rare} intricate={d.intricate}"
            f" irrelevant={d.irrelevant} total={d.total}"
            f" covered-typical={d.covered_typical} possible-typical={d.possible_typical}"
        )
        append(f"  category: {result.category.value}")
    lines.append(f"plan: categories={len(splan.categories)}")
    for item in realized:
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
    if realized:
        lines.extend(item.bullet for item in realized)
    else:
        lines.append(NO_MATCH_NOTICE)
    return lines


def cmd_summarize(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        params = _summarize_params(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    composite_path = Path(args.composite)
    if not composite_path.is_file():
        print(f"error: composite file not found: {composite_path}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        composite = load_composite(composite_path)
    except CompositeSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.lexicon is None:
        lexicon: Lexicon = default_lexicon()
    else:
        try:
            lexicon = load_lexicon(args.lexicon)
        except LexiconError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    try:
        corpus = load_corpus(args.docs)
    except CorpusReadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    results = _run_pipeline(corpus.docs, composite, args.query, params, args.align_threshold)
    splan = plan([(r.typed, r.category) for r in results])
    titles = {r.typed.doc.doc_id: r.typed.doc.display_title() for r in results}
    try:
        realized = realize_plan(
            splan,
            lexicon,
            args.seed,
            titles=titles,
            limit=args.limit,
            extract_exists=args.assume_extract,
        )
    except LexiconGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LEXICON_GAP

    if args.format == "trace":
        # write, not print, per line: the trace runs to thousands of lines,
        # and joining them into one string first would double its memory
        write = out.write
        for line in _trace_lines(args.query, params, args, composite, results, splan, realized):
            write(line)
            write("\n")
    else:
        if realized:
            for item in realized:
                print(item.bullet, file=out)
        else:
            print(NO_MATCH_NOTICE, file=out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="warning: %(message)s", force=True)
    args = _build_parser().parse_args(argv)
    if args.command == "build":
        return cmd_build(args)
    return cmd_summarize(args)


if __name__ == "__main__":
    sys.exit(main())
