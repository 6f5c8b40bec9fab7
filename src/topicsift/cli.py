"""Command-line driver.

Two subcommands: ``build`` compiles a composite topic tree (the norm) from a
reference corpus; ``summarize`` characterizes a document set against a norm
for a query, emitting either the prose summary or a line-oriented trace of
every intermediate stage. The command only checks flags, loads its inputs,
maps errors to exit codes and prints: the pipeline and the trace renderer
are ``pipeline.summarize`` and ``pipeline.render_trace``. All output is
deterministic for fixed inputs and seed; warnings go to stderr.
"""
from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from pathlib import Path

from .composite import CompositeSchemaError, EmptyCorpusError, build_composite, load_composite, save_composite
from .ingest import CorpusNameError, CorpusReadError, load_corpus
from .lexicon import Lexicon, LexiconError, LexiconGapError, default_lexicon, load_lexicon
from .model import TypingParams, brief_repr, line_fault
from .pipeline import render_trace, summarize
from .realizer import summary_lines

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_INPUT = 2
EXIT_LEXICON_GAP = 3


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
    # the trace prints the query on one line, to a stdout that may encode strictly
    fault = line_fault(args.query)
    if fault is not None:
        raise ValueError(f"query {brief_repr(args.query)} holds {fault}")
    _check_align_threshold(args)
    if args.limit < 1:
        raise ValueError("limit must be >= 1")
    return TypingParams(k=args.k, alpha=args.alpha, tau=args.tau)


def _unwritable_reason(path: Path) -> str | None:
    """Why the composite file cannot be written, or None when it looks
    writable: its directory must exist and be writable, and the path itself
    must not be a directory."""
    directory = path.parent
    try:
        if not directory.is_dir():
            return os.strerror(errno.ENOTDIR if directory.exists() else errno.ENOENT)
        if path.is_dir():
            return os.strerror(errno.EISDIR)
    except OSError as exc:
        # before Python 3.13 a denied lookup raises instead of returning False
        return exc.strerror or str(exc)
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
        # the "wrote OUT" line prints the path, to a stdout that may encode strictly
        fault = line_fault(args.out)
        if fault is not None:
            raise ValueError(f"composite path {brief_repr(args.out)} holds {fault}")
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
    except CorpusNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        composite = build_composite(corpus, args.align_threshold, domain_genre=args.domain_genre)
    except (EmptyCorpusError, CompositeSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        save_composite(composite, args.out)
    except OSError as exc:
        return _write_error(args.out, exc.strerror or str(exc))
    print(f"wrote {args.out} (documents={composite.doc_count}, topics={len(composite.nodes())})", file=out)
    return EXIT_OK


def cmd_summarize(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        params = _summarize_params(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        composite = load_composite(args.composite)
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
    except CorpusNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        summary = summarize(
            corpus.docs, composite, args.query, params, lexicon, seed=args.seed, limit=args.limit,
            align_threshold=args.align_threshold, extract_exists=args.assume_extract,
        )
    except LexiconGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LEXICON_GAP

    # write, not print, per line: the trace runs to thousands of lines, and
    # joining them into one string first would double its memory
    lines = render_trace(summary) if args.format == "trace" else summary_lines(summary.realized)
    write = out.write
    for line in lines:
        write(line)
        write("\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="warning: %(message)s", force=True)
    args = _build_parser().parse_args(argv)
    if [] in vars(args).values():  # the argparse of Python 3.11 parses "--k=--" to []
        print("error: '--' is not a flag value", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.command == "build":
        return cmd_build(args)
    return cmd_summarize(args)


if __name__ == "__main__":
    sys.exit(main())
