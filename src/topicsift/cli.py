"""Command-line driver.

Two subcommands: ``build`` compiles a composite topic tree (the norm) from a
reference corpus; ``summarize`` characterizes a document set against a norm
for a query, emitting either the prose summary or a line-oriented trace of
every intermediate stage. A command only checks flags, loads its inputs
and prints, and ``main`` maps each error a command stops on to its exit code
through one table. The pipeline and the trace renderer are
``pipeline.summarize`` and ``pipeline.render_trace``. All output is
deterministic for fixed inputs and seed; warnings go to stderr.

``main`` runs a command with the cyclic garbage collector's automatic
collections paused. Nothing a command keeps forms a reference cycle, so
reference counting frees all of it, and the collector would only rescan the
loaded norm and corpus while they live (README "Performance" gives the
collections a run avoids). ``main`` restores the caller's setting on every
exit, and when collection was on it collects the youngest generation once,
which frees the few cycles argparse leaves. Only ``main`` touches the
collector: a library caller owns its process, and its setting.
"""
from __future__ import annotations

import argparse
import errno
import gc
import logging
import os
import sys
from pathlib import Path

from .composite import CompositeSchemaError, EmptyCorpusError, build_composite, load_composite, save_composite
from .ingest import CorpusNameError, CorpusReadError, load_corpus
from .lexicon import LexiconError, LexiconGapError, default_lexicon, load_lexicon
from .model import TypingParams, check_line
from .pipeline import render_trace, summarize
from .realizer import summary_lines


class _FlagError(ValueError):
    """A flag value the command refuses."""


class _WriteError(Exception):
    """The composite file cannot be written."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"cannot write composite file {path}: {reason}")


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
        raise _FlagError("align-threshold must be in [0, 1]")


def _summarize_params(args: argparse.Namespace) -> TypingParams:
    """Validate every summarize parameter; raises _FlagError naming the
    first bad one."""
    if not args.query.strip():
        raise _FlagError("query must be non-empty")
    # the trace prints the query on one line, to a stdout that may encode strictly
    check_line(args.query, "query", _FlagError)
    _check_align_threshold(args)
    if args.limit < 1:
        raise _FlagError("limit must be >= 1")
    try:
        return TypingParams(k=args.k, alpha=args.alpha, tau=args.tau)
    except ValueError as exc:
        raise _FlagError(str(exc)) from None


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


def cmd_build(args: argparse.Namespace) -> int:
    _check_align_threshold(args)
    # the "wrote OUT" line prints the path, to a stdout that may encode strictly
    check_line(args.out, "composite path", _FlagError)
    # fail before the corpus is loaded and folded, not after
    reason = _unwritable_reason(Path(args.out))
    if reason is not None:
        raise _WriteError(args.out, reason)
    corpus = load_corpus(args.corpus)
    composite = build_composite(corpus, args.align_threshold, domain_genre=args.domain_genre)
    try:
        save_composite(composite, args.out)
    except OSError as exc:
        raise _WriteError(args.out, exc.strerror or str(exc)) from exc
    print(f"wrote {args.out} (documents={composite.doc_count}, topics={len(composite.forms)})")
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    params = _summarize_params(args)
    composite = load_composite(args.composite)
    lexicon = default_lexicon() if args.lexicon is None else load_lexicon(args.lexicon)
    corpus = load_corpus(args.docs)
    summary = summarize(
        corpus.docs, composite, args.query, params, lexicon, seed=args.seed, limit=args.limit,
        align_threshold=args.align_threshold, extract_exists=args.assume_extract,
    )
    # write, not print, per line: the trace runs to thousands of lines, and
    # joining them into one string first would double its memory
    lines = render_trace(summary) if args.format == "trace" else summary_lines(summary.realized)
    write = sys.stdout.write
    for line in lines:
        write(line)
        write("\n")
    return 0


# the exit code of each error a command stops on (README "Exit codes"). Any
# other exception is a program fault and keeps its traceback, so the table
# names exact classes, never a bare ValueError or OSError.
_EXIT_CODES: dict[type[Exception], int] = {
    _FlagError: 2,
    CorpusNameError: 2,
    CompositeSchemaError: 2,
    EmptyCorpusError: 2,
    LexiconError: 2,
    CorpusReadError: 1,
    _WriteError: 1,
    LexiconGapError: 3,
}


def main(argv: list[str] | None = None) -> int:
    # automatic collection pauses for the whole command (module docstring);
    # the young collection frees argparse's cycles, so repeated in-process
    # runs do not pile them up
    enabled = gc.isenabled()
    gc.disable()
    try:
        logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="warning: %(message)s", force=True)
        args = _build_parser().parse_args(argv)
        try:
            if [] in vars(args).values():  # the argparse of Python 3.11 parses "--k=--" to []
                raise _FlagError("'--' is not a flag value")
            return cmd_build(args) if args.command == "build" else cmd_summarize(args)
        except tuple(_EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_CODES[type(exc)]
    finally:
        if enabled:
            gc.enable()
            gc.collect(0)


if __name__ == "__main__":
    sys.exit(main())
