"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each topicsift layer module (every
function defined there whose name has no leading underscore) from outside,
both in the module that defines it and in every module that imported it by
name, such as ``topic_typing.align_tree`` or ``cli.type_document``.
``model`` holds shared helpers and is measured through its callers.

Each wrapped call records a span in memory: name, start, end, parent span
and request id. ``composite.label_similarity`` runs hundreds of thousands of
times per operation, so it is recorded as a call count and a total on its
enclosing span instead of as spans of its own. A layer's self time is its
spans' durations minus the part covered by child spans (and by those
label_similarity calls). Counts are taken from the wrapped calls' arguments
and results; the time spent taking them is excluded from every span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("ingest", "composite", "topic_typing", "classify", "planner", "realizer", "lexicon", "cli")
LEAF = "composite.label_similarity"
CATEGORIES = ("prototypical", "comprehensive", "specialized", "atypical", "deep", "irrelevant", "generic")

# span record fields
NAME, START, END, PARENT, REQUEST, LEAF_CALLS, LEAF_S, EXCLUDED_S = range(8)


def _observe_align(counts, args, kwargs, result):
    counts["align.pairs"] += len(result.pairs) - 1
    counts["align.nonroot"] += len(result.pairs) + len(result.unmatched) - 1


def _observe_norm(counts, args, kwargs, result):
    counts["norm_nodes"] = len(result.nodes())


def _observe_map_query(counts, args, kwargs, result):
    if result is None and hasattr(args[1], "doc_id"):
        counts["map_query.nomatch"] += 1


def _observe_parse(counts, args, kwargs, result):
    counts["ingest.nodes"] += len(result.nodes())


def _observe_plan(counts, args, kwargs, result):
    counts["planner.messages"] += sum(len(category.messages) for category in result.categories)


def _observe_realize(counts, args, kwargs, result):
    counts["realizer.sentences"] += sum(len(item.sentences) for item in result)


def _observe_classify(counts, args, kwargs, result):
    counts["category." + result.value] += 1


OBSERVERS = {
    "composite.align_tree": _observe_align,
    "composite.build_composite": _observe_norm,
    "composite.load_composite": _observe_norm,
    "topic_typing.map_query": _observe_map_query,
    "ingest.parse_document": _observe_parse,
    "planner.plan": _observe_plan,
    "realizer.realize_plan": _observe_realize,
    "classify.classify": _observe_classify,
}


class Tracer:
    """Holds spans and counts for one traced run; install() patches the
    package for the duration of a with-block and restores it afterwards."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: object = None
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self._patches = self._plan_patches()

    def _plan_patches(self) -> list[tuple[object, str, object, object]]:
        modules = {layer: importlib.import_module(f"topicsift.{layer}") for layer in LAYERS}
        defined = {f"topicsift.{layer}": layer for layer in LAYERS}
        wrappers: dict[object, object] = {}
        patches = []
        for module in (importlib.import_module("topicsift"), *modules.values()):
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ not in defined or value.__name__.startswith("_"):
                    continue
                if value not in wrappers:
                    name = f"{defined[value.__module__]}.{value.__name__}"
                    wrappers[value] = self._leaf(value) if name == LEAF else self._span(name, value)
                patches.append((module, attr, value, wrappers[value]))
        return patches

    @contextmanager
    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.request, 0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
                if parent >= 0:
                    spans[parent][EXCLUDED_S] += clock() - record[END]
            return result

        return traced

    def _leaf(self, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            if stack:
                record = spans[stack[-1]]
                record[LEAF_CALLS] += 1
                record[LEAF_S] += elapsed
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by child spans, label_similarity
        calls or count-taking; label_similarity gets its own total."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                covered[record[PARENT]] += record[END] - record[START]
        totals: Counter = Counter()
        for index, record in enumerate(self.spans):
            duration = record[END] - record[START]
            totals[record[NAME]] += duration - covered[index] - record[LEAF_S] - record[EXCLUDED_S]
            totals[LEAF] += record[LEAF_S]
        return dict(totals)

    def metrics(self, ops: int, overhead_ms: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, summed over the traced work."""
        self_s = self.self_times()
        counts = self.counts
        calls = Counter(record[NAME] for record in self.spans)
        nonroot = counts["align.nonroot"]

        def seconds(name: str) -> tuple[float, str]:
            return self_s.get(name, 0.0), "s"

        metrics = {
            "composite.label_similarity.calls": (sum(r[LEAF_CALLS] for r in self.spans), "count"),
            "composite.label_similarity.self_s": seconds(LEAF),
            "composite.align_tree.self_s": seconds("composite.align_tree"),
            "composite.align.match_ratio": (counts["align.pairs"] / nonroot if nonroot else 0.0, "ratio"),
            "composite.merge.self_s": seconds("composite.merge"),
            "composite.norm_nodes": (counts["norm_nodes"], "count"),
            "composite.save_composite.self_s": seconds("composite.save_composite"),
            "composite.load_composite.self_s": seconds("composite.load_composite"),
            "classify.possible_typical_topics.calls": (calls["classify.possible_typical_topics"], "count"),
            "classify.possible_typical_topics.self_s": seconds("classify.possible_typical_topics"),
            "classify.distribution.self_s": seconds("classify.distribution"),
            "topic_typing.map_query.calls": (calls["topic_typing.map_query"], "count"),
            "topic_typing.map_query.self_s": seconds("topic_typing.map_query"),
            "topic_typing.map_query.nomatch": (counts["map_query.nomatch"], "count"),
            "topic_typing.assign_types.self_s": seconds("topic_typing.assign_types"),
            "topic_typing.type_document.self_s": seconds("topic_typing.type_document"),
            "ingest.parse_document.calls": (calls["ingest.parse_document"], "count"),
            "ingest.parse_document.self_s": seconds("ingest.parse_document"),
            "ingest.nodes": (counts["ingest.nodes"], "count"),
            "ingest.load_corpus.self_s": seconds("ingest.load_corpus"),
            "planner.plan.self_s": seconds("planner.plan"),
            "planner.messages": (counts["planner.messages"], "count"),
            "realizer.realize_plan.self_s": seconds("realizer.realize_plan"),
            "realizer.sentences": (counts["realizer.sentences"], "count"),
            "lexicon.default_lexicon.self_s": seconds("lexicon.default_lexicon"),
            # cmd_summarize minus its child spans: trace rendering, printing
            # and the per-document loop itself
            "cli.trace_render.self_s": seconds("cli.cmd_summarize"),
        }
        for category in CATEGORIES:
            metrics[f"classify.category.{category}"] = (counts["category." + category], "count")
        for layer in LAYERS:
            total = sum(value for name, value in self_s.items() if name.startswith(layer + "."))
            metrics[f"{layer}.total_self_s"] = (total, "s")
        metrics["trace.ops"] = (ops, "count")
        metrics["trace.overhead_ms"] = (overhead_ms, "ms")
        return metrics

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to tracer start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, request, leaf_calls, leaf_s, _ in self.spans:
                out.write(json.dumps({
                    "name": name,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    "parent": parent,
                    "request": request,
                    "label_similarity_calls": leaf_calls,
                    "label_similarity_s": leaf_s,
                }) + "\n")
