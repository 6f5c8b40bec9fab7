"""topicsift benchmark: three workloads, output checks, end-to-end and
per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see METRICS.md for why each was chosen):

- ``build-norm``: one operation runs ``load_corpus``, ``build_composite`` and
  ``save_composite`` on a generated reference corpus (a norm of about
  1.35k nodes).
- ``query-stream``: one operation is one request: a query and a page of ten
  documents sent as text, run through ``parse_document``, ``type_document``,
  ``distribution``, ``classify``, ``plan`` and ``realize_summary`` against a
  2k-node norm loaded once. One client sends requests back to back (closed
  loop); pages come from a shared pool with repeats.
- ``batch-audit``: one operation is an in-process run of ``topicsift
  summarize DIR --composite FILE --query Q --format trace`` over 120
  documents against a 400-node norm.

The program is imported from ``src/`` of the checkout and driven only
through the functions exported by ``topicsift`` and through
``topicsift.cli``. Inputs are generated from the seed by ``gen_corpus.py``
into ``.bench_build/``. Every operation's output is checked: digests recorded
for the shipped seeds in ``digests.json`` (for other seeds, every repeat
must match the first output), plus invariants that hold for any seed.

With ``--trace 0`` the run measures for ``--seconds`` seconds and reports
the end-to-end metrics. With ``--trace 1`` it runs a fixed number of
operations untraced and then the same operations traced, and reports the
per-layer metrics summed over the traced operations, plus the tracing
overhead. Human-readable lines come first; the last line of standard output
is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
DIGESTS = BENCH / "digests.json"

ALIGN_THRESHOLD = 0.5
LIMIT = 5
REALIZE_SEED = 0
SETUP_SAMPLES = 11
# name, scale and unit under which each workload prints one operation's time
OP_NAMES = {"build-norm": ("build_s", 1.0, "s"), "query-stream": ("query_ms", 1000.0, "ms"), "batch-audit": ("audit_s", 1.0, "s")}


class CheckFailed(Exception):
    """An operation's output failed a check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


class WarningCounter(logging.Handler):
    """Counts the program's log records instead of printing them.

    ``cli.main`` resets the root logger with ``basicConfig(force=True)``, so
    the counter sits on the ``topicsift`` logger, which stops propagating.
    """

    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.nomatch = 0
        self.other = 0

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("query %r matched no topic"):
            self.nomatch += 1
        else:
            self.other += 1


def capture_warnings() -> WarningCounter:
    counter = WarningCounter()
    package_log = logging.getLogger("topicsift")
    package_log.addHandler(counter)
    package_log.propagate = False
    return counter


def check_norm_file(path: Path) -> dict[int, int]:
    """Independent check of a composite file: support <= doc_count on every
    node. Returns id -> support."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    doc_count = payload["doc_count"]
    supports: dict[int, int] = {}
    stack = [payload["root"]]
    while stack:
        node = stack.pop()
        require(1 <= node["support"] <= doc_count, f"node {node['id']}: support {node['support']} > doc_count {doc_count}")
        supports[node["id"]] = node["support"]
        stack.extend(node["children"])
    return supports


def check_composite(composite) -> None:
    """support <= doc_count and typicality == support / doc_count on every node."""
    for node in composite.nodes():
        require(node.support <= composite.doc_count, f"node {node.id}: support exceeds doc_count")
        require(node.typicality == node.support / composite.doc_count, f"node {node.id}: typicality is not support / doc_count")


# --- workloads -----------------------------------------------------------------

class BuildNorm:
    """One operation: load_corpus + build_composite + save_composite."""

    trace_ops = 3
    setup_code = ""

    def __init__(self, ts, inputs: Path, manifest: dict, seed: int) -> None:
        self.ts = ts
        self.corpus = inputs / manifest["corpus"]
        self.out = inputs / "built.json"

    def setup(self) -> None:
        pass

    def op(self, index: int):
        corpus = self.ts.load_corpus(self.corpus)
        composite = self.ts.build_composite(corpus, ALIGN_THRESHOLD)
        self.ts.save_composite(composite, self.out)
        return composite

    def check(self, index: int, composite) -> dict[str, str]:
        data = self.out.read_bytes()
        reloaded = self.ts.load_composite(self.out)
        require(len(reloaded.nodes()) == len(composite.nodes()), "reloaded norm has a different node count")
        check_composite(composite)
        check_composite(reloaded)
        return {"composite": digest(data)}


class QueryStream:
    """One operation: one request (query + a page of ten documents as text)."""

    trace_ops = 24

    def __init__(self, ts, inputs: Path, manifest: dict, seed: int) -> None:
        self.ts = ts
        self.norm_path = inputs / manifest["norm"]
        self.requests = manifest["requests"]
        pool = inputs / manifest["pool"]
        self.texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(pool.iterdir())}
        self.rng = random.Random(seed * 2654435761 + 17)
        self.stream: list[int] = []
        self.params = ts.TypingParams()
        self.setup_code = (
            f"topicsift.load_composite({str(self.norm_path)!r}); topicsift.default_lexicon()"
        )

    def setup(self) -> None:
        self.norm = self.ts.load_composite(self.norm_path)
        self.lexicon = self.ts.default_lexicon()
        check_norm_file(self.norm_path)
        check_composite(self.norm)

    def kind(self, index: int) -> int:
        while len(self.stream) <= index:
            self.stream.append(self.rng.randrange(len(self.requests)))
        return self.stream[index]

    def op(self, index: int):
        return self.request(self.kind(index))

    def request(self, kind: int):
        ts, norm, params = self.ts, self.norm, self.params
        request = self.requests[kind]
        query = request["query"]
        classified = []
        for name in request["page"]:
            doc = ts.parse_document(self.texts[name], name)
            typed, alignment = ts.type_document(doc, norm, query, params, ALIGN_THRESHOLD)
            dist = ts.distribution(typed, norm, alignment, params)
            classified.append((typed, ts.classify(dist)))
        splan = ts.plan(classified)
        titles = {typed.doc.doc_id: typed.doc.display_title() for typed, _ in classified}
        summary = ts.realize_summary(splan, self.lexicon, REALIZE_SEED, titles=titles, limit=LIMIT)
        return kind, splan, summary

    def check(self, index: int, result) -> dict[str, str]:
        kind, splan, summary = result
        members = [doc_id for category in splan.categories for doc_id in category.members()]
        require(sorted(members) == self.requests[kind]["page"], "a document is not in exactly one category")
        bullets = summary.split("\n")
        require(len(bullets) == len(splan.categories), "bullet count differs from instantiated categories")
        require(all(b.startswith("- ") for b in bullets), "summary line is not a bullet")
        return {str(kind): digest(summary)}


class BatchAudit:
    """One operation: topicsift summarize DIR --composite FILE --query Q --format trace."""

    trace_ops = 5
    setup_code = "import topicsift.cli"

    _NODE = re.compile(r" composite=(\S+) typicality=(\S+) ")

    def __init__(self, ts, inputs: Path, manifest: dict, seed: int) -> None:
        import topicsift.cli

        self.cli = topicsift.cli
        docs = inputs / manifest["docs"]
        self.doc_count = len(list(docs.iterdir()))
        self.norm_path = inputs / manifest["norm"]
        self.argv = [
            "summarize", str(docs),
            "--composite", str(self.norm_path),
            "--query", manifest["query"],
            "--format", "trace",
        ]

    def setup(self) -> None:
        self.supports = check_norm_file(self.norm_path)
        self.norm_docs = json.loads(self.norm_path.read_text(encoding="utf-8"))["doc_count"]

    def op(self, index: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, index: int, result) -> dict[str, str]:
        code, text = result
        require(code == 0, f"exit code {code}")
        lines = text.splitlines()
        summary_at = lines.index("summary:")
        require(lines[4] == f"documents: {self.doc_count}", "document count")
        categories_per_doc: list[int] = []
        planned = None
        top_categories = 0
        for line in lines[:summary_at]:
            if line.startswith("document: "):
                categories_per_doc.append(0)
            elif line.startswith("  category: "):
                categories_per_doc[-1] += 1
            elif line.startswith("  node: "):
                match = self._NODE.search(line)
                require(match is not None, "malformed node line")
                comp, typicality = match.groups()
                expected = 0.0 if comp == "-" else self.supports[int(comp)] / self.norm_docs
                require(typicality == f"{expected:.10f}", f"typicality {typicality} is not support / doc_count")
            elif line.startswith("plan: categories="):
                planned = int(line.split("=", 1)[1])
            elif line.startswith("category: "):
                top_categories += 1
        require(len(categories_per_doc) == self.doc_count, "documents traced")
        require(all(count == 1 for count in categories_per_doc), "a document is not in exactly one category")
        bullets = lines[summary_at + 1:]
        require(planned == top_categories == len(bullets), "bullet count differs from instantiated categories")
        return {"trace": digest(text)}


WORKLOADS = {"build-norm": BuildNorm, "query-stream": QueryStream, "batch-audit": BatchAudit}


# --- measurement ---------------------------------------------------------------

def setup_sampler(code: str):
    """A function that returns the seconds one fresh interpreter takes to
    import the package plus the workload's one-time load."""
    script = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "start = time.perf_counter()\n"
        "import topicsift\n"
        f"{code}\n"
        "print(repr(time.perf_counter() - start))\n"
    )

    def sample() -> float:
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, cwd=ROOT, check=True
        )
        return float(done.stdout.strip().splitlines()[-1])

    return sample


# A fixed pure-Python loop of the kinds of work the program does: regex
# normalization, token-set Jaccard and dict inserts. It does not use the
# program, so a change to the program leaves it alone.
_REFERENCE_LABELS = [
    " ".join(f"Word{(i * 7 + j * 13) % 300}" for j in range(2 + i % 2)) + (":" if i % 5 == 0 else "")
    for i in range(400)
]
_TRAILING = re.compile(r"[:\s]+$")


def reference_loop() -> float:
    """Seconds one pass of the reference loop takes (about 25 ms)."""
    start = time.perf_counter()
    seen: dict[str, float] = {}
    for a in _REFERENCE_LABELS[:50]:
        tokens_a = set(_TRAILING.sub("", a.casefold()).split())
        for b in _REFERENCE_LABELS:
            tokens_b = set(_TRAILING.sub("", b.casefold()).split())
            seen[b] = max(seen.get(b, 0.0), len(tokens_a & tokens_b) / len(tokens_a | tokens_b))
    return time.perf_counter() - start


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, when that
    is at least the median."""
    if len(samples) < 20:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return 100 * (index + 1) // len(ordered), ordered[index]


class Run:
    """Operations attempted, failures, and output digests seen in one run."""

    def __init__(self, workload, expected: dict[str, str]) -> None:
        self.workload = workload
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0
        self.setup_ok = True

    def setup(self, wrap=contextlib.nullcontext) -> None:
        """The workload's one-time load and its checks; a failure makes the
        run incorrect, and the operations still run and count."""
        try:
            with wrap():
                self.workload.setup()
        except Exception as exc:  # reported like a failed operation
            self.setup_ok = False
            print(f"setup failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def timed(self, index: int, wrap=contextlib.nullcontext) -> float:
        self.attempted += 1
        elapsed = 0.0
        try:
            with wrap():
                start = time.perf_counter()
                try:
                    result = self.workload.op(index)
                finally:
                    elapsed = time.perf_counter() - start
            for key, value in self.workload.check(index, result).items():
                wanted = self.expected.setdefault(key, value)
                require(value == wanted, f"output {key} digest {value} != {wanted}")
        except Exception as exc:  # any failure of one operation counts, the run goes on
            self.failed += 1
            print(f"operation {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "topicsift" / "__init__.py").is_file():
        print(f"error: no topicsift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen_corpus
    import topicsift

    counter = capture_warnings()

    inputs = WORK / "inputs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    try:
        manifest = gen_corpus.generate(args.workload, args.seed, inputs)
        workload = WORKLOADS[args.workload](topicsift, inputs, manifest, args.seed)
        shipped = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        run = Run(workload, shipped.get(args.workload, {}).get(str(args.seed), {}))
        if args.trace:
            lines, metrics = traced_run(args, workload, run, counter)
        else:
            lines, metrics = timed_run(args, workload, run, counter)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": run.setup_ok and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def timed_run(args, workload, run: Run, counter: WarningCounter):
    sample_setup = setup_sampler(workload.setup_code)
    sample_setup()  # compiles the bytecode; not counted
    run.setup()
    # Other tenants of a shared host slow whole stretches of a run, by up to
    # 80% for seconds to minutes at a time. Each operation is therefore also
    # timed relative to the reference loop run just before and just after
    # it, and setup samples are spread over the run, between operations.
    setups: list[float] = []
    times: list[float] = []
    references = [reference_loop()]
    start = time.perf_counter()
    while not times or time.perf_counter() < start + args.seconds:
        times.append(run.timed(len(times)))
        references.append(reference_loop())
        if len(setups) < SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds:
            setups.append(sample_setup())
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(setups)
    relative = statistics.median(
        elapsed * 2 / (before + after) for elapsed, before, after in zip(times, references, references[1:])
    )

    name, scale, unit = OP_NAMES[args.workload]
    suffix = ".p50" if args.workload == "query-stream" else ""
    lines = [
        f"  setup_s {setup_s:.4f} s (median of {len(setups)} fresh interpreters)",
        f"  {name}{suffix} {statistics.median(times) * scale:.4f} {unit} (median of {len(times)} operations)",
    ]
    if args.workload == "query-stream":
        found = tail(times)
        if found is not None:
            pct, value = found
            lines.append(f"  query_ms.tail {value * 1000:.4f} ms (p{pct} of {len(times)} requests, 10 beyond)")
    lines += [
        f"  op_rel.p50 {relative:.4f} ratio (median of operation time / reference loop time;"
        f" the loop took {statistics.median(references) * 1000:.2f} ms)",
        f"  peak_rss_mb {peak_rss_mb:.1f} MB",
        f"  failed_ops {run.failed / run.attempted:g} ({run.failed} of {run.attempted})",
        f"  warnings captured: {counter.nomatch} query-matched-no-topic, {counter.other} other",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_rel.p50": (relative, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return lines, metrics


def traced_run(args, workload, run: Run, counter: WarningCounter):
    from tracer import Tracer

    tracer = Tracer()
    tracer.request = "setup"
    run.setup(tracer.install)
    ops = workload.trace_ops
    # each operation runs untraced and then traced, so that both timings
    # see the same stretch of a noisy host
    plain, traced = [], []
    logged = 0
    for index in range(ops):
        plain.append(run.timed(index))
        tracer.request = index
        before = counter.nomatch
        traced.append(run.timed(index, tracer.install))
        logged += counter.nomatch - before
    overhead_ms = statistics.median(t - p for t, p in zip(traced, plain)) * 1000
    metrics = tracer.metrics(ops, overhead_ms)
    if args.workload == "batch-audit":
        if logged != metrics["topic_typing.map_query.nomatch"][0]:
            run.failed += 1
            print(f"warning count {logged} != map_query no-match count", file=sys.stderr)
    spans = WORK / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    name, scale, unit = OP_NAMES[args.workload]
    lines = [
        f"  traced {ops} operations, each right after the same operation untraced; spans in {spans.relative_to(ROOT)}",
        f"  untraced {name} median {statistics.median(plain) * scale:.4f} {unit},"
        f" traced {statistics.median(traced) * scale:.4f} {unit}",
    ]
    lines += [f"  {metric} {value:.6g} {metric_unit}" for metric, (value, metric_unit) in metrics.items()]
    return lines, metrics


if __name__ == "__main__":
    sys.exit(main())
