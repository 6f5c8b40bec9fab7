"""Record the output digests that run.py checks for the shipped seeds.

For each seed it generates the workload's inputs and runs every distinct
operation once: the build (composite bytes), each query-stream request kind
(summary text) and the batch-audit CLI run (trace output). The digests must
come from a commit whose outputs are known to be right; re-record only when
a change alters outputs on purpose.

Usage: python3 bench/record_digests.py WORKLOAD FIRST_SEED LAST_SEED
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def record(workload_name: str, seed: int) -> dict[str, str]:
    import gen_corpus
    import topicsift

    inputs = run.WORK / "inputs" / f"record-{workload_name}-seed{seed}"
    shutil.rmtree(inputs, ignore_errors=True)
    try:
        manifest = gen_corpus.generate(workload_name, seed, inputs)
        workload = run.WORKLOADS[workload_name](topicsift, inputs, manifest, seed)
        workload.setup()
        if workload_name == "query-stream":
            digests: dict[str, str] = {}
            for kind in range(len(workload.requests)):
                digests.update(workload.check(kind, workload.request(kind)))
            return digests
        return workload.check(0, workload.op(0))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(run.WORKLOADS))
    parser.add_argument("first_seed", type=int)
    parser.add_argument("last_seed", type=int)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    run.capture_warnings()
    recorded = {str(seed): record(args.workload, seed) for seed in range(args.first_seed, args.last_seed + 1)}
    shipped = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.is_file() else {}
    shipped.setdefault(args.workload, {}).update(recorded)
    for name in shipped:
        shipped[name] = dict(sorted(shipped[name].items(), key=lambda item: int(item[0])))
    run.DIGESTS.write_text(json.dumps(dict(sorted(shipped.items())), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
