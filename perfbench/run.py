"""Benchmark entry point.

    python3 perfbench/run.py --workload tn-compile-eval --seed 1 --seconds 50 --trace 0

Run from the root of a checkout of the repository: the program is
imported from ./src, never from an installed copy.  Prints every
metric by name with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones from a traced run
(spans are written to .perfbench_out/).  Exits 2 without a result when
the program's source is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tn-compile-eval", "random-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bimc", "__init__.py")):
        print(f"error: no bimc source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bimc

    if os.path.dirname(os.path.abspath(bimc.__file__)) != os.path.join(SRC, "bimc"):
        print(f"error: imported bimc from {bimc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracing import absent_hooks, write_spans

    metrics, outcome, tracers = workloads.run(args.workload, args.seed, args.seconds, args.trace)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{'error_rate':40s} {error_rate:16.6f} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for note in outcome.notes:
        print(note)
    if tracers:
        for hook in absent_hooks():
            print(f"hook absent (not a failure): {hook}")
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
        write_spans(path, tracers)
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
