"""Record benchmark runs in a BENCH_<rev>.json file, and compare two files.

    python3 tools/benchfile.py record --seeds 1 2 3
    python3 tools/benchfile.py compare OLD NEW

Run from anywhere inside a checkout; both commands act on the checkout
this script belongs to.

record runs perfbench/run.py once per workload of BENCHMARK.json and
seed, with --trace 0 for BENCHMARK.json's run_seconds (the run length
is not an option: files recorded under one BENCHMARK.json hold runs of
one length), and keeps each run's last output line together with the
Python version, core count, seed, seconds, revision and date.  It also
keeps the rows of `bimc bench-tn --max-n 8 --format csv`, the paper's
size table.  It writes BENCH_<short rev>.json at the root of the
checkout, and refuses to run when tracked files differ from that
revision, since the file would then name code it did not measure.

compare prints, for each workload and end-to-end metric, the median
over the runs of each file and the relative change, and flags each
change that is worse than the metric's bound in BENCHMARK.json.  A
metric found in one file only is reported as new or gone.  It exits 1
on a flagged metric, on a bench-tn row whose counts differ (build_ms
is not compared), and on a run in either file that failed an operation
or is not correct.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_TN = ("bench-tn", "--max-n", "8", "--format", "csv")
UNTIMED_TN = "build_ms"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _output(argv) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def record(seeds) -> Path:
    """Run the benchmark at each seed and write BENCH_<rev>.json; its path."""
    if _git("status", "--porcelain", "--untracked-files=no"):
        raise SystemExit("error: tracked files differ from HEAD; commit them before recording")
    spec = benchmark_spec()
    seconds = spec["run_seconds"]
    rev = _git("rev-parse", "--short", "HEAD")
    runs = []
    for seed in seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            print(f"== {workload} seed {seed}", file=sys.stderr)
            out = _output(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"])
            runs.append({
                "workload": workload, "seed": seed, "seconds": seconds,
                "python": platform.python_version(), "cores": os.cpu_count(), "revision": rev,
                "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
                "result": json.loads(out.splitlines()[-1]),
            })
    rows = list(csv.DictReader(io.StringIO(_output(["-m", "bimc", *BENCH_TN]))))
    path = ROOT / f"BENCH_{rev}.json"
    path.write_text(json.dumps({"revision": rev, "runs": runs, "bench_tn": rows}, indent=1) + "\n",
                    encoding="utf-8")
    return path


def _medians(bench: dict, workload: str) -> dict:
    values = {}
    for run in bench["runs"]:
        if run["workload"] == workload:
            for name, m in run["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def compare(old: dict, new: dict, spec: dict):
    """(lines, flags): a report line per workload and end-to-end metric,
    then one line per bench-tn difference and bad run, and the number of
    flagged lines among them."""
    lines, flags = [], 0
    for workload in (w["name"] for w in spec["workloads"]):
        before, after = _medians(old, workload), _medians(new, workload)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = before.get(name), after.get(name)
            if a is None or b is None:
                state = "absent" if a == b else "new" if a is None else "gone"
                lines.append(f"{workload:16s} {name:28s} {state}")
                continue
            if a:
                delta = (b - a) / a
            else:  # a listed metric reads 0 only when broken: any change is unbounded
                delta = 0.0 if b == a else math.copysign(math.inf, b - a)
            worse = -delta if metric["better"] == "higher" else delta
            flag = worse > bound
            flags += flag
            lines.append(f"{workload:16s} {name:28s} {a:14.6g} {b:14.6g} {delta:+8.1%}"
                         + (f"  WORSE than its bound {bound:.0%}" if flag else ""))
    keyed = [{(r["n"], r["method"]): {k: v for k, v in r.items() if k != UNTIMED_TN}
              for r in bench["bench_tn"]} for bench in (old, new)]
    for key in sorted(keyed[0].keys() | keyed[1].keys(), key=lambda k: (int(k[0]), k[1])):
        if keyed[0].get(key) != keyed[1].get(key):
            flags += 1
            lines.append(f"bench-tn n={key[0]} {key[1]} changed: {keyed[0].get(key)} -> {keyed[1].get(key)}")
    for label, bench in (("old", old), ("new", new)):
        for run in bench["runs"]:
            result = run["result"]
            if result["failed"] or result["correct"] is not True:
                flags += 1
                lines.append(f"{label} {run['workload']} seed {run['seed']}: "
                             f"{result['failed']} of {result['attempted']} operations failed, "
                             f"correct {result['correct']}")
    return lines, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the benchmark and write BENCH_<rev>.json")
    rec.add_argument("--seeds", type=int, nargs="+", required=True)
    cmp_ = sub.add_parser("compare", help="compare two BENCH files")
    cmp_.add_argument("old", type=Path)
    cmp_.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        print(record(args.seeds))
        return 0
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (args.old, args.new))
    lines, flags = compare(old, new, benchmark_spec())
    print(f"{'workload':16s} {'metric':28s} {old['revision']:>14s} {new['revision']:>14s}   delta")
    print("\n".join(lines))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
