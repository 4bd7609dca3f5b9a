"""tools/benchfile.py: the committed BENCH files, and what compare flags."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchfile", ROOT / "tools" / "benchfile.py")
benchfile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchfile)

SPEC = benchfile.benchmark_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
TN_ROW = {"n": "1", "method": "mge", "left_states": "3", "right_states": "3",
          "intermediate_states": "", "psi_entries": "8", "build_ms": "0.5"}


def check_complete(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{bench['revision']}.json"
    assert {run["workload"] for run in bench["runs"]} == set(WORKLOADS), path.name
    for run in bench["runs"]:
        assert {"seed", "seconds", "python", "cores", "date"} <= run.keys()
        assert run["revision"] == bench["revision"]
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, (path.name, run["seed"])
        assert METRICS.keys() <= result["metrics"].keys(), (path.name, run["workload"])
    assert {(r["n"], r["method"]) for r in bench["bench_tn"]} >= {("8", "mge"), ("7", "classical")}
    return bench


def test_committed_bench_files_are_complete():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        check_complete(path)


def test_record_writes_a_complete_file_and_refuses_a_dirty_tree(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    monkeypatch.setattr(benchfile, "ROOT", tmp_path)
    tree = {"status": "", "rev-parse": "abc1234"}
    monkeypatch.setattr(benchfile, "_git", lambda *args: tree[args[0]])
    runs = []

    def output(argv):  # what perfbench/run.py and bimc bench-tn print
        if argv[0] == "-m":
            assert argv[2:] == list(benchfile.BENCH_TN)
            return ("n,method,left_states,right_states,intermediate_states,psi_entries,build_ms\n"
                    "7,classical,3,3,3,8,0.5\n8,mge,3,3,,8,0.5\n")
        runs.append(argv)
        metrics = {name: {"value": 1.5, "unit": m["unit"]} for name, m in METRICS.items()}
        return "a progress line\n" + json.dumps(
            {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}) + "\n"

    monkeypatch.setattr(benchfile, "_output", output)
    assert benchfile.main(["record", "--seeds", "1", "2"]) == 0
    path = tmp_path / "BENCH_abc1234.json"
    assert capsys.readouterr().out == f"{path}\n"
    bench = check_complete(path)
    assert [(run["workload"], run["seed"]) for run in bench["runs"]] == [
        (w, seed) for seed in (1, 2) for w in WORKLOADS]
    seconds = str(SPEC["run_seconds"])
    assert all(argv[-4:] == ["--seconds", seconds, "--trace", "0"] for argv in runs)
    assert {run["seconds"] for run in bench["runs"]} == {SPEC["run_seconds"]}
    assert bench["runs"][0]["result"]["metrics"]["setup_s"]["value"] == 1.5
    assert bench["bench_tn"][1] == {**TN_ROW, "n": "8"}
    # a changed tracked file: refused before anything runs or is written
    path.unlink()
    runs.clear()
    tree["status"] = " M src/bimc/bimachine.py"
    with pytest.raises(SystemExit, match="commit them before recording"):
        benchfile.record([1])
    assert not runs and not path.exists()


def synthetic(rev, value, failed=0, rows=(TN_ROW,)):
    """A BENCH file whose runs at seeds 1..3 read value(workload, metric)
    times 0.5, 1 and 3, so each median is value itself."""
    runs = [
        {"workload": w, "seed": seed, "result": {
            "correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value(w, name) * f, "unit": m["unit"]}
                        for name, m in METRICS.items()}}}
        for w in WORKLOADS for seed, f in ((1, 0.5), (2, 1.0), (3, 3.0))
    ]
    return {"revision": rev, "runs": runs, "bench_tn": list(rows)}


def moved(name, past):
    """100 moved in the worse direction by its bound plus past."""
    m = METRICS[name]
    step = m["bound"] + past
    return 100 * (1 - step if m["better"] == "higher" else 1 + step)


def test_compare_flags_exactly_the_changes_past_their_bounds(tmp_path, capsys):
    old = synthetic("old", lambda w, name: 100.0)
    # every metric worse by a hair more than its bound on the first
    # workload, by a hair less on the second
    new = synthetic("new", lambda w, name: moved(name, 0.01 if w == WORKLOADS[0] else -0.01))
    lines, flags = benchfile.compare(old, new, SPEC)
    flagged = {tuple(line.split()[:2]) for line in lines if "WORSE" in line}
    assert flagged == {(WORKLOADS[0], name) for name in METRICS}
    assert flags == len(METRICS) and len(lines) == len(WORKLOADS) * len(METRICS)
    # far better on every metric is no flag
    better = synthetic("new", lambda w, name: moved(name, -0.9))
    assert benchfile.compare(old, better, SPEC)[1] == 0
    # the command line exits 1 on a flag, 0 otherwise
    for name, bench in (("old", old), ("new", new), ("better", better)):
        (tmp_path / name).write_text(json.dumps(bench), encoding="utf-8")
    assert benchfile.main(["compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert benchfile.main(["compare", str(tmp_path / "old"), str(tmp_path / "better")]) == 0
    assert "WORSE" in capsys.readouterr().out


def test_compare_flags_counts_and_failures_but_not_renames():
    old = synthetic("old", lambda w, name: 100.0)
    renamed = synthetic("new", lambda w, name: 100.0)
    for run in renamed["runs"]:
        run["result"]["metrics"]["setup_seconds"] = run["result"]["metrics"].pop("setup_s")
    lines, flags = benchfile.compare(old, renamed, SPEC)
    assert flags == 0
    assert sum(line.split()[1:] == ["setup_s", "gone"] for line in lines) == len(WORKLOADS)
    lines, flags = benchfile.compare(renamed, old, SPEC)
    assert flags == 0
    assert sum(line.split()[1:] == ["setup_s", "new"] for line in lines) == len(WORKLOADS)
    # build_ms is a timing, every other bench-tn column a count
    slower = synthetic("new", lambda w, name: 100.0, rows=[{**TN_ROW, "build_ms": "9.0"}])
    assert benchfile.compare(old, slower, SPEC)[1] == 0
    grown = synthetic("new", lambda w, name: 100.0, rows=[{**TN_ROW, "psi_entries": "9"}])
    lines, flags = benchfile.compare(old, grown, SPEC)
    assert flags == 1 and lines[-1].startswith("bench-tn n=1 mge changed")
    gone = synthetic("new", lambda w, name: 100.0, rows=[])
    assert benchfile.compare(old, gone, SPEC)[1] == 1
    # a failed operation flags every run it shows in
    failing = synthetic("new", lambda w, name: 100.0, failed=1)
    lines, flags = benchfile.compare(old, failing, SPEC)
    assert flags == 3 * len(WORKLOADS) and "1 of 10 operations failed" in lines[-1]
