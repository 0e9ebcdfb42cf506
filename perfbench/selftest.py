#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  Runs a short mode (one-second window) of
every workload, untraced and traced, through perfbench/run.py and asserts:

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, correct and without failures;
  * every metric BENCHMARK.json lists for the mode is emitted, with its
    unit, as a finite number, and nothing else is;
  * the untraced run reports the workload-specific figures, and every
    run records nproc, compiler, build type and commit;
  * each traced span tree has every child inside its parent and a
    non-negative self time (recomputed here from the trace file);
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits nonzero without printing a result.

Exits 0 when every assertion holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
SEED = 7

DETAILS = {
    "paper_study": ["study_s"],
    "yield_screen": ["formula_samples_per_s", "surrogate_samples_per_s"],
    "serve_mix": ["serve_rps", "serve_p50_ms", "serve_p90_ms",
                  "serve_warm_p50_ms", "serve_cold_p50_ms",
                  "restart_p50_ms"],
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what, file=sys.stderr)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def json_lines(stdout):
    out = []
    for line in stdout.splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            pass
    return out


def check_spans(path, tag):
    with open(path) as handle:
        spans = json.load(handle)["spans"]
    expect(spans, f"{tag}: trace file holds no spans")
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"]:
            parent = by_id.get(s["parent"])
            expect(parent is not None, f"{tag}: span {s['id']} lost its parent")
            if parent is None:
                continue
            expect(parent["start_ns"] <= s["start_ns"] <= s["end_ns"]
                   <= parent["end_ns"],
                   f"{tag}: span {s['name']} not covered by {parent['name']}")
            children.setdefault(s["parent"], []).append(s)
    for s in spans:
        covered, reach = 0, s["start_ns"]
        for lo, hi in sorted((c["start_ns"], c["end_ns"])
                             for c in children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end_ns"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_ns = s["end_ns"] - s["start_ns"] - covered
        expect(self_ns >= 0 and s["self_ns"] >= 0,
               f"{tag}: span {s['name']} has negative self time")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    listed = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    expect([w["name"] for w in bench["workloads"]] == list(DETAILS),
           "BENCHMARK.json workloads differ from the self-test's")

    for workload in DETAILS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            proc = run(workload, trace)
            lines = json_lines(proc.stdout)
            expect(proc.returncode == 0,
                   f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
            if not lines:
                expect(False, f"{tag}: no JSON output")
                continue
            result = lines[-1]
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   f"{tag}: run not clean: {proc.stderr[-2000:]}")
            metrics = result.get("metrics", {})
            expect(set(metrics) == set(listed[trace]),
                   f"{tag}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(metrics) ^ set(listed[trace]))}")
            for name, unit in listed[trace].items():
                m = metrics.get(name, {})
                expect(m.get("unit") == unit,
                       f"{tag}: {name} unit {m.get('unit')} != {unit}")
                value = m.get("value")
                expect(isinstance(value, (int, float))
                       and math.isfinite(value),
                       f"{tag}: {name} value {value!r}")
            env = next((l["env"] for l in lines if "env" in l), {})
            expect(all(env.get(k) for k in ("nproc", "compiler", "build_type",
                                            "commit")),
                   f"{tag}: environment record incomplete: {env}")
            if trace:
                check_spans(os.path.join(
                    BUILD, "work", f"trace-{workload}-{SEED}.json"), tag)
            else:
                detail = next((l["detail"] for l in lines if "detail" in l),
                              {})
                for name in DETAILS[workload] + ["failed_ratio"]:
                    expect(name in detail, f"{tag}: detail {name} missing")

    bare = os.path.join(BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("paper_study", 0, cwd=bare)
    expect(proc.returncode != 0 and not json_lines(proc.stdout),
           "bare benchmark directory did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "ok",
          f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
