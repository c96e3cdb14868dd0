#!/usr/bin/env python3
"""The benchmark's own test: runs every workload of BENCHMARK.json in smoke
mode (tiny sizes), untraced and traced, and checks each result line against
the contract — exact keys, correct == true, the metric names and units
BENCHMARK.json lists, a trace file that parses as Chrome trace-event JSON —
and that the same seed yields the same rows twice.

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True


def run(bench, workload, seed, trace):
    args = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", "1", "--trace", str(trace), "--smoke"]
    got = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if got.returncode != 0:
        raise AssertionError(f"exit {got.returncode}: {got.stderr[-1500:]}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def check_result(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, result["failed"]
    assert set(result["metrics"]) == {m["name"] for m in expected}, \
        set(result["metrics"]) ^ {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == metric["unit"], (metric["name"], got)
        assert isinstance(got["value"], (int, float)), (metric["name"], got)


def check_trace(workload):
    with open(os.path.join(".bench_out", f"trace-{workload}.json")) as f:
        events = json.load(f)["traceEvents"]
    assert events, "empty trace"
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0 and "parent" in e["args"], e
    names = {e["name"].split(".")[0] for e in events}
    assert {"graph", "core", "scenario", "congest"} <= names, names


def summary_digests(workload, seed):
    path = os.path.join(".bench_out", f"summary-{workload}-seed{seed}-trace0.json")
    with open(path) as f:
        return json.load(f)["workloads"][workload]["digests"]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            try:
                check_result(run(bench, workload, 7, trace), expected)
                if trace:
                    check_trace(workload)
                else:
                    first = summary_digests(workload, 7)
                    run(bench, workload, 7, 0)
                    assert summary_digests(workload, 7) == first, "rows differ on re-run"
                print(f"ok   {workload} trace={trace}")
            except AssertionError as error:
                failures += 1
                print(f"FAIL {workload} trace={trace}: {error}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
