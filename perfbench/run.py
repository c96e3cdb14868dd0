#!/usr/bin/env python3
"""Benchmark of the sweep CLI (powergraph_cli): four workloads, end-to-end
metrics measured from outside the process, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload congest-powerlaw --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --workload implicit-powerlaw --seed 1 --seconds 1 --trace 0 --smoke

The program is built from source first (CMake, Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench).  Every input
is generated from --seed; the CLI receives only the generated inputs (its
--seeds list and, for implicit-powerlaw, an imported edge list).  The load is
closed-loop: one sweep process at a time, each waited for before the next.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same cells
through the tracer (perfbench/pg_trace.cpp), writes a Chrome
trace-event file and prints the per-layer metrics derived from it.  Either
way the last stdout line is one JSON object: correct, attempted, failed,
metrics.  A full summary (provenance, every sample, every layer metric) goes
to .bench_out/.  See perfbench/NOTES.md for the rationale.
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

BENCH_DIR = "perfbench"
BUILD_DIR = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
TMP_ROOT = ".bench_tmp"
OUT_DIR = ".bench_out"
CLI = os.path.join(BUILD_DIR, "repo", "powergraph_cli")
TRACER = os.path.join(BUILD_DIR, "pg_trace")
MEASURE = os.path.join(BUILD_DIR, "pg_measure")

PROCESS_TIMEOUT_S = 150      # no single sweep may run longer than this
MIN_REPS = 3                 # measured batches per workload, at least
BATCH_S = 2.5                # a batch repeats the sweep for at least this long
SETUP_REPS = 31              # set-up repetitions per run (median reported)
PROBE_ROUNDS = 200           # timed rounds per probe kind and thread count

ALGORITHMS = ("clique-mvc,gr-mvc,gr-mwvc,matching,mds,mvc,mvc-rand,mvc53,"
              "mwvc,naive-mds,naive-mvc")
ORACLE_SCENARIOS = "ba,chung-lu,geo-torus,gnp-sparse,planted,regular-4,tree,grid"
ORACLE_CELLS_PER_GROUP = 30  # the 11 algorithms x powers 2,3,4 x unit,zipf

# Workload sizes.  `smoke` is the tiny form the benchmark's own tests run.
SIZES = {
    False: {"congest_n": 1000, "congest_seeds": 4, "implicit_n": 12000,
            "oracle_sizes": "24,32,40,48,56,64", "oracle_seeds": 2},
    True: {"congest_n": 150, "congest_seeds": 1, "implicit_n": 4000,
           "oracle_sizes": "24,32", "oracle_seeds": 1},
}


def reported_metrics():
    """(name, unit) of the end-to-end and per-layer metrics BENCHMARK.json
    names: the result line carries exactly these."""
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except OSError:
        return [], []
    return ([(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(m["name"], m["unit"]) for m in bench["per_layer"]])


END_TO_END, PER_LAYER_REPORTED = reported_metrics()


# ----------------------------------------------------------------- helpers --

def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def derived_seeds(key, seed, count):
    """`count` CLI seeds derived from the workload seed (same seed, same list)."""
    rng = random.Random(f"{key}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Sample:
    """One finished process: wall time and the rusage of its whole tree."""

    def __init__(self, wall_s, cpu_s, rss_mb, code):
        self.wall_s, self.cpu_s, self.rss_mb, self.code = wall_s, cpu_s, rss_mb, code


def run_process(args):
    """Runs `args` to completion under pg_measure (see pg_measure.cpp), which
    times it from outside and reports the rusage of its whole process tree.
    stdout is discarded, stderr kept for diagnostics."""
    result = os.path.join(TMP_ROOT, "measure.txt")
    with open(os.path.join(TMP_ROOT, "last-stderr.txt"), "wb") as stderr:
        code = subprocess.run([MEASURE, result, str(PROCESS_TIMEOUT_S)] + args,
                              stdout=subprocess.DEVNULL, stderr=stderr,
                              timeout=PROCESS_TIMEOUT_S + 10).returncode
    if code != 0:
        fail("pg_measure failed: " + last_stderr())
    with open(result) as f:
        wall, cpu, maxrss_kb, exit_code = f.read().split()
    return Sample(float(wall), float(cpu), int(maxrss_kb) / 1024.0, int(exit_code))


def last_stderr():
    with open(os.path.join(TMP_ROOT, "last-stderr.txt"), errors="replace") as f:
        return f.read()[-2000:]


# ------------------------------------------------------------------- build --

def build():
    """Configures once, then builds incrementally; exits 2 when the source
    tree is missing or does not build."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt")):
        fail("run from the repository root (perfbench/CMakeLists.txt not found)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD_DIR, "-j", "4",
                "--target", "powergraph_cli", "pg_trace", "pg_measure"]

    def run_steps(steps):
        with open(log_path, "ab") as log:
            return all(subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode == 0
                       for step in steps)

    open(log_path, "wb").close()
    # An incremental build against a stale configuration (a target added
    # since) fails once; configuring again fixes that.
    if os.path.isfile(cache) and run_steps([compile_]):
        return
    if run_steps([configure, compile_]):
        return
    with open(log_path, errors="replace") as f:
        sys.stderr.write(f.read()[-3000:])
    if os.path.exists(cache):
        os.remove(cache)  # a failed configure must not be skipped next time
    fail("build failed; log in " + log_path)


def provenance(seconds):
    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(("CMAKE_BUILD_TYPE:", "CMAKE_CXX_COMPILER:")):
                    key, _, value = line.strip().partition("=")
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "examples", BENCH_DIR):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "cxx_compiler": cache.get("CMAKE_CXX_COMPILER", "unknown"),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seconds": seconds,
        "python": sys.version.split()[0],
    }


# ------------------------------------------------------------------ inputs --

def chung_lu_edges(n, seed, exponent=2.5, average_degree=4.0):
    """Chung-Lu random graph: expected degrees ~ (i+1)^(-1/(exponent-1)),
    n*average_degree/2 endpoint pairs drawn by weight; self-loops and
    duplicates dropped."""
    rng = random.Random(seed)
    power = 1.0 / (exponent - 1.0)
    cumulative = list(itertools.accumulate((i + 1) ** -power for i in range(n)))
    pairs = int(n * average_degree / 2)
    ends = rng.choices(range(n), cum_weights=cumulative, k=2 * pairs)
    edges = {(min(u, v), max(u, v)) for u, v in zip(ends[0::2], ends[1::2]) if u != v}
    return sorted(edges)


def parse_rows(path):
    with open(path, newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines))


def row_ok(row):
    """Every sweep runs with --certify, so a row without the certified
    column fails."""
    return (row["status"] == "ok" and row["feasible"] == "1"
            and row.get("certified") == "yes")


def digest_rows(rows):
    """sha256 over every column.  The sweeps run without --timing, so the
    CLI writes no wall-clock column and every column is deterministic."""
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(row.values()).encode())
        h.update(b"\n")
    return h.hexdigest()


# --------------------------------------------------------------- workloads --

class Workload:
    """One named workload: its inputs, its sweep command, and the samples
    and checks gathered while it runs."""

    def __init__(self, name, seed, smoke):
        self.name, self.seed = name, seed
        self.size = SIZES[smoke]
        self.tmp = os.path.join(TMP_ROOT, f"{name}-{seed}")
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)
        self.samples = []        # one per batch (trace runs: the one CLI sweep)
        self.sweeps = []         # every measured sweep
        self.setup_samples = []
        self.attempted = 0
        self.failed = 0
        self.digests = {}        # variant -> first digest seen
        self.checks = []         # (name, ok, detail)
        self.totals = None       # deterministic sums of the measured rows

    # Inputs and commands -----------------------------------------------------

    def congest_args(self):
        seeds = derived_seeds("congest", self.seed, self.size["congest_seeds"])
        return ["--scenarios", "chung-lu,ba", "--algorithms", "mvc,mds,matching",
                "--sizes", str(self.size["congest_n"]),
                "--seeds", ",".join(map(str, seeds)), "--certify"]

    def probe_args(self):
        """congest-powerlaw's chung-lu topology (its first group)."""
        seed = derived_seeds("congest", self.seed, self.size["congest_seeds"])[0]
        return ["--n", str(self.size["congest_n"]), "--seed", str(seed)]

    def prepare(self):
        """Generates the inputs and measures set-up (SETUP_REPS times)."""
        if self.name == "implicit-powerlaw":
            edges = chung_lu_edges(self.size["implicit_n"],
                                   derived_seeds("implicit", self.seed, 1)[0])
            edge_list = os.path.join(self.tmp, "chung-lu.txt")
            with open(edge_list, "w") as f:
                f.write("".join(f"{u} {v}\n" for u, v in edges))
            self.pgcsr = os.path.join(self.tmp, "chung-lu.pgcsr")
            for _ in range(SETUP_REPS):
                sample = run_process([CLI, "import", edge_list, self.pgcsr])
                if sample.code != 0:
                    fail("import failed: " + last_stderr())
                self.setup_samples.append(sample.wall_s)
            text = last_stderr()
            self.implicit_n = int(text.split("n = ")[1].split(",")[0])
        else:
            # Nothing to import: set-up is the CLI's own start-up.
            for _ in range(SETUP_REPS):
                sample = run_process([CLI, "list-scenarios"])
                if sample.code != 0:
                    fail("powergraph_cli does not start: " + last_stderr())
                self.setup_samples.append(sample.wall_s)

    def sweep_args(self, variant="measured"):
        """The workload's sweep flags.  `reference` is the serial form whose
        rows the measured form must reproduce byte for byte."""
        if self.name in ("congest-powerlaw", "congest-parallel"):
            args = self.congest_args()
            if self.name == "congest-parallel" and variant == "measured":
                args += ["--congest-threads", "2"]
            return args
        if self.name == "implicit-powerlaw":
            return ["--scenarios", f"file:{self.pgcsr},ba", "--sizes", str(self.implicit_n),
                    "--algorithms", "gr-mvc,gr-mwvc", "--powers", "2,3",
                    "--weights", "zipf", "--certify"]
        seeds = derived_seeds("oracle", self.seed, self.size["oracle_seeds"])
        args = ["--scenarios", ORACLE_SCENARIOS, "--algorithms", ALGORITHMS,
                "--sizes", self.size["oracle_sizes"], "--powers", "2,3,4",
                "--seeds", ",".join(map(str, seeds)), "--weights", "unit,zipf",
                "--exact-max-n", "64", "--certify",
                "--journal", os.path.join(self.tmp, "journal-" + variant)]
        if variant == "measured":
            args += ["--spawn", "2"]
        return args

    def expected_cells(self):
        if self.name.startswith("congest"):
            return 2 * 3 * self.size["congest_seeds"]
        if self.name == "implicit-powerlaw":
            return 8
        groups = (len(ORACLE_SCENARIOS.split(",")) * len(self.size["oracle_sizes"].split(","))
                  * self.size["oracle_seeds"])
        return groups * ORACLE_CELLS_PER_GROUP

    def has_reference(self):
        return self.name in ("congest-parallel", "oracle-grid")

    # Running -----------------------------------------------------------------

    def clear_journal(self, variant):
        shutil.rmtree(os.path.join(self.tmp, "journal-" + variant), ignore_errors=True)

    def check_rows(self, variant, sample, csv_path):
        """Counts the sweep's cells into attempted/failed and records the
        digest of its deterministic columns.  Returns the parsed rows."""
        expected = self.expected_cells()
        self.attempted += expected
        rows = parse_rows(csv_path) if sample.code == 0 and os.path.exists(csv_path) else []
        if sample.code != 0:
            self.failed += expected
            self.checks.append((f"{variant} exit code", False,
                                f"exit {sample.code}: {last_stderr().strip()[-300:]}"))
            return rows
        good = sum(1 for row in rows if row_ok(row))
        self.failed += expected - min(good, expected)
        if len(rows) != expected:
            self.checks.append((f"{variant} row count", False,
                                f"{len(rows)} rows, expected {expected}"))
        digest = digest_rows(rows)
        first = self.digests.setdefault(variant, digest)
        if first != digest:
            self.checks.append((f"{variant} digest repeats", False, f"{first} != {digest}"))
        return rows

    def run_sweep(self, variant):
        self.clear_journal(variant)
        csv_path = os.path.join(self.tmp, f"rows-{variant}.csv")
        if os.path.exists(csv_path):
            os.remove(csv_path)
        sample = run_process([CLI, "sweep"] + self.sweep_args(variant) + ["--csv", csv_path])
        return sample, self.check_rows(variant, sample, csv_path)

    def warm_up(self):
        """One discarded sweep, so the page cache holds the binary and the
        .pgcsr file.  Workloads with a serial twin run the twin here: its
        rows are the reference the measured form must reproduce."""
        self.run_sweep("reference" if self.has_reference() else "measured")

    def measure_batch(self, batch_s):
        """One sample: the sweep repeated for at least `batch_s` seconds.
        Its wall and CPU time are the per-sweep means of the batch and its
        RSS the batch's peak.  On a host whose speed flips between a fast
        and a slow state every few seconds, a median over single sweeps
        jumps between the two states; over batch means it does not."""
        sweeps = []
        while not sweeps or sum(s.wall_s for s in sweeps) < batch_s:
            sample, rows = self.run_sweep("measured")
            sweeps.append(sample)
            if self.totals is None and rows:
                self.totals = totals_of(rows)
        self.sweeps += sweeps
        self.samples.append(Sample(statistics.mean(s.wall_s for s in sweeps),
                                   statistics.mean(s.cpu_s for s in sweeps),
                                   max(s.rss_mb for s in sweeps), 0))

    def finish_checks(self):
        if self.has_reference():
            ref, got = self.digests.get("reference"), self.digests.get("measured")
            label = ("congest-threads 2 rows equal serial (congest-powerlaw) rows"
                     if self.name == "congest-parallel" else "spawn 2 rows equal serial rows")
            self.checks.append((label, ref is not None and ref == got, f"{ref} vs {got}"))

    def correct(self):
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)

    def end_to_end(self):
        """Median, quartiles and sample count of every end-to-end metric."""
        series = {
            "wall_s": [s.wall_s for s in self.samples],
            "cpu_s": [s.cpu_s for s in self.samples],
            "peak_rss_mb": [s.rss_mb for s in self.samples],
            "setup_s": self.setup_samples,
        }
        out = {}
        for name, unit in END_TO_END:
            if name in series:
                q1, median, q3 = quartiles(series[name])
                out[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                             "samples": len(series[name])}
            else:
                value = (self.totals or {}).get(name, 0.0)
                out[name] = {"value": value, "unit": unit, "q1": value, "q3": value,
                             "samples": len(self.samples)}
        return out


def totals_of(rows):
    """Deterministic sums over one sweep's rows."""
    def mean(values):
        return sum(values) / len(values) if values else 0.0
    return {
        "rounds": sum(int(r["rounds"]) for r in rows),
        "messages": sum(int(r["messages"]) for r in rows),
        "bits": sum(int(r["total_bits"]) for r in rows),
        "ratio_mean": mean([float(r["ratio"]) for r in rows if r["baseline"] != "none"]),
        "ratio_weight_mean": mean([float(r["ratio_weight"]) for r in rows
                                   if r["weight_baseline"] != "none"]),
        "cells": len(rows),
    }


# ------------------------------------------------------------- traced run --

LAYERS = ("graph", "congest", "core", "solvers", "scenario")
CORE_ALGORITHMS = ALGORITHMS.split(",")
FIELDS_TO_MATCH = ("solution_size", "rounds", "messages", "total_bits", "target_edges",
                   "baseline_size", "baseline_weight")


def percentile(values, q):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(events, traced_wall_s, cli_wall_s):
    """Every per-layer metric, derived from the trace events alone.  Self
    time = a span's duration minus the durations of its child spans."""
    sweep = [e for e in events if e["pid"] == 1]
    child_time = {}
    for e in sweep:
        parent = e["args"]["parent"]
        child_time[parent] = child_time.get(parent, 0.0) + e["dur"]
    self_us = {}
    for e in sweep:
        own = e["dur"] - child_time.get(e["args"]["id"], 0.0)
        self_us[e["name"]] = self_us.get(e["name"], 0.0) + own

    def ms(name):
        return self_us.get(name, 0.0) / 1000.0

    def arg_sum(prefix, key):
        return sum(e["args"].get(key, 0.0) for e in sweep if e["name"].startswith(prefix))

    m = {}
    for name in ("graph.build", "graph.map", "graph.power", "graph.target_edges",
                 "graph.feasible", "graph.classify", "congest.net_setup",
                 "solvers.exact", "solvers.greedy", "solvers.weighted",
                 "scenario.weights", "scenario.certify", "scenario.report",
                 "scenario.journal", "scenario.merge", "scenario.spawn_plan"):
        m[name + "_ms"] = ms(name)
    for alg in CORE_ALGORITHMS:
        m[f"core.{alg}_ms"] = ms("core." + alg)
    for layer in LAYERS:
        m[layer + ".total_ms"] = sum(v for k, v in self_us.items()
                                     if k.startswith(layer + ".")) / 1000.0
    congest_cells = [e for e in sweep if e["name"].startswith("core.")
                     and e["args"].get("rounds", 0) > 0]
    rounds = sum(e["args"]["rounds"] for e in congest_cells)
    messages = arg_sum("core.", "messages")
    m["congest.rounds"] = arg_sum("core.", "rounds")
    m["congest.messages"] = messages
    m["congest.bits"] = arg_sum("core.", "bits")
    m["congest.round_us"] = sum(e["dur"] for e in congest_cells) / rounds if rounds else 0.0
    m["congest.msgs_per_round"] = messages / rounds if rounds else 0.0
    m["graph.power_edges"] = arg_sum("graph.power", "edges")
    m["graph.target_edges"] = arg_sum("graph.target_edges", "edges")
    exact = [e for e in sweep if e["name"] == "solvers.exact"]
    m["solvers.exact_nodes"] = sum(e["args"]["nodes"] for e in exact)
    m["solvers.exact_attempts"] = len(exact)
    m["solvers.exact_optimal_frac"] = (sum(e["args"]["optimal"] for e in exact) / len(exact)
                                       if exact else 0.0)
    cells = [e["dur"] / 1000.0 for e in sweep if e["name"] == "cell"]
    m["scenario.cells"] = len(cells)
    m["scenario.cell_ms_p50"] = percentile(cells, 0.50)
    m["scenario.cell_ms_p99"] = percentile(cells, 0.99)
    m["scenario.report_bytes"] = arg_sum("group", "report_bytes")
    m["scenario.journal_bytes"] = arg_sum("group", "journal_bytes")
    m["scenario.fsyncs"] = arg_sum("scenario.journal", "fsyncs")

    probes = {}
    for e in events:
        if e["pid"] == 2 and e["name"].startswith("congest.probe."):
            probes.setdefault(e["name"], []).append(e["dur"])
    for name, durs in probes.items():
        _, _, kind, threads = name.split(".")
        suffix = "" if threads == "t1" else "_" + threads
        m[f"congest.probe_{kind}{suffix}_us"] = statistics.median(durs)

    layer_self_s = sum(v for k, v in self_us.items() if k.split(".")[0] in LAYERS) / 1e6
    m["trace.wall_s"] = traced_wall_s
    m["trace.coverage"] = layer_self_s / traced_wall_s
    m["trace.overhead_frac"] = traced_wall_s / cli_wall_s - 1.0
    return m


def traced_run(w):
    """Runs the CLI once (warm) for its rows and wall time, then the tracer
    on the same inputs, and checks the two agree row for row."""
    cli_sample, cli_rows = w.run_sweep("measured")
    w.samples.append(cli_sample)
    trace_csv = os.path.join(w.tmp, "rows-traced.csv")
    sweep_trace = os.path.join(w.tmp, "trace-sweep.json")
    probe_trace = os.path.join(w.tmp, "trace-probe.json")
    args = w.sweep_args("measured")
    if "--journal" in args:
        args[args.index("--journal") + 1] = os.path.join(w.tmp, "journal-traced")
    sample = run_process([TRACER, "sweep"] + args + ["--csv", trace_csv, "--trace", sweep_trace])
    w.attempted += w.expected_cells()
    if sample.code != 0:
        w.failed += w.expected_cells()
        w.checks.append(("tracer exit code", False, last_stderr().strip()[-300:]))
        return None
    probe = run_process([TRACER, "probe"] + w.probe_args()
                        + ["--rounds", str(PROBE_ROUNDS), "--trace", probe_trace])
    if probe.code != 0:
        w.checks.append(("probe exit code", False, last_stderr().strip()[-300:]))
        return None

    traced_rows = parse_rows(trace_csv)
    w.failed += sum(1 for row in traced_rows if not row_ok(row))
    mismatches = []
    if len(traced_rows) != len(cli_rows):
        mismatches.append(f"{len(traced_rows)} traced rows vs {len(cli_rows)} CLI rows")
    for cli_row, traced_row in zip(cli_rows, traced_rows):
        for field in FIELDS_TO_MATCH:
            if cli_row[field] != traced_row[field]:
                mismatches.append(f"cell {cli_row['cell_index']} {field}: "
                                  f"{cli_row[field]} != {traced_row[field]}")
    w.checks.append(("traced rows equal CLI rows (listed fields)", not mismatches,
                     "; ".join(mismatches[:5])))
    w.checks.append(("traced report equals CLI report (all columns)",
                     digest_rows(traced_rows) == digest_rows(cli_rows), ""))

    events = []
    for path in (sweep_trace, probe_trace):
        with open(path) as f:
            events += json.load(f)["traceEvents"]
    w.totals = totals_of(cli_rows)
    metrics = layer_metrics(events, sample.wall_s, cli_sample.wall_s)
    trace_out = os.path.join(OUT_DIR, f"trace-{w.name}.json")  # latest run only
    with open(trace_out, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events,
                   "otherData": {"workload": w.name, "seed": w.seed}}, f)
    w.checks.append(("traced counts equal CLI totals",
                     metrics["congest.rounds"] == w.totals["rounds"]
                     and metrics["congest.messages"] == w.totals["messages"]
                     and metrics["congest.bits"] == w.totals["bits"], ""))
    return metrics, trace_out


# -------------------------------------------------------------------- main --

WORKLOADS = ["congest-powerlaw", "congest-parallel", "implicit-powerlaw", "oracle-grid"]


def print_table(title, rows):
    print(f"== {title}")
    for name, unit, value, extra in rows:
        print(f"  {name:28s} {value:>16.6g} {unit:6s} {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    opts = parser.parse_args()
    if not END_TO_END:
        fail("run from the repository root (BENCHMARK.json not found)")

    build()
    os.makedirs(TMP_ROOT, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    prov = provenance(opts.seconds)
    names = WORKLOADS if opts.workload == "all" else [opts.workload]
    workloads = [Workload(name, opts.seed, opts.smoke) for name in names]
    for w in workloads:
        w.prepare()
        w.warm_up()

    layers = {}
    if opts.trace:
        for w in workloads:
            got = traced_run(w)
            if got:
                layers[w.name] = got
    else:
        # Closed loop, one sweep at a time; with several workloads the order
        # alternates between repetitions (forward, then reversed).
        deadline = time.monotonic() + opts.seconds * len(workloads)
        batch_s = min(BATCH_S, opts.seconds / 8)
        rep = 0
        while rep < MIN_REPS or time.monotonic() < deadline:
            order = workloads if rep % 2 == 0 else workloads[::-1]
            for w in order:
                w.measure_batch(batch_s)
            rep += 1
    for w in workloads:
        w.finish_checks()

    summary = {"provenance": prov, "workloads": {}}
    result_metrics = {}
    for w in workloads:
        e2e = w.end_to_end()
        totals = w.totals or {}
        fail_frac = w.failed / w.attempted if w.attempted else 1.0
        rows = [(k, v["unit"], v["value"],
                 f"q1 {v['q1']:.6g}  q3 {v['q3']:.6g}  n={v['samples']}") for k, v in e2e.items()]
        rows += [("sweeps", "count", len(w.sweeps), f"{len(w.samples)} batches"),
                 ("fail_frac", "1", fail_frac, f"{w.failed}/{w.attempted} cells"),
                 ("rounds", "count", totals.get("rounds", 0), "deterministic"),
                 ("messages", "count", totals.get("messages", 0), "deterministic"),
                 ("bits", "count", totals.get("bits", 0), "deterministic")]
        print_table(f"{w.name} seed {w.seed}: end to end", rows)
        for label, ok, detail in w.checks:
            print(f"  check {'ok  ' if ok else 'FAIL'} {label} {detail if not ok else ''}")
        entry = {"end_to_end": e2e, "fail_frac": fail_frac, "totals": totals,
                 "attempted": w.attempted, "failed": w.failed,
                 "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in w.checks],
                 "digests": w.digests,
                 "samples": [vars(s) for s in w.samples],
                 "sweeps": [vars(s) for s in w.sweeps], "setup_samples": w.setup_samples}
        prefix = "" if len(workloads) == 1 else w.name + "/"
        if opts.trace:
            if w.name in layers:
                metrics, trace_out = layers[w.name]
                entry["per_layer"] = metrics
                entry["trace_file"] = trace_out
                print_table(f"{w.name}: per layer (trace {trace_out})",
                            [(k, "", v, "") for k, v in sorted(metrics.items())])
                for name, unit in PER_LAYER_REPORTED:
                    result_metrics[prefix + name] = {"value": metrics.get(name, 0.0),
                                                     "unit": unit}
        else:
            for name, unit in END_TO_END:
                result_metrics[prefix + name] = {"value": e2e[name]["value"], "unit": unit}
        summary["workloads"][w.name] = entry
    print("provenance: " + json.dumps(prov))

    correct = all(w.correct() for w in workloads) and (not opts.trace or
                                                       len(layers) == len(workloads))
    summary_path = os.path.join(
        OUT_DIR, f"summary-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json")
    with open(summary_path, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"summary: {summary_path}")
    shutil.rmtree(TMP_ROOT, ignore_errors=True)
    print(json.dumps({"correct": correct,
                      "attempted": sum(w.attempted for w in workloads),
                      "failed": sum(w.failed for w in workloads),
                      "metrics": result_metrics}))


if __name__ == "__main__":
    main()
