#!/usr/bin/env python3
"""End-to-end reduction benchmark.

Builds the benchmark driver (perfbench/pdat_perfbench.cpp, linked against the
library in src/) from source, runs one workload for a fixed measuring time,
checks every output, and prints each metric by name with its unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload ibex_rv32i_warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 2          # every workload
    python3 perfbench/run.py --selftest                       # metric extraction

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced variant
and reports the per-layer metrics (BENCHMARK.json lists both). The build goes
to $CARGO_TARGET_DIR (default .bench_build) under the current directory.
perfbench/README.md explains the workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ibex_rv32i_warm", "cm0_interesting_cold", "fuzz_ibex_rv32imc"]
REDUCTIONS = WORKLOADS[:2]
# A run must end within this many seconds, build included after the first.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870

STAGES = ["restrict", "env-check", "annotate", "sim-filter", "induction", "rewire", "resynthesis"]
SETUP_PARTS = ["build_core", "optimize", "obfuscate", "prime_cache", "oracle_build"]


class BenchError(Exception):
    """The benchmark could not produce a result (build or driver failure)."""


# --- build -------------------------------------------------------------------


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures and builds the driver; returns the executable's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator,
        ["cmake", "--build", out, "--target", "pdat_perfbench", "-j", "4"],
    ]
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            left = max(1.0, deadline - time.monotonic())
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=left).returncode
            except subprocess.TimeoutExpired:
                raise BenchError("build timed out; see " + log_path)
            if rc != 0:
                raise BenchError("build failed (%s); see %s" % (" ".join(cmd[:2]), log_path))
    exe = os.path.join(out, "pdat_perfbench")
    if not os.path.isfile(exe):
        raise BenchError("build produced no driver; see " + log_path)
    return exe


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


# --- statistics ----------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def trimmed_mean(values):
    """Mean without the lowest and the highest tenth of the values."""
    ordered = sorted(values)
    k = len(ordered) // 10
    return statistics.mean(ordered[k:len(ordered) - k]) if ordered else 0.0


# The median time of one reference pass (pdat_perfbench.cpp,
# reference_once) on the 4-core host the bounds were tuned on. A time t
# measured in a run whose reference passes next to the same kind of step
# have median r is reported as t * REFERENCE_S / r: the time the step would
# take at that host speed.
REFERENCE_S = 0.0070


def host_factor(records):
    """REFERENCE_S over the median reference pass next to `records`."""
    return REFERENCE_S / statistics.median([r for rec in records for r in rec["ref_s"]])


def per_input(ops, value):
    """Trimmed mean over the run's inputs of the trimmed mean of value(op)
    over each input's operations, so every input weighs the same however
    many operations it got."""
    by_input = {}
    for op in ops:
        by_input.setdefault(op.get("input_seed"), []).append(value(op))
    return trimmed_mean([trimmed_mean(v) for v in by_input.values()])


def upper_percentile(values):
    """Highest percentile (in steps of 5) with at least ten samples beyond it,
    or None when there are too few samples for one above the median."""
    n = len(values)
    best = None
    for p in range(55, 100, 5):
        if n * (100 - p) / 100.0 >= 10:
            best = p
    if best is None:
        return None
    ordered = sorted(values)
    return best, ordered[min(n - 1, int(round(best / 100.0 * (n - 1))))]


def quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


# --- pdat-metrics extraction ------------------------------------------------------


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def without_sat(det):
    """The deterministic subtree minus the sat.* counters and histograms. A
    warm proof-cache run replays proof outcomes instead of solving, so its
    sat.* work shrinks by design (docs/telemetry.md, proof cache section);
    everything else must match the cold run that filled the cache."""
    det = json.loads(canonical(det))
    for section in ("counters", "histograms"):
        det[section] = {k: v for k, v in det[section].items() if not k.startswith("sat.")}
    return det


def stage_seconds(doc):
    return {s["name"]: s["wall_seconds"] for s in doc["timing"]["stages"]}


def layer_metrics(doc, threads):
    """Per-layer metrics read from one pdat-metrics document."""
    det, timing = doc["deterministic"], doc["timing"]
    dc, tc = det["counters"], timing["counters"]
    pipe = det["pipeline"]
    stages = stage_seconds(doc)
    solve_s = (tc["induction.solve_micros_global"] + tc["induction.solve_micros_localized"]) / 1e6
    busy_s = tc["runtime.worker_busy_micros"] / 1e6
    lookups = tc["proofcache.hits"] + tc["proofcache.misses"]
    induction_s = stages.get("induction", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "funnel.candidates": pipe["candidates"],
        "funnel.after_sim_filter": pipe["after_sim_filter"],
        "funnel.proven": pipe["proven"],
        "sim_filter.keep_ratio": ratio(pipe["after_sim_filter"], pipe["candidates"]),
        "induction.proof_ratio": ratio(pipe["proven"], pipe["after_sim_filter"]),
        "sat.solve_calls": dc["sat.solve_calls"],
        "sat.conflicts": dc["sat.conflicts"],
        "sat.decisions": dc["sat.decisions"],
        "sat.propagations": dc["sat.propagations"],
        "induction.solve_s": solve_s,
        "induction.rounds": dc["induction.rounds"],
        "induction.sat_calls": dc["induction.sat_calls"],
        "induction.cex_replays": dc["induction.cex_replays"],
        "induction.cex_kills": dc["induction.cex_kills"],
        "induction.unattributed_s": busy_s - solve_s,
        "coi.partitions": dc["coi.partitions"],
        "coi.cones": dc["coi.cones"],
        "coi.cone_candidates": dc["coi.cone_candidates"],
        "proofcache.hits": tc["proofcache.hits"],
        "proofcache.misses": tc["proofcache.misses"],
        "proofcache.stores": tc["proofcache.stores"],
        "proofcache.hit_ratio": ratio(tc["proofcache.hits"], lookups),
        "runtime.jobs_dispatched": dc["runtime.jobs_dispatched"],
        "runtime.worker_busy_s": busy_s,
        "runtime.queue_depth_max": timing["histograms"]["runtime.queue_depth"]["max"],
        "runtime.parallel_efficiency": ratio(busy_s, threads * induction_s),
    }


# Per-layer metric names in report order, with units; BENCHMARK.json lists
# the same names.
PER_LAYER_UNITS = {}
for _s in STAGES:
    PER_LAYER_UNITS["stage.%s_s" % _s] = "s"
for _p in SETUP_PARTS:
    PER_LAYER_UNITS["setup.%s_s" % _p] = "s"
PER_LAYER_UNITS.update({
    "funnel.candidates": "count", "funnel.after_sim_filter": "count", "funnel.proven": "count",
    "sim_filter.keep_ratio": "ratio", "induction.proof_ratio": "ratio",
    "sat.solve_calls": "count", "sat.conflicts": "count", "sat.decisions": "count",
    "sat.propagations": "count", "induction.solve_s": "s",
    "induction.rounds": "count", "induction.sat_calls": "count", "induction.cex_replays": "count",
    "induction.cex_kills": "count", "induction.unattributed_s": "s",
    "coi.partitions": "count", "coi.cones": "count", "coi.cone_candidates": "count",
    "proofcache.hits": "count", "proofcache.misses": "count", "proofcache.stores": "count",
    "proofcache.hit_ratio": "ratio",
    "runtime.jobs_dispatched": "count", "runtime.worker_busy_s": "s",
    "runtime.queue_depth_max": "count", "runtime.parallel_efficiency": "ratio",
    "fuzz.generate_us_p50": "us", "fuzz.oracle_run_ms_p50": "ms", "fuzz.oracle_run_ms_p99": "ms",
    "fuzz.sim_cycles": "count", "fuzz.sim_cycles_per_s": "1/s", "fuzz.instructions": "count",
    "fuzz.corpus_retained": "count", "fuzz.covered_pairs": "count", "fuzz.programs_per_s": "1/s",
    "verify.lockstep_s": "s", "trace.overhead_frac": "ratio", "host.reference_ms": "ms",
})

# Per-layer metrics of the cold reduction that fills the warm workload's
# proof cache in set-up, reported as prime.<name>: the cold path's SAT work,
# induction, COI, cache writes and 4-thread scaling.
PRIME_LAYERS = [
    "stage.induction_s", "sat.solve_calls", "sat.propagations", "induction.rounds",
    "induction.sat_calls", "induction.solve_s", "induction.unattributed_s", "coi.cones",
    "proofcache.stores", "runtime.worker_busy_s", "runtime.parallel_efficiency",
]
for _name in PRIME_LAYERS:
    PER_LAYER_UNITS["prime." + _name] = PER_LAYER_UNITS[_name]

# Inputs det_work averages over. A 30 s run of the CM0 or fuzz workload
# completes 9-13 or 25-35 operations, each on its own input; how many
# depends on the host, and an average over a fixed number of them does not.
DET_WORK_INPUTS = 8

END_TO_END_UNITS = {
    "setup_s": "s", "op_s": "s", "op_cpu_s": "s", "peak_rss_mb": "MiB",
    "gates_after": "gates", "area_after_um2": "um2", "det_work": "count",
}


# --- one workload ------------------------------------------------------------------


class Run:
    """Turns the driver's raw samples into checked metrics."""

    def __init__(self, raw):
        self.raw = raw
        self.workload = raw["workload"]
        self.errors = []
        self.ops = raw["ops"]
        self.docs = [self.load_doc(op) for op in self.ops]

    @staticmethod
    def load_doc(op):
        if op.get("kind") != "reduce" or not op.get("metrics") or op.get("error"):
            return None
        with open(op["metrics"]) as f:
            return json.load(f)

    def attempted_failed(self):
        if self.workload in REDUCTIONS:
            failed = 0
            for op in self.ops:
                if op.get("error") or not op.get("check_ok", False):
                    failed += 1
                    self.errors.append("reduction failed: %s%s" % (op.get("error", ""), op.get("check_detail", "")))
            return len(self.ops), failed
        attempted = sum(op["programs"] for op in self.ops)
        failed = sum(op["divergences"] + op["inconclusive"] for op in self.ops)
        stream = self.raw.get("stream")
        if stream:
            attempted += len(stream["oracle_run_ms"])
            failed += stream["failed"]
        if failed:
            self.errors.append("%d fuzz programs diverged or were inconclusive" % failed)
        return attempted, failed

    def identity(self, seed):
        """Results that operations with the same input must share exactly,
        by input seed. Returns None when no operation completed."""
        keys = {}
        for op, doc in zip(self.ops, self.docs):
            if op.get("error") or "gates_after" not in op:
                continue
            key = {"gates_after": op["gates_after"], "area_after_um2": op["area_after"]}
            if doc is not None:
                key["det_work"] = doc["deterministic"]["counters"]["sat.propagations"]
                key["deterministic"] = hashlib.sha256(canonical(doc["deterministic"]).encode()).hexdigest()
                key["netlist"] = op["netlist_digest"]
            else:
                key["det_work"] = op["instructions"]
                key["covered_pairs"] = op["covered_pairs"]
                key["corpus_retained"] = op["corpus_retained"]
            first = keys.setdefault(op.get("input_seed", seed), key)
            if key != first:
                self.errors.append("operations with one input disagree: %s vs %s" % (key, first))
        if not keys:
            self.errors.append("no operation completed")
            return None
        cores = {(k["gates_after"], k["area_after_um2"]) for k in keys.values()}
        if len(cores) > 1:
            self.errors.append("inputs of one run give different cores: %s" % sorted(cores))
        if self.workload == "ibex_rv32i_warm" and self.raw.get("prime_metrics"):
            with open(self.raw["prime_metrics"]) as f:
                prime = json.load(f)["deterministic"]
            for doc in self.docs:
                if doc is not None and without_sat(doc["deterministic"]) != without_sat(prime):
                    self.errors.append("warm reduction's deterministic subtree differs from the priming run")
        return keys

    def check_across_runs(self, keys, exe_digest):
        """A result must repeat exactly in every run of the same build that
        has the same input."""
        folder = os.path.join(build_dir(), "identity", exe_digest)
        os.makedirs(folder, exist_ok=True)
        for seed, key in keys.items():
            path = os.path.join(folder, "%s-input%d.json" % (self.workload, seed))
            if os.path.exists(path):
                with open(path) as f:
                    ref = json.load(f)
                if ref != key:
                    self.errors.append("result differs from an earlier run with input seed %d: %s vs %s"
                                       % (seed, key, ref))
            else:
                with open(path, "w") as f:
                    json.dump(key, f)

    def end_to_end(self, keys):
        """Times are host-scaled trimmed means (host_factor), averaged over
        the run's inputs; det_work is averaged over the run's first
        DET_WORK_INPUTS inputs, so it repeats exactly for a seed."""
        ops = [op for op in self.ops if not op.get("traced") and "gates_after" in op]
        inputs = list(dict.fromkeys(op.get("input_seed", self.raw["seed"]) for op in ops))
        first = keys[inputs[0]]
        setup_factor = host_factor(self.raw["setups"])
        op_factor = host_factor(ops)
        return {
            "setup_s": setup_factor * trimmed_mean([s["total_s"] for s in self.raw["setups"]]),
            "op_s": op_factor * per_input(ops, lambda op: op["wall_s"]),
            "op_cpu_s": op_factor * per_input(ops, lambda op: op["cpu_s"]),
            "peak_rss_mb": self.raw["peak_rss_mb"],
            "gates_after": first["gates_after"],
            "area_after_um2": first["area_after_um2"],
            "det_work": trimmed_mean([keys[i]["det_work"] for i in inputs[:DET_WORK_INPUTS]]),
        }

    def per_layer(self):
        m = {name: 0.0 for name in PER_LAYER_UNITS}
        for part in SETUP_PARTS:
            m["setup.%s_s" % part] = median([s[part + "_s"] for s in self.raw["setups"]])
        traced = [(op, doc) for op, doc in zip(self.ops, self.docs) if op.get("traced") and doc]
        if traced:
            for stage in STAGES:
                m["stage.%s_s" % stage] = median([op["stage_s"][stage] for op, _ in traced])
            layers = [layer_metrics(doc, op["threads"]) for op, doc in traced]
            for name in layers[0]:
                m[name] = median([layer[name] for layer in layers])
            plain = [op["wall_s"] for op in self.ops if not op.get("traced")]
            m["trace.overhead_frac"] = median([op["wall_s"] for op, _ in traced]) / median(plain) - 1.0
        if self.raw.get("prime_metrics"):
            with open(self.raw["prime_metrics"]) as f:
                prime = json.load(f)
            layers = layer_metrics(prime, self.raw["prime_threads"])
            layers["stage.induction_s"] = stage_seconds(prime)["induction"]
            for name in PRIME_LAYERS:
                m["prime." + name] = layers[name]
        m["host.reference_ms"] = 1e3 * median([r for op in self.ops for r in op["ref_s"]])
        checked = [op["lockstep_s"] for op in self.ops if "lockstep_s" in op]
        m["verify.lockstep_s"] = median(checked)
        stream = self.raw.get("stream")
        if stream:
            runs = stream["oracle_run_ms"]
            m["fuzz.generate_us_p50"] = median(stream["generate_us"])
            m["fuzz.oracle_run_ms_p50"] = median(runs)
            m["fuzz.oracle_run_ms_p99"] = quantile(runs, 0.99)
            m["fuzz.sim_cycles"] = stream["cycles"]
            m["fuzz.sim_cycles_per_s"] = stream["cycles"] / stream["oracle_busy_s"]
            m["fuzz.instructions"] = stream["instructions"]
            campaign = self.ops[-1]
            m["fuzz.corpus_retained"] = campaign["corpus_retained"]
            m["fuzz.covered_pairs"] = campaign["covered_pairs"]
            m["fuzz.programs_per_s"] = campaign["programs"] / campaign["wall_s"]
        return m

    def describe(self, seed):
        """Human-readable lines: sample counts, wall times as measured,
        percentiles, host speed, fuzz rates."""
        ops = [op for op in self.ops if not op.get("traced")]
        walls = [op["wall_s"] for op in ops]
        lines = ["workload %s seed %d: %d untraced and %d traced operations in %.1f s" % (
            self.workload, seed, len(ops), len(self.ops) - len(ops), self.raw["measured_s"])]
        lines.append("  op wall time as measured: median %.4f s (n=%d)" % (median(walls), len(walls)))
        pct = upper_percentile(walls)
        if pct:
            lines.append("  op wall time as measured: p%d = %.4f s (n=%d)" % (pct[0], pct[1], len(walls)))
        for part, records in (("set-up", self.raw["setups"]), ("operation", self.ops)):
            refs = [r for rec in records for r in rec["ref_s"]]
            lines.append("  reference pass next to each %s: median %.3f ms, range %.3f-%.3f ms"
                         " (REFERENCE_S %.3f ms)" % (part, 1e3 * median(refs), 1e3 * min(refs),
                                                    1e3 * max(refs), 1e3 * REFERENCE_S))
        if self.workload not in REDUCTIONS and ops:
            op = ops[0]
            lines.append("  fuzz_programs_per_s = %.2f 1/s (%d programs per campaign, median campaign)"
                         % (op["programs"] / median(walls), op["programs"]))
            lines.append("  fuzz_covered_pairs = %d of %d toggle pairs" % (op["covered_pairs"], 2 * op["coverage_nets"]))
        return lines


def run_workload(exe, workload, seed, seconds, trace):
    out = os.path.join(build_dir(), "runs", "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("driver failed on %s with exit code %d" % (workload, proc.returncode))
    with open(os.path.join(out, "raw.json")) as f:
        run = Run(json.load(f))
    attempted, failed = run.attempted_failed()
    keys = run.identity(seed)
    if keys is not None:
        run.check_across_runs(keys, file_digest(exe))
    if trace:
        metrics, units = run.per_layer(), PER_LAYER_UNITS
    elif keys is not None:
        metrics, units = run.end_to_end(keys), END_TO_END_UNITS
    else:
        metrics, units = {}, END_TO_END_UNITS
    for line in run.describe(seed):
        print(line)
    for name in units:
        if name in metrics:
            print("  %-28s %.6g %s" % (name, metrics[name], units[name]))
    for err in run.errors:
        print("  CHECK FAILED: " + err)
    return {
        "correct": not run.errors and failed == 0 and keys is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    }


# --- self-test ---------------------------------------------------------------------


def selftest():
    """Checks metric extraction against a saved pdat-metrics document (the
    cold reduction that primes ibex_rv32i_warm's proof cache, seed 1, 4 proof
    threads)."""
    with open(os.path.join(HERE, "testdata", "ibex_rv32i_prime.metrics.json")) as f:
        doc = json.load(f)
    m = layer_metrics(doc, threads=4)
    expect = {
        "funnel.candidates": 29034, "funnel.after_sim_filter": 6960, "funnel.proven": 5370,
        "sat.solve_calls": 755, "sat.propagations": 90434643, "induction.rounds": 115,
        "induction.sat_calls": 754, "induction.cex_replays": 0, "coi.partitions": 116,
        "proofcache.hits": 0, "proofcache.misses": 389, "proofcache.stores": 389,
        "runtime.jobs_dispatched": 389, "runtime.queue_depth_max": 3,
    }
    bad = {k: (m[k], v) for k, v in expect.items() if m[k] != v}
    timing = doc["timing"]["counters"]
    busy = timing["runtime.worker_busy_micros"] / 1e6
    solve = timing["induction.solve_micros_localized"] / 1e6
    induction = [s["wall_seconds"] for s in doc["timing"]["stages"] if s["name"] == "induction"][0]
    derived = {
        "sim_filter.keep_ratio": 6960 / 29034, "induction.proof_ratio": 5370 / 6960,
        "induction.solve_s": solve, "induction.unattributed_s": busy - solve,
        "runtime.worker_busy_s": busy, "proofcache.hit_ratio": 0.0,
        "runtime.parallel_efficiency": busy / (4 * induction),
    }
    bad.update({k: (m[k], v) for k, v in derived.items() if abs(m[k] - v) > 1e-9 * max(1.0, abs(v))})
    if set(m) - set(PER_LAYER_UNITS):
        bad["unknown names"] = sorted(set(m) - set(PER_LAYER_UNITS))
    stripped = without_sat(doc["deterministic"])
    if any(k.startswith("sat.") for k in stripped["counters"]) or "induction.rounds" not in stripped["counters"]:
        bad["without_sat"] = "wrong keys"
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    if [x["name"] for x in spec["per_layer"]] != list(PER_LAYER_UNITS):
        bad["BENCHMARK.json per_layer"] = "names differ from PER_LAYER_UNITS"
    if [x["name"] for x in spec["end_to_end"]] != list(END_TO_END_UNITS):
        bad["BENCHMARK.json end_to_end"] = "names differ from END_TO_END_UNITS"
    if upper_percentile(list(range(19))) is not None or upper_percentile(list(range(200)))[0] != 95:
        bad["upper_percentile"] = "wrong percentile choice"
    if trimmed_mean([100] + list(range(9))) != 4.5 or trimmed_mean([3, 1]) != 2:
        bad["trimmed_mean"] = "wrong trimming"
    ops = [{"input_seed": 1, "t": 1.0}, {"input_seed": 1, "t": 3.0}, {"input_seed": 2, "t": 5.0}]
    if per_input(ops, lambda op: op["t"]) != 3.5:
        bad["per_input"] = "inputs not weighed equally"
    if host_factor([{"ref_s": [REFERENCE_S / 2] * 3}, {"ref_s": [REFERENCE_S / 2, 1.0]}]) != 2.0:
        bad["host_factor"] = "wrong reference median"
    for k, v in sorted(bad.items()):
        print("selftest mismatch: %s: %s" % (k, v))
    print("selftest %s" % ("FAILED" if bad else "passed"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    try:
        exe = build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {w: run_workload(exe, w, args.seed, args.seconds, args.trace) for w in names}
    except (BenchError, OSError, KeyError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        total = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "seed": args.seed, "workloads": results}
        print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
