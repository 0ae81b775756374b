#!/usr/bin/env python3
"""Validate and normalize PDAT telemetry captures.

Usage:
  validate_telemetry.py --metrics metrics.json [--trace trace.json]
  validate_telemetry.py --trace trace.json
  validate_telemetry.py --normalize trace.json
  validate_telemetry.py --compare-deterministic cold.metrics.json warm.metrics.json

--metrics validates a "pdat-metrics" document against
docs/schemas/pdat-metrics.schema.json when the `jsonschema` package is
importable, falling back to equivalent built-in structural checks otherwise
(CI runners and dev boxes need nothing beyond the standard library).

--trace checks the Chrome-trace/Perfetto shape written by
trace::write_chrome_trace: displayTimeUnit, complete ("ph":"X") events with
name/cat/pid/tid/ts/dur, and integer args.

--normalize prints the determinism-relevant projection of a trace — the
(name, sorted-args) pairs with ts/dur/tid erased, sorted — one event per
line, so two runs of the same configuration can be byte-compared with diff
regardless of thread count or machine speed. Mirrors
trace::normalized_events() in src/trace/trace.h.

--compare-deterministic checks that two metrics documents of one problem
have the same deterministic subtree apart from the sat.* counters and
histograms: what a warm proof-cache run must keep of the cold run that
filled the cache (a warm run replays outcomes instead of solving, so only
its solver work shrinks; docs/telemetry.md, proof cache section).

Exit status: 0 = valid, 1 = validation failure, 2 = usage/IO error.
"""

import argparse
import json
import os
import sys

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "docs", "schemas", "pdat-metrics.schema.json")

STAGE_NAMES = [
    "restrict", "env-check", "annotate", "sim-filter",
    "induction", "rewire", "resynthesis", "validate",
]


class ValidationError(Exception):
    pass


def fail(where, msg):
    raise ValidationError(f"{where}: {msg}")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------- metrics --

def check_uint(where, v):
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        fail(where, f"expected a non-negative integer, got {v!r}")


def check_number(where, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
        fail(where, f"expected a non-negative number, got {v!r}")


def check_metric_name(where, name):
    parts = name.split(".")
    ok = len(parts) >= 2 and all(
        p and all(c.islower() or c.isdigit() or c == "_" for c in p)
        for p in parts)
    if not ok:
        fail(where, f"malformed metric name {name!r} (want dotted lowercase)")


def check_counter_map(where, m):
    if not isinstance(m, dict):
        fail(where, "expected an object")
    for name, v in m.items():
        check_metric_name(where, name)
        check_uint(f"{where}.{name}", v)


def check_histogram_map(where, m):
    if not isinstance(m, dict):
        fail(where, "expected an object")
    for name, h in m.items():
        check_metric_name(where, name)
        w = f"{where}.{name}"
        if not isinstance(h, dict):
            fail(w, "expected a histogram object")
        if set(h) != {"count", "sum", "max", "buckets"}:
            fail(w, f"histogram keys must be count/sum/max/buckets, got {sorted(h)}")
        for k in ("count", "sum", "max"):
            check_uint(f"{w}.{k}", h[k])
        b = h["buckets"]
        if not isinstance(b, list) or len(b) != 16:
            fail(f"{w}.buckets", "expected exactly 16 buckets")
        for i, v in enumerate(b):
            check_uint(f"{w}.buckets[{i}]", v)
        if sum(b) != h["count"]:
            fail(w, f"bucket sum {sum(b)} != count {h['count']}")


def structural_validate_metrics(doc):
    if not isinstance(doc, dict):
        fail("$", "expected a JSON object")
    if doc.get("schema") != "pdat-metrics":
        fail("schema", f'expected "pdat-metrics", got {doc.get("schema")!r}')
    if doc.get("version") != 1:
        fail("version", f"expected 1, got {doc.get('version')!r}")
    if not isinstance(doc.get("label"), str):
        fail("label", "expected a string")
    extra = set(doc) - {"schema", "version", "label", "deterministic", "timing"}
    if extra:
        fail("$", f"unexpected top-level keys {sorted(extra)}")

    det = doc.get("deterministic")
    if not isinstance(det, dict):
        fail("deterministic", "missing or not an object")
    if set(det) != {"pipeline", "counters", "histograms", "induction_rounds"}:
        fail("deterministic", f"unexpected key set {sorted(det)}")
    pipe = det["pipeline"]
    pipe_keys = {"candidates", "after_sim_filter", "proven", "gates_before",
                 "gates_after", "degraded", "resumed_from_round"}
    if set(pipe) != pipe_keys:
        fail("deterministic.pipeline", f"unexpected key set {sorted(pipe)}")
    for k in pipe_keys - {"degraded", "resumed_from_round"}:
        check_uint(f"deterministic.pipeline.{k}", pipe[k])
    if not isinstance(pipe["degraded"], bool):
        fail("deterministic.pipeline.degraded", "expected a boolean")
    rfr = pipe["resumed_from_round"]
    if not isinstance(rfr, int) or isinstance(rfr, bool) or rfr < -2:
        fail("deterministic.pipeline.resumed_from_round", f"bad value {rfr!r}")
    check_counter_map("deterministic.counters", det["counters"])
    check_histogram_map("deterministic.histograms", det["histograms"])
    rounds = det["induction_rounds"]
    if not isinstance(rounds, list):
        fail("deterministic.induction_rounds", "expected an array")
    for i, r in enumerate(rounds):
        w = f"deterministic.induction_rounds[{i}]"
        keys = {"round", "alive_before", "cex_kills", "budget_kills", "sat_calls"}
        if not isinstance(r, dict) or set(r) != keys:
            fail(w, f"unexpected shape {r!r}")
        if not isinstance(r["round"], int) or isinstance(r["round"], bool) or r["round"] < -1:
            fail(f"{w}.round", f"bad value {r['round']!r}")
        for k in keys - {"round"}:
            check_uint(f"{w}.{k}", r[k])

    tim = doc.get("timing")
    if not isinstance(tim, dict):
        fail("timing", "missing or not an object")
    tim_keys = {"total_wall_seconds", "cpu_seconds", "peak_rss_bytes",
                "stages", "induction_rounds", "counters", "histograms"}
    if set(tim) != tim_keys:
        fail("timing", f"unexpected key set {sorted(tim)}")
    check_number("timing.total_wall_seconds", tim["total_wall_seconds"])
    check_number("timing.cpu_seconds", tim["cpu_seconds"])
    check_uint("timing.peak_rss_bytes", tim["peak_rss_bytes"])
    stages = tim["stages"]
    if not isinstance(stages, list) or len(stages) != 8:
        fail("timing.stages", "expected exactly 8 stage entries")
    for i, s in enumerate(stages):
        w = f"timing.stages[{i}]"
        if not isinstance(s, dict) or set(s) != {"name", "wall_seconds"}:
            fail(w, f"unexpected shape {s!r}")
        if s["name"] != STAGE_NAMES[i]:
            fail(f"{w}.name", f"expected {STAGE_NAMES[i]!r}, got {s['name']!r}")
        check_number(f"{w}.wall_seconds", s["wall_seconds"])
    timed_rounds = tim["induction_rounds"]
    if not isinstance(timed_rounds, list) or len(timed_rounds) != len(rounds):
        fail("timing.induction_rounds", "expected one entry per deterministic round")
    for i, r in enumerate(timed_rounds):
        w = f"timing.induction_rounds[{i}]"
        if not isinstance(r, dict) or set(r) != {"round", "wall_seconds"}:
            fail(w, f"unexpected shape {r!r}")
        if r["round"] != rounds[i]["round"]:
            fail(f"{w}.round", f"expected {rounds[i]['round']!r}, got {r['round']!r}")
        check_number(f"{w}.wall_seconds", r["wall_seconds"])
    check_counter_map("timing.counters", tim["counters"])
    check_histogram_map("timing.histograms", tim["histograms"])


def validate_metrics(path):
    doc = load_json(path)
    try:
        import jsonschema  # type: ignore
        schema = load_json(SCHEMA_PATH)
        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError as e:
            where = "$" + "".join(f"[{p!r}]" for p in e.absolute_path)
            raise ValidationError(f"{where}: {e.message}")
        # The draft-07 schema cannot express bucket-sum == count or the
        # fixed stage order; run the structural pass for those too.
        structural_validate_metrics(doc)
        mode = "jsonschema + structural"
    except ImportError:
        structural_validate_metrics(doc)
        mode = "structural (jsonschema not installed)"
    n_det = len(doc["deterministic"]["counters"])
    n_tim = len(doc["timing"]["counters"])
    print(f"{path}: OK ({mode}); label={doc['label']!r}, "
          f"{n_det} deterministic + {n_tim} timing counters, "
          f"{len(doc['deterministic']['induction_rounds'])} induction rounds")


def without_sat(det):
    out = dict(det)
    for section in ("counters", "histograms"):
        out[section] = {k: v for k, v in det[section].items() if not k.startswith("sat.")}
    return out


def compare_deterministic(path_a, path_b):
    a = without_sat(load_json(path_a)["deterministic"])
    b = without_sat(load_json(path_b)["deterministic"])
    diffs = []
    for section in sorted(set(a) | set(b)):
        va, vb = a.get(section), b.get(section)
        if isinstance(va, dict) and isinstance(vb, dict):
            for k in sorted(set(va) | set(vb)):
                if va.get(k) != vb.get(k):
                    diffs.append(f"deterministic.{section}.{k}: {va.get(k)!r} vs {vb.get(k)!r}")
        elif va != vb:
            diffs.append(f"deterministic.{section}: {va!r} vs {vb!r}")
    if diffs:
        raise ValidationError(f"{path_a} and {path_b} differ outside sat.*:\n  "
                              + "\n  ".join(diffs))
    print(f"{path_a} vs {path_b}: deterministic subtrees identical apart from sat.*")


# ------------------------------------------------------------------ trace --

def trace_events(doc, path):
    if not isinstance(doc, dict):
        fail("$", "expected a JSON object")
    if doc.get("displayTimeUnit") != "ms":
        fail("displayTimeUnit", f'expected "ms", got {doc.get("displayTimeUnit")!r}')
    ev = doc.get("traceEvents")
    if not isinstance(ev, list):
        fail("traceEvents", "missing or not an array")
    return ev


def validate_trace(path):
    doc = load_json(path)
    events = trace_events(doc, path)
    names = set()
    for i, e in enumerate(events):
        w = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            fail(w, "expected an object")
        for key, typ in (("name", str), ("cat", str), ("ph", str)):
            if not isinstance(e.get(key), typ):
                fail(f"{w}.{key}", f"missing or not a {typ.__name__}")
        if e["ph"] != "X":
            fail(f"{w}.ph", f'expected complete event "X", got {e["ph"]!r}')
        if e["cat"] != "pdat":
            fail(f"{w}.cat", f'expected "pdat", got {e["cat"]!r}')
        for key in ("pid", "tid", "ts", "dur"):
            v = e.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                fail(f"{w}.{key}", f"missing or not a non-negative integer: {v!r}")
        args = e.get("args", {})
        if not isinstance(args, dict):
            fail(f"{w}.args", "expected an object")
        for k, v in args.items():
            if not isinstance(v, int) or isinstance(v, bool):
                fail(f"{w}.args.{k}", f"expected an integer, got {v!r}")
        names.add(e["name"])
    print(f"{path}: OK; {len(events)} events, {len(names)} distinct span names")


def normalize_trace(path):
    doc = load_json(path)
    events = trace_events(doc, path)
    lines = []
    for e in events:
        # "threads" is configuration identity, not proof behavior; erased so
        # normalized traces compare across --threads values (matches
        # trace::normalized_events()).
        args = {k: v for k, v in e.get("args", {}).items() if k != "threads"}
        rendered = " ".join(f"{k}={args[k]}" for k in sorted(args))
        lines.append(f"{e.get('name')} {rendered}".rstrip())
    for line in sorted(lines):
        print(line)


def main():
    ap = argparse.ArgumentParser(
        description="Validate or normalize PDAT telemetry files "
                    "(see docs/telemetry.md)")
    ap.add_argument("--metrics", metavar="FILE",
                    help="validate a pdat-metrics document")
    ap.add_argument("--trace", metavar="FILE",
                    help="validate a Chrome-trace capture")
    ap.add_argument("--normalize", metavar="FILE",
                    help="print the sorted (name, args) projection of a trace")
    ap.add_argument("--compare-deterministic", nargs=2, metavar=("A", "B"),
                    help="require equal deterministic subtrees apart from sat.*")
    args = ap.parse_args()
    if not (args.metrics or args.trace or args.normalize or args.compare_deterministic):
        ap.error("nothing to do: pass --metrics, --trace, --normalize, "
                 "or --compare-deterministic")
    try:
        if args.normalize:
            normalize_trace(args.normalize)
        if args.metrics:
            validate_metrics(args.metrics)
        if args.trace:
            validate_trace(args.trace)
        if args.compare_deterministic:
            compare_deterministic(*args.compare_deterministic)
    except ValidationError as e:
        print(f"INVALID: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
