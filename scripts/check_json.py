#!/usr/bin/env python3
"""Validate JSON artifacts the simulator emits.

Usage:
    check_json.py [--schema metrics|chrome-trace|any] FILE...

Schemas:
    any           the file parses as JSON (the default)
    metrics       a cosmos-metrics-v1 document: {"schema":
                  "cosmos-metrics-v1", "metrics": {name: {...}}} with
                  per-kind required fields
    chrome-trace  a Chrome trace-event file: {"traceEvents": [...]}
                  where every event carries name/cat/ph/ts/pid/tid
                  (and dur for complete events)
    fuzz          a cosmos-fuzz-v1 document from `cosmos fuzz --out`:
                  campaign counters, a "clean" verdict consistent with
                  the failure list, and per-failure violations each
                  carrying kind/block/when/nodes/detail/history plus
                  a shrunk reproducer no larger than the original
    model         a cosmos-model-v1 document from `cosmos model
                  --out`: exploration counters, a "clean" verdict
                  consistent with the violation list and completeness,
                  a transition table whose entries carry sorted
                  module/state/input keys with at least one outcome
                  each, lint findings with known kinds, and a
                  "consistent" verdict agreeing with the
                  declared-table consistency diff
    lint          a cosmos-lint-v1 document from `cosmos lint --out`:
                  the analyzed configuration, the planted mutation (or
                  "none"), row counts, findings with known kinds and
                  file:line row provenance, and a "clean" verdict
                  consistent with the finding list
    forge         a cosmos-forge-v1 document from `cosmos run --forge
                  ... --forge-out`: the forge parameters, replay
                  config, and one accuracy row per ground-truth
                  sharing class whose record counts sum to the
                  message total and whose census agreement never
                  exceeds the blocks seen
    bench         a cosmos-bench-predictor-v3 document from
                  bench_predictor_throughput: passing goldens, the
                  batch-pipeline tunables, scalar AND batched serial
                  dsmc cells, and a sweep section carrying its thread
                  count
    forwarding    a cosmos-bench-forwarding-v1 document from
                  bench_ablation_forwarding: one row per app covering
                  the never/always/predicted cells, each with timing,
                  accuracy, speedup, and forwarding counters whose
                  fwd_ack handshake closes (acks == forwards sent)

Exits non-zero with a per-file message on the first failure, so it
slots directly into scripts/ci.sh.
"""

import argparse
import json
import sys

METRIC_KINDS = {
    "counter": {"value"},
    "gauge": {"value", "high_water"},
    "histogram": {"count", "sum", "min", "max", "p50", "p90", "p99",
                  "bounds", "counts"},
    "summary": {"count", "sum", "min", "max", "mean", "stddev"},
}

TRACE_EVENT_KEYS = {"name", "cat", "ph", "ts", "pid", "tid"}


def check_metrics(doc):
    if not isinstance(doc, dict):
        return "top level is not an object"
    if doc.get("schema") != "cosmos-metrics-v1":
        return f"unexpected schema field: {doc.get('schema')!r}"
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return "missing \"metrics\" object"
    for name, m in metrics.items():
        if not isinstance(m, dict):
            return f"metric {name!r} is not an object"
        kind = m.get("kind")
        required = METRIC_KINDS.get(kind)
        if required is None:
            return f"metric {name!r} has unknown kind {kind!r}"
        missing = required - m.keys()
        if missing:
            return (f"metric {name!r} ({kind}) missing fields: "
                    f"{sorted(missing)}")
        if kind == "histogram" and \
                len(m["counts"]) != len(m["bounds"]) + 1:
            return (f"metric {name!r}: counts must have one overflow "
                    f"slot beyond bounds")
    return None


def check_chrome_trace(doc):
    if not isinstance(doc, dict):
        return "top level is not an object"
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return "missing \"traceEvents\" array"
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return f"event {i} is not an object"
        missing = TRACE_EVENT_KEYS - ev.keys()
        if missing:
            return f"event {i} missing keys: {sorted(missing)}"
        if ev["ph"] == "X" and "dur" not in ev:
            return f"complete event {i} has no \"dur\""
        if not isinstance(ev["ts"], (int, float)):
            return f"event {i} \"ts\" is not a number"
    return None


VIOLATION_KINDS = {
    "multiple_writers", "writer_and_readers", "directory_mismatch",
    "conservation", "liveness", "assertion",
}

VIOLATION_KEYS = {"kind", "block", "when", "nodes", "detail",
                  "history"}

FAILURE_KEYS = {"seed", "delivered", "original_ops", "shrunk_ops",
                "suppressed", "violations", "reproducer"}


def check_fuzz(doc):
    if not isinstance(doc, dict):
        return "top level is not an object"
    if doc.get("format") != "cosmos-fuzz-v1":
        return f"unexpected format field: {doc.get('format')!r}"
    for key in ("base_seed", "num_seeds", "cases_run"):
        if not isinstance(doc.get(key), int):
            return f"missing or non-integer {key!r}"
    if not isinstance(doc.get("clean"), bool):
        return "missing boolean \"clean\""
    failures = doc.get("failures")
    if not isinstance(failures, list):
        return "missing \"failures\" array"
    if doc["clean"] != (len(failures) == 0):
        return "\"clean\" verdict disagrees with the failure list"
    for i, f in enumerate(failures):
        if not isinstance(f, dict):
            return f"failure {i} is not an object"
        missing = FAILURE_KEYS - f.keys()
        if missing:
            return f"failure {i} missing keys: {sorted(missing)}"
        if not f["violations"]:
            return f"failure {i} carries no violations"
        if f["shrunk_ops"] > f["original_ops"]:
            return (f"failure {i}: shrunk reproducer is larger than "
                    f"the original case")
        for j, v in enumerate(f["violations"]):
            if not isinstance(v, dict):
                return f"failure {i} violation {j} is not an object"
            missing = VIOLATION_KEYS - v.keys()
            if missing:
                return (f"failure {i} violation {j} missing keys: "
                        f"{sorted(missing)}")
            if v["kind"] not in VIOLATION_KINDS:
                return (f"failure {i} violation {j} has unknown "
                        f"kind {v['kind']!r}")
            if not isinstance(v["nodes"], list):
                return f"failure {i} violation {j} nodes not a list"
    return None


MODEL_CONFIG_KEYS = {"nodes", "blocks", "reorder", "policy",
                     "forwarding", "legacy_forwarding",
                     "ignore_inval_every"}

MODEL_COUNTER_KEYS = {"states", "transitions", "max_depth",
                      "deadlocks", "failed_steps"}

MODEL_ENTRY_KEYS = {"module", "state", "input", "context", "hits",
                    "outcomes"}

LINT_KINDS = {"unreachable_state", "dead_input", "nondeterministic",
              "forwarding_asymmetry"}

CONSISTENCY_KINDS = {"undeclared_transition", "unreachable_reached",
                     "outcome_mismatch"}


def check_model(doc):
    if not isinstance(doc, dict):
        return "top level is not an object"
    if doc.get("format") != "cosmos-model-v1":
        return f"unexpected format field: {doc.get('format')!r}"
    config = doc.get("config")
    if not isinstance(config, dict):
        return "missing \"config\" object"
    missing = MODEL_CONFIG_KEYS - config.keys()
    if missing:
        return f"config missing keys: {sorted(missing)}"
    for key in ("complete", "clean"):
        if not isinstance(doc.get(key), bool):
            return f"missing boolean {key!r}"
    for key in MODEL_COUNTER_KEYS:
        if not isinstance(doc.get(key), int):
            return f"missing or non-integer {key!r}"
    violations = doc.get("violations")
    if not isinstance(violations, list):
        return "missing \"violations\" array"
    if doc["clean"] != (len(violations) == 0 and doc["complete"]):
        return ("\"clean\" verdict disagrees with the violation "
                "list / completeness")
    for j, v in enumerate(violations):
        if not isinstance(v, dict):
            return f"violation {j} is not an object"
        missing = VIOLATION_KEYS - v.keys()
        if missing:
            return f"violation {j} missing keys: {sorted(missing)}"
        if v["kind"] not in VIOLATION_KINDS:
            return f"violation {j} has unknown kind {v['kind']!r}"
    table = doc.get("table")
    if not isinstance(table, dict):
        return "missing \"table\" object"
    entries = table.get("entries")
    if not isinstance(entries, list) or not entries:
        return "table has no entries"
    if not isinstance(table.get("nondeterministic"), int):
        return "table missing integer \"nondeterministic\""
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            return f"table entry {i} is not an object"
        missing = MODEL_ENTRY_KEYS - e.keys()
        if missing:
            return f"table entry {i} missing keys: {sorted(missing)}"
        if e["module"] not in ("cache", "directory"):
            return (f"table entry {i} has unknown module "
                    f"{e['module']!r}")
        if not isinstance(e["outcomes"], list) or not e["outcomes"]:
            return f"table entry {i} has no outcomes"
        if not (isinstance(e["hits"], int) and e["hits"] > 0):
            return f"table entry {i} has no hits"
    lint = doc.get("lint")
    if not isinstance(lint, list):
        return "missing \"lint\" array"
    for i, f in enumerate(lint):
        if not isinstance(f, dict):
            return f"lint finding {i} is not an object"
        if f.get("kind") not in LINT_KINDS:
            return (f"lint finding {i} has unknown kind "
                    f"{f.get('kind')!r}")
        if not isinstance(f.get("detail"), str):
            return f"lint finding {i} missing \"detail\""
    if not isinstance(doc.get("consistent"), bool):
        return "missing boolean \"consistent\""
    consistency = doc.get("consistency")
    if not isinstance(consistency, list):
        return "missing \"consistency\" array"
    if doc["consistent"] != (len(consistency) == 0):
        return ("\"consistent\" verdict disagrees with the "
                "consistency finding list")
    for i, f in enumerate(consistency):
        if not isinstance(f, dict):
            return f"consistency finding {i} is not an object"
        if f.get("kind") not in CONSISTENCY_KINDS:
            return (f"consistency finding {i} has unknown kind "
                    f"{f.get('kind')!r}")
        if f.get("module") not in ("cache", "directory"):
            return (f"consistency finding {i} has unknown module "
                    f"{f.get('module')!r}")
        if not isinstance(f.get("detail"), str):
            return f"consistency finding {i} missing \"detail\""
    return None


LINT_STATIC_KINDS = {"missing_row", "overlapping_rows",
                     "dropped_response", "out_of_order_consume",
                     "forwarding_asymmetry"}

LINT_CONFIG_KEYS = {"nodes", "forwarding", "legacy_forwarding",
                    "owner_read_policy", "cache_capacity_blocks"}


def check_lint(doc):
    if not isinstance(doc, dict):
        return "top level is not an object"
    if doc.get("format") != "cosmos-lint-v1":
        return f"unexpected format field: {doc.get('format')!r}"
    config = doc.get("config")
    if not isinstance(config, dict):
        return "missing \"config\" object"
    missing = LINT_CONFIG_KEYS - config.keys()
    if missing:
        return f"config missing keys: {sorted(missing)}"
    mutation = doc.get("mutation")
    if mutation not in LINT_STATIC_KINDS | {"none"}:
        return f"unknown mutation {mutation!r}"
    for key in ("rows", "unreachable_rows"):
        if not (isinstance(doc.get(key), int) and doc[key] >= 0):
            return f"missing or negative integer {key!r}"
    if doc["rows"] <= 0:
        return "the analyzed table has no live rows"
    findings = doc.get("findings")
    if not isinstance(findings, list):
        return "missing \"findings\" array"
    if not isinstance(doc.get("clean"), bool):
        return "missing boolean \"clean\""
    if doc["clean"] != (len(findings) == 0):
        return "\"clean\" verdict disagrees with the finding list"
    for i, f in enumerate(findings):
        if not isinstance(f, dict):
            return f"finding {i} is not an object"
        if f.get("kind") not in LINT_STATIC_KINDS:
            return f"finding {i} has unknown kind {f.get('kind')!r}"
        if f.get("role") not in ("cache", "directory"):
            return f"finding {i} has unknown role {f.get('role')!r}"
        if not isinstance(f.get("detail"), str):
            return f"finding {i} missing \"detail\""
        rows = f.get("rows")
        if not isinstance(rows, list):
            return f"finding {i} missing \"rows\" array"
        for j, r in enumerate(rows):
            if not isinstance(r, dict) or \
                    not isinstance(r.get("where"), str) or \
                    not isinstance(r.get("row"), str):
                return f"finding {i} row ref {j} is malformed"
            if ":" not in r["where"]:
                return (f"finding {i} row ref {j} carries no "
                        f"file:line provenance: {r['where']!r}")
    return None


FORGE_PARAM_KEYS = {"procs", "blocks", "migratory", "false",
                    "private", "readonly", "producer_consumer",
                    "fanout", "phase", "seed"}

FORGE_CLASS_KEYS = {"class", "blocks", "records", "cache_pct",
                    "directory_pct", "overall_pct", "census_seen",
                    "census_agree"}

FORGE_CLASSES = {"private", "read-only", "migratory",
                 "producer-consumer", "false-sharing"}


def check_forge(doc):
    if not isinstance(doc, dict):
        return "top level is not an object"
    if doc.get("format") != "cosmos-forge-v1":
        return f"unexpected format field: {doc.get('format')!r}"
    params = doc.get("params")
    if not isinstance(params, dict):
        return "missing \"params\" object"
    missing = FORGE_PARAM_KEYS - params.keys()
    if missing:
        return f"params missing keys: {sorted(missing)}"
    fractions = sum(params[k] for k in
                    ("migratory", "false", "private", "readonly",
                     "producer_consumer"))
    if not 0.99 <= fractions <= 1.01:
        return f"class fractions sum to {fractions}, not 1"
    for key in ("depth", "filter", "nodes", "iterations", "messages"):
        if not isinstance(doc.get(key), int):
            return f"missing or non-integer {key!r}"
    if not isinstance(doc.get("overall_pct"), (int, float)):
        return "missing numeric \"overall_pct\""
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes:
        return "missing or empty \"classes\" array"
    records = 0
    for i, c in enumerate(classes):
        if not isinstance(c, dict):
            return f"class row {i} is not an object"
        missing = FORGE_CLASS_KEYS - c.keys()
        if missing:
            return f"class row {i} missing keys: {sorted(missing)}"
        if c["class"] not in FORGE_CLASSES:
            return f"class row {i} has unknown class {c['class']!r}"
        for key in ("cache_pct", "directory_pct", "overall_pct"):
            if not 0 <= c[key] <= 100:
                return (f"class row {i} {key!r} {c[key]} outside "
                        f"[0, 100]")
        if c["census_agree"] > c["census_seen"]:
            return (f"class row {i}: census agreement exceeds "
                    f"blocks seen")
        if c["census_seen"] > c["blocks"]:
            return (f"class row {i}: census saw more blocks than "
                    f"exist in the class")
        records += c["records"]
    if records != doc["messages"]:
        return (f"per-class records sum to {records}, not the "
                f"message total {doc['messages']}")
    return None


BENCH_BATCH_KEYS = {"depth", "prefetch_distance", "window",
                    "group_bits"}

BENCH_CELL_KEYS = {"mode", "depth", "reps", "seconds",
                   "messages_per_sec"}

BENCH_SWEEP_KEYS = {"threads", "cells", "messages", "seconds",
                    "messages_per_sec"}


def check_bench(doc):
    if not isinstance(doc, dict):
        return "top level is not an object"
    if doc.get("schema") != "cosmos-bench-predictor-v3":
        return f"unexpected schema field: {doc.get('schema')!r}"
    if doc.get("goldens") != "pass":
        return f"goldens did not pass: {doc.get('goldens')!r}"
    if not isinstance(doc.get("golden_cells"), int) \
            or doc["golden_cells"] <= 0:
        return "missing positive integer \"golden_cells\""
    batch = doc.get("batch")
    if not isinstance(batch, dict):
        return "missing \"batch\" object"
    missing = BENCH_BATCH_KEYS - batch.keys()
    if missing:
        return f"batch missing keys: {sorted(missing)}"
    serial = doc.get("serial_dsmc")
    if not isinstance(serial, dict):
        return "missing \"serial_dsmc\" object"
    if not isinstance(serial.get("records"), int):
        return "serial_dsmc missing integer \"records\""
    cells = serial.get("cells")
    if not isinstance(cells, list) or not cells:
        return "serial_dsmc has no cells"
    modes = set()
    for i, c in enumerate(cells):
        if not isinstance(c, dict):
            return f"serial cell {i} is not an object"
        missing = BENCH_CELL_KEYS - c.keys()
        if missing:
            return f"serial cell {i} missing keys: {sorted(missing)}"
        if c["mode"] not in ("scalar", "batched"):
            return f"serial cell {i} has unknown mode {c['mode']!r}"
        if c["messages_per_sec"] <= 0:
            return f"serial cell {i} reports no throughput"
        modes.add(c["mode"])
    if modes != {"scalar", "batched"}:
        return f"serial cells cover modes {sorted(modes)}, " \
               f"need both scalar and batched"
    sweep = doc.get("sweep")
    if not isinstance(sweep, dict):
        return "missing \"sweep\" object"
    missing = BENCH_SWEEP_KEYS - sweep.keys()
    if missing:
        return f"sweep missing keys: {sorted(missing)}"
    return None


FORWARDING_CELL_KEYS = {"mode", "time", "cache_pct", "directory_pct",
                        "overall_pct", "forwards_sent",
                        "forwards_suppressed", "fwd_acks",
                        "fwd_queries", "fwd_granted",
                        "measured_speedup_pct", "model_speedup_pct"}

FORWARDING_MODES = {"never", "always", "predicted"}


def check_forwarding(doc):
    if not isinstance(doc, dict):
        return "top level is not an object"
    if doc.get("schema") != "cosmos-bench-forwarding-v1":
        return f"unexpected schema field: {doc.get('schema')!r}"
    apps = doc.get("apps")
    if not isinstance(apps, list) or not apps:
        return "missing or empty \"apps\" array"
    for i, a in enumerate(apps):
        if not isinstance(a, dict) or not isinstance(a.get("app"),
                                                     str):
            return f"app row {i} is malformed"
        cells = a.get("cells")
        if not isinstance(cells, list):
            return f"app {a['app']!r} has no cells"
        modes = set()
        for j, c in enumerate(cells):
            if not isinstance(c, dict):
                return f"app {a['app']!r} cell {j} is not an object"
            missing = FORWARDING_CELL_KEYS - c.keys()
            if missing:
                return (f"app {a['app']!r} cell {j} missing keys: "
                        f"{sorted(missing)}")
            if c["mode"] not in FORWARDING_MODES:
                return (f"app {a['app']!r} cell {j} has unknown mode "
                        f"{c['mode']!r}")
            if c["time"] <= 0:
                return f"app {a['app']!r} cell {c['mode']} ran no time"
            if c["fwd_acks"] != c["forwards_sent"]:
                return (f"app {a['app']!r} cell {c['mode']}: fwd_ack "
                        f"count disagrees with forwards sent -- the "
                        f"handshake did not close")
            if c["mode"] == "never" and c["forwards_sent"] != 0:
                return (f"app {a['app']!r}: the never cell forwarded "
                        f"{c['forwards_sent']} transfers")
            if c["mode"] == "predicted" and \
                    c["fwd_granted"] > c["fwd_queries"]:
                return (f"app {a['app']!r}: predicted cell granted "
                        f"more forwards than it was queried for")
            modes.add(c["mode"])
        if modes != FORWARDING_MODES:
            return (f"app {a['app']!r} covers modes {sorted(modes)}, "
                    f"need never/always/predicted")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--schema", default="any",
                    choices=["any", "metrics", "chrome-trace",
                             "fuzz", "model", "forge", "bench",
                             "forwarding", "lint"])
    ap.add_argument("files", nargs="+", metavar="FILE")
    args = ap.parse_args()

    for path in args.files:
        try:
            with open(path, "rb") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            print(f"check_json: {path}: {e}", file=sys.stderr)
            return 1
        error = None
        if args.schema == "metrics":
            error = check_metrics(doc)
        elif args.schema == "chrome-trace":
            error = check_chrome_trace(doc)
        elif args.schema == "fuzz":
            error = check_fuzz(doc)
        elif args.schema == "model":
            error = check_model(doc)
        elif args.schema == "forge":
            error = check_forge(doc)
        elif args.schema == "bench":
            error = check_bench(doc)
        elif args.schema == "forwarding":
            error = check_forwarding(doc)
        elif args.schema == "lint":
            error = check_lint(doc)
        if error:
            print(f"check_json: {path}: {error}", file=sys.stderr)
            return 1
        print(f"check_json: {path}: OK ({args.schema})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
