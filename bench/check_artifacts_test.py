#!/usr/bin/env python3
"""Mutation test for check_artifacts.py.

Every original artifact must pass the gates CI applies to it, and every
mutant of it (one targeted defect each: a dropped key, a bool where a number
belongs, a wrong schema_version, a backwards timestamp, swapped quantiles, a
closure or ratio past its bound, a missing stage, ...) must fail. A checker
that accepts a mutant has lost a check.

Usage: check_artifacts_test.py [CASE=FILE ...]

With no arguments it runs the committed-artifact cases (BENCH_netplane.json,
BENCH_tailtrace.json, BENCH_soak.json, BENCH_overhead.json, and
BENCH_hotpath.json with bench/perf_baseline.json). CASE=FILE also runs a
fresh artifact that has no committed copy; CASE is one of the FRESH keys
below (e.g. `forensics=forensics.json timeline=timeline.json`).
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

import check_artifacts

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


# --- mutation helpers -------------------------------------------------------

def walk(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def setv(*keys, value):
    def mutate(doc, baseline):
        walk(doc, keys[:-1])[keys[-1]] = value
    return mutate


def drop(*keys):
    def mutate(doc, baseline):
        del walk(doc, keys[:-1])[keys[-1]]
    return mutate


def scale(*keys, by):
    def mutate(doc, baseline):
        walk(doc, keys[:-1])[keys[-1]] *= by
    return mutate


def on_baseline(mutation):
    return lambda doc, baseline: mutation(baseline, None)


def swap(*keys, a, b):
    def mutate(doc, baseline):
        block = walk(doc, keys)
        block[a], block[b] = block[b], block[a]
    return mutate


def each(*keys, fn):
    """Applies fn to every element of the list at keys."""
    def mutate(doc, baseline):
        for item in walk(doc, keys):
            fn(item)
    return mutate


def verdict(series, **fields):
    def mutate(doc, baseline):
        for v in doc["verdicts"]:
            if v["series"] == series:
                v.update(fields)
    return mutate


def received_over_sent(*keys):
    def mutate(doc, baseline):
        point = walk(doc, keys)
        point["received"] = point["sent"] + 1
    return mutate


def cap_saturation(limit):
    def mutate(doc, baseline):
        for sweep in doc["sweeps"]:
            for point in sweep["points"]:
                point["achieved_qps"] = min(point["achieved_qps"], limit)
            sweep["saturation_ops_per_sec"] = max(
                p["achieved_qps"] for p in sweep["points"])
    return mutate


def series(name, fn):
    def mutate(doc, baseline):
        fn(next(s for s in doc["series"] if s["name"] == name))
    return mutate


def first_nonempty_series(fn):
    def mutate(doc, baseline):
        fn(next(s for s in doc["series"] if len(s["points"]) >= 2))
    return mutate


def diff_phase_delta(by):
    def mutate(doc, baseline):
        doc["diff"]["phases"][0]["delta_cycles_per_op"] += by
    return mutate


def address_dropped(doc, baseline):
    doc["fault"]["has_address"] = True
    doc["fault"].pop("address", None)


def append(*keys, value):
    return lambda doc, baseline: walk(doc, keys).append(value)


# --- cases ------------------------------------------------------------------
#
# (kind, gates, baseline?, [(label, mutation), ...]); the baseline is
# bench/perf_baseline.json, passed with --baseline so it can be mutated too.

P0 = ("sweeps", 0, "points", 0)
CELL = ("cells", 0)
TAIL = ("cells", 0, "tail")
FAULT_TAIL = ("fault", "tailtrace")
ARENA = "resource.checkpoint.arena.bytes"
OUTBUF = "resource.net.outbuf.bytes"

COMMITTED = {
    "netplane": ("BENCH_netplane.json", "netplane", [
        "--min-saturation", "35500", "--min-systems", "2",
        "--require-substrates", "--require-high-conns", "1000",
        "--require-fault-timeline"], False, [
        ("missing required key", drop(*P0, "ok")),
        ("schema_version 2", setv("schema_version", value=2)),
        ("unknown mode", setv("mode", value="bogus")),
        ("wrong bench", setv("bench", value="soak")),
        ("bool in number field", setv(*P0, "dropped", value=True)),
        ("point answered nothing", setv(*P0, "ok", value=0)),
        ("received > sent", received_over_sent(*P0)),
        ("swapped quantiles", swap(*P0, "latency_us", a="p50", b="p99")),
        ("negative latency", setv(*P0, "latency_us", "mean", value=-1)),
        ("p999 above max", scale(*P0, "latency_us", "p999", by=1e6)),
        ("offered load not increasing",
         setv("sweeps", 0, "points", 1, "offered_qps_target", value=0)),
        ("empty sweep", setv("sweeps", 0, "points", value=[])),
        ("saturation != max achieved",
         scale("sweeps", 0, "saturation_ops_per_sec", by=2)),
        ("--min-saturation", cap_saturation(30000)),
        ("--min-systems", each("sweeps", fn=lambda s: s.update(system="R"))),
        ("--require-substrates",
         each("sweeps", fn=lambda s: s.update(substrate="arthas"))),
        ("--require-high-conns",
         setv("high_connections", "point", "connections", value=999)),
        ("high_connections missing", drop("high_connections")),
        ("batch_ab ratio not a number",
         setv("batch_ab", "batched_over_unbatched", value="2x")),
        ("--require-fault-timeline: not recovered",
         setv("fault_timeline", "recovered", value=False)),
        ("--require-fault-timeline: null time_to_detect",
         setv("fault_timeline", "timeline", "time_to_detect_ns", value=None)),
        ("fault_timeline missing", drop("fault_timeline")),
    ]),
    "tailtrace": ("BENCH_tailtrace.json", "tailtrace", [
        "--require-fault", "--min-cells", "12"], False, [
        ("missing stage", drop(*TAIL, "stages_us", "drain")),
        ("schema_version 2", setv("schema_version", value=2)),
        ("bool in number field", setv(*TAIL, "stages_us", "flush",
                                      value=True)),
        ("negative stage", setv(*TAIL, "stages_us", "flush", value=-1)),
        ("aggregate closure below floor",
         lambda d, b: walk(d, TAIL).update(
             stage_sum_mean_us=0.5 * walk(d, TAIL)["slow_e2e_mean_us"])),
        ("closure_min below floor", setv(*TAIL, "closure_min", value=0.5)),
        ("per-request closure below floor",
         setv(*TAIL, "slow_requests", 0, "stages", value={})),
        ("no slow request", setv(*TAIL, "slow_count", value=0)),
        ("zero trace id", setv(*TAIL, "slow_requests", 0, "trace_id",
                               value=0)),
        ("no exemplar resolved", setv(*CELL, "exemplars", "resolved",
                                      value=0)),
        ("nothing traced", setv(*CELL, "traced", value=0)),
        ("unknown load", setv(*CELL, "load", value="middle")),
        ("point answered nothing", setv(*CELL, "point", "ok", value=0)),
        ("point received > sent", received_over_sent(*CELL, "point")),
        ("point swapped quantiles",
         swap(*CELL, "point", "latency_us", a="p50", b="p999")),
        ("--min-cells", lambda d, b: d["cells"].pop()),
        ("--min-closure", lambda d, b: None, ["--min-closure", "1.01"]),
        ("--require-fault: not recovered",
         setv("fault", "recovered", value=False)),
        ("--require-fault: no faulted trace",
         setv(*FAULT_TAIL, "faulted_traces", value=0)),
        ("--require-fault: no detector+reactor time",
         lambda d, b: walk(d, FAULT_TAIL)["stages_us"].update(
             detector=0, reactor=0)),
        ("fault cell missing", drop("fault")),
    ]),
    "soak": ("BENCH_soak.json", "soak", ["--min-duration-s", "300"], False, [
        ("missing required key", drop("config", "version_budget")),
        ("schema_version 2", setv("schema_version", value=2)),
        ("bool in number field", setv("config", "target_qps", value=True)),
        ("--min-duration-s", setv("config", "duration_s", value=200)),
        ("backwards timestamp",
         series(ARENA, lambda s: s["points"][1].update(
             t_ns=s["points"][0]["t_ns"] - 1))),
        ("repeated timestamp",
         series(ARENA, lambda s: s["points"][1].update(
             t_ns=s["points"][0]["t_ns"]))),
        ("--min-points", series(ARENA, lambda s: s.update(
            points=s["points"][:5]))),
        ("fitted series not retained",
         lambda d, b: d.update(series=[s for s in d["series"]
                                       if s["name"] != ARENA])),
        ("arena not linear-growth", verdict(ARENA, **{"class": "flat"})),
        ("outbuf growing", verdict(OUTBUF, **{"class": "linear-growth",
                                              "slope_per_sec": 5})),
        ("forecast on a flat verdict",
         verdict(OUTBUF, time_to_budget_sec=10, budget=1e9)),
        ("unknown class token", verdict(OUTBUF, **{"class": "steady"})),
        ("growth with non-positive slope", verdict(ARENA, slope_per_sec=0)),
        ("forecast without headroom", verdict(ARENA, budget=1)),
        ("budget without forecast", verdict(ARENA, time_to_budget_sec=-1)),
        ("resources.enabled not bool", setv("resources", "enabled", value=1)),
        ("slo window missing key",
         drop("slo", "targets", 0, "windows", 0, "complete")),
        ("CAPACITY failed over the wire",
         setv("capacity_over_wire", "ok", value=False)),
        ("CAPACITY returned no cells",
         setv("capacity_over_wire", "cells", value=0)),
        ("--max-accountant-ratio",
         setv("accountant_overhead", "on_off_ratio", value=1.2)),
        ("load answered nothing", setv("load", "ok", value=0)),
        ("load received > sent", received_over_sent("load")),
        ("load swapped quantiles",
         swap("load", "latency_us", a="p50", b="p99")),
        ("load negative latency", setv("load", "latency_us", "p50",
                                       value=-1)),
    ]),
    "overhead-sharded": ("BENCH_overhead.json", "overhead", [
        "--mode", "thread-sweep", "--lock-mode", "sharded"], False, [
        ("wrong mode", setv("mode", value="single_threaded")),
        ("--lock-mode", setv("lock_mode", value="coarse")),
        ("system missing", lambda d, b: d["systems"].pop()),
        ("missing thread count", lambda d, b: d["systems"][0]["rows"].pop()),
        ("missing arthas_cycles_per_op",
         drop("systems", 0, "rows", 1, "arthas_cycles_per_op")),
        ("missing arthas_efficiency",
         drop("systems", 2, "rows", 0, "arthas_efficiency")),
    ]),
    "hotpath": ("BENCH_hotpath.json", "hotpath", [], True, [
        ("ratio above tolerance",
         lambda d, b: [v.update(ns_per_op=v["ns_per_op"] * 1.2)
                       for v in d["variants"] if v["name"] == "new"]),
        ("legacy variant missing",
         lambda d, b: d.update(variants=[v for v in d["variants"]
                                         if v["name"] != "legacy"])),
        ("baseline ratio lowered",
         on_baseline(scale("hotpath", "new_ns_per_op", by=0.8))),
    ]),
}

FRESH = {
    "forensics": ("forensics", [], False, [
        ("missing required key", drop("crash", "count")),
        ("schema_version 3", setv("schema_version", value=3)),
        ("bool in number field", setv("device_id", value=True)),
        ("no analyzed crash", setv("present", value=False)),
        ("v2 without open_sections", drop("open_sections")),
        ("has_address without address", address_dropped),
        ("unknown durability gap",
         append("lost_lines", value={
             "line_offset": 0, "missing": "evaporated", "last_writer_tid": 0,
             "last_writer_seq": 0, "last_writer_event": "", "tx_id": 0,
             "undo_covered": False, "durable_prefix": ""})),
        ("edge missing 'to'", append("persist_order", "edges",
                                     value={"from": 1})),
    ]),
    "forensics-fase": ("forensics", ["--require-rolled-back-section"], False, [
        ("no open section", setv("open_sections", value=[])),
        ("nothing rolled back",
         each("open_sections", fn=lambda s: s.update(rolled_back=False))),
        ("section missing key", drop("open_sections", 0, "aborted")),
    ]),
    "timeline": ("timeline", ["--require-recovery"], False, [
        ("missing required key", drop("throughput_series")),
        ("schema_version 2", setv("schema_version", value=2)),
        ("bool in number field", setv("samples", value=True)),
        ("backwards timestamp", first_nonempty_series(
            lambda s: s["points"][1].update(t_ns=s["points"][0]["t_ns"] - 1))),
        ("unknown series kind", setv("series", 0, "kind", value="meter")),
        ("total_points below exported",
         setv("series", 0, "total_points", value=0)),
        ("detector before fault",
         lambda d, b: d["analysis"].update(
             detector_fired_ns=d["analysis"]["fault_injected_ns"] - 1)),
        ("recovery without fault marker",
         setv("analysis", "fault_injected_ns", value=None)),
        ("analysis value not number or null",
         setv("analysis", "reversion_done_ns", value="soon")),
        ("--require-recovery: no fault",
         setv("analysis", "has_fault", value=False)),
        ("--require-recovery: null time_to_recover",
         setv("analysis", "time_to_recover_ns", value=None)),
    ]),
    "profile": ("profile", ["--require-diff"], False, [
        ("schema_version 2", setv("schema_version", value=2)),
        ("non-positive cycles_per_ns", setv("cycles_per_ns", value=0)),
        ("no variants", setv("variants", value=[])),
        ("missing phase", lambda d, b: d["variants"][0]["phases"].pop()),
        ("renamed phase", setv("variants", 0, "phases", 0, "name",
                               value="lock")),
        ("exclusive > inclusive",
         lambda d, b: walk(d, ("variants", 0, "phases", 0)).update(
             exclusive_cycles=walk(d, ("variants", 0, "phases", 0))[
                 "inclusive_cycles"] + 1)),
        ("no calls", each("variants", 0, "phases",
                          fn=lambda p: p.update(calls=0))),
        ("--require-diff: diff missing", drop("diff")),
        ("--require-diff: deltas do not close", diff_phase_delta(1e6)),
        ("--require-diff: reported gap disagrees",
         scale("diff", "attributed_gap_cycles_per_op", by=3)),
    ]),
    "overhead-recorder": ("overhead", ["--mode", "recorder"], True, [
        ("wrong mode", setv("mode", value="substrate_overhead")),
        ("sampler section missing", drop("sampler")),
        ("system missing on_off_ratio",
         drop("profiler", "systems", 0, "on_off_ratio")),
    ] + [(f"{key} ratio above ceiling",
          setv(key, "worst_on_off_ratio", value=1.5))
         for key in check_artifacts.ON_OFF_SECTIONS] + [
        ("baseline ceiling lowered",
         on_baseline(setv("recorder", "max_on_off_ratio", value=0.5))),
    ]),
    "overhead-substrate": ("overhead", ["--mode", "substrate"], True, [
        ("wrong mode", setv("mode", value="recorder_overhead")),
        ("fase below floor",
         setv("substrates", "fase", "min_vanilla_ratio", value=0.1)),
        ("substrate without floor",
         lambda d, b: d["substrates"].update(pmcriu={"min_vanilla_ratio": 1})),
        ("baseline floor raised",
         on_baseline(setv("substrates", "arthas", "min_vanilla_ratio",
                          value=2.0))),
    ]),
    "overhead-threads": ("overhead", ["--mode", "thread-sweep"], False, [
        ("wrong mode", setv("mode", value="recorder_overhead")),
        ("system missing", lambda d, b: d["systems"].pop()),
        ("missing thread count", lambda d, b: d["systems"][4]["rows"].pop()),
    ]),
    "metrics": ("metrics", [], False, [
        ("flush count zero", setv("counters", "pmem.flush.count", value=0)),
        ("flush count missing", drop("counters", "pmem.flush.count")),
        ("counters missing", drop("counters")),
    ]),
    "chrome-trace": ("chrome-trace", [], False, [
        ("traceEvents missing", drop("traceEvents")),
    ]),
}


def cases(fresh_paths):
    """Yields (case, path, kind, gates, baseline?, mutants)."""
    for case, (name, kind, gates, base, mutants) in COMMITTED.items():
        yield case, os.path.join(ROOT, name), kind, gates, base, mutants
    for case, path in fresh_paths.items():
        kind, gates, base, mutants = FRESH[case]
        yield case, path, kind, gates, base, mutants


def run_checker(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = check_artifacts.main(argv)
    return code, out.getvalue().strip()


def main(argv):
    fresh = dict(arg.split("=", 1) for arg in argv)
    unknown = set(fresh) - set(FRESH)
    if unknown:
        print(f"unknown case(s) {sorted(unknown)}; known: {sorted(FRESH)}")
        return 2
    with open(os.path.join(BENCH, "perf_baseline.json")) as f:
        baseline = json.load(f)
    failures = 0
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case, path, kind, gates, base, mutants in cases(fresh):
            with open(path) as f:
                original = json.load(f)
            variants = [("original", None, [])] + [
                (m[0], m[1], m[2] if len(m) > 2 else []) for m in mutants]
            for label, mutation, extra in variants:
                doc, base_doc = copy.deepcopy(original), copy.deepcopy(baseline)
                if mutation is not None:
                    mutation(doc, base_doc)
                doc_path = os.path.join(tmp, "artifact.json")
                base_path = os.path.join(tmp, "baseline.json")
                for out_path, value in ((doc_path, doc), (base_path, base_doc)):
                    with open(out_path, "w") as f:
                        json.dump(value, f)
                args = [kind, doc_path] + gates + extra
                if base:
                    args += ["--baseline", base_path]
                code, output = run_checker(args)
                want = 0 if mutation is None else 1
                total += 1
                if code != want:
                    failures += 1
                    verdict_text = "accepted" if code == 0 else "rejected"
                    print(f"MISMATCH {case} [{label}]: checker {verdict_text}"
                          f": {output}")
    print(f"{'FAIL' if failures else 'OK'}: {total - failures}/{total} "
          "originals accepted and mutants rejected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
