#!/usr/bin/env python3
"""One validator for every measured artifact the benches write.

Usage: check_artifacts.py <kind> <file> [gates]

Kinds (run `check_artifacts.py <kind> -h` for each kind's gates):

  forensics     crash report from `--forensics-json` (schema v1 or v2)
  timeline      recovery timeline from `--timeline-json` (schema v1)
  profile       phase profile from `bench_hotpath --profile-json`
  netplane      open-loop sweep artifact from `bench_netplane`
  tailtrace     tail-attribution artifact from `bench_netplane --tailtrace-json`
  soak          capacity-soak artifact from `bench_soak`
  hotpath       `bench_hotpath` ns/op, gated against bench/perf_baseline.json
  overhead      `bench_overhead` artifact: --mode recorder | substrate |
                thread-sweep
  metrics       registry snapshot from `--metrics-json`
  chrome-trace  Chrome trace from `--trace-json`

Every check raises SchemaError with a JSON path ("$.sweeps[0].points[3].ok")
on the first violation; the script then prints FAIL and exits 1. Python
standard library only.
"""

import argparse
import json
import os
import sys

NUMBER = (int, float)
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "perf_baseline.json")


class SchemaError(Exception):
    pass


def expect(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


# --- shared idioms ----------------------------------------------------------

def is_number(value):
    # bool is an int subclass in Python; a JSON true is never a number here.
    return isinstance(value, NUMBER) and not isinstance(value, bool)


def type_name(kind):
    return "number" if kind is NUMBER else kind.__name__


def check_keys(obj, path, fields):
    """Every key in `fields` is present with its type (NUMBER, bool, str,
    dict or list)."""
    expect(isinstance(obj, dict), path,
           f"expected object, got {type(obj).__name__}")
    for key, kind in fields.items():
        expect(key in obj, path, f"missing required key '{key}'")
        value = obj[key]
        ok = is_number(value) if kind is NUMBER else isinstance(value, kind)
        expect(ok, f"{path}.{key}",
               f"expected {type_name(kind)}, got {type(value).__name__}")


def check_nonempty_list(value, path):
    expect(isinstance(value, list) and value, path,
           "must be a non-empty array")


def check_version(doc, allowed=(1,)):
    check_keys(doc, "$", {"schema_version": NUMBER})
    expect(doc["schema_version"] in allowed, "$.schema_version",
           f"unsupported version {doc['schema_version']}, "
           f"expected one of {list(allowed)}")


def check_increasing(values, path, strict):
    """`values` is a list of (path, value); each value must be >= (or, when
    strict, >) the one before it."""
    last = None
    for vpath, value in values:
        if last is not None:
            expect(value > last if strict else value >= last, vpath,
                   f"went backwards ({value} after {last})" if value < last
                   else f"repeated ({value}); must be strictly increasing")
        last = value


def check_quantiles(block, path):
    """One histogram's latency block: non-negative, p50 <= ... <= max."""
    keys = ("p50", "p95", "p99", "p999", "max")
    check_keys(block, path, dict.fromkeys(("mean",) + keys, NUMBER))
    for key in ("mean",) + keys:
        expect(block[key] >= 0, f"{path}.{key}", "must be >= 0")
    check_increasing([(f"{path}.{k}", block[k]) for k in keys], path,
                     strict=False)


def check_closure(covered, total, floor, path, what):
    expect(covered >= floor * total, path,
           f"{what} {covered:.6g} covers {covered / total if total else 0:.3f}"
           f" of {total:.6g}, need >= {floor}")


def check_ceiling(value, limit, path, what):
    expect(value <= limit, path, f"{what} {value:.3f} exceeds {limit}")


LOAD_POINT_KEYS = ("offered_qps_target", "connections", "offered_qps",
                   "achieved_qps", "sent", "received", "ok", "errors",
                   "faults", "dropped")


def check_load_point(point, path):
    """One LoadGenReport block (netplane points, tailtrace cell points, the
    soak load)."""
    check_keys(point, path, dict.fromkeys(LOAD_POINT_KEYS, NUMBER))
    expect(point["ok"] > 0, f"{path}.ok", "point answered no requests")
    expect(point["received"] <= point["sent"], path,
           "received more replies than requests sent")
    check_quantiles(point.get("latency_us"), f"{path}.latency_us")


def check_header(doc, bench):
    expect(isinstance(doc, dict) and doc.get("bench") == bench, "$.bench",
           f"must be '{bench}'")
    check_version(doc)
    expect(doc.get("mode") in ("full", "quick"), "$.mode",
           "must be 'full' or 'quick'")


# --- forensics --------------------------------------------------------------

def check_forensics(doc, args):
    check_keys(doc, "$", {
        "schema_version": NUMBER, "present": bool, "device_id": NUMBER,
        "summary": str, "crash": dict, "fault": dict, "lost_lines": list,
        "open_transactions": list, "reactor_candidates": list,
        "persist_order": dict,
    })
    check_version(doc, (1, 2))
    if doc["schema_version"] >= 2:
        expect("open_sections" in doc, "$",
               "missing required key 'open_sections'")
    sections = doc.get("open_sections", [])
    for i, sec in enumerate(sections):
        check_keys(sec, f"$.open_sections[{i}]", {
            "section_id": NUMBER, "tid": NUMBER, "begin_seq": NUMBER,
            "aborted": bool, "rolled_back": bool,
        })
    check_keys(doc["crash"], "$.crash", dict.fromkeys(
        ("seq", "count", "events_analyzed", "events_dropped"), NUMBER))
    check_keys(doc["fault"], "$.fault", {"guid": NUMBER, "has_address": bool})
    if doc["fault"]["has_address"]:
        expect("address" in doc["fault"], "$.fault",
               "has_address without address")
    for i, line in enumerate(doc["lost_lines"]):
        lpath = f"$.lost_lines[{i}]"
        check_keys(line, lpath, {
            "line_offset": NUMBER, "missing": str, "last_writer_tid": NUMBER,
            "last_writer_seq": NUMBER, "last_writer_event": str,
            "tx_id": NUMBER, "undo_covered": bool, "durable_prefix": str,
        })
        expect(line["missing"] in ("never_flushed", "flushed_not_drained"),
               f"{lpath}.missing",
               f"unknown durability gap '{line['missing']}'")
    for i, tx in enumerate(doc["open_transactions"]):
        check_keys(tx, f"$.open_transactions[{i}]", dict.fromkeys(
            ("tx_id", "tid", "begin_seq", "ranges", "undo_bytes",
             "lost_lines"), NUMBER))
    for i, cand in enumerate(doc["reactor_candidates"]):
        check_keys(cand, f"$.reactor_candidates[{i}]", {
            "checkpoint_seq": NUMBER, "rank": NUMBER, "accepted": bool,
            "reason": str, "event_seq": NUMBER,
        })
    order = doc["persist_order"]
    check_keys(order, "$.persist_order", {"events": list, "edges": list})
    for i, ev in enumerate(order["events"]):
        check_keys(ev, f"$.persist_order.events[{i}]", {
            "seq": NUMBER, "tid": NUMBER, "type": str, "addr": NUMBER,
            "size": NUMBER, "arg": NUMBER, "reason": str,
        })
    for i, edge in enumerate(order["edges"]):
        check_keys(edge, f"$.persist_order.edges[{i}]",
                   {"from": NUMBER, "to": NUMBER})
    expect(doc["present"], "$.present",
           "schema-valid but reports no analyzed crash")
    if args.require_rolled_back_section:
        expect(doc["schema_version"] >= 2 and sections, "$.open_sections",
               "no open failure-atomic section at crash")
        expect(any(sec["rolled_back"] for sec in sections), "$.open_sections",
               "no open section was rolled back by recovery")
    return (f"v{doc['schema_version']}, crash #{doc['crash']['count']}, "
            f"{len(doc['lost_lines'])} lost line(s), {len(sections)} open "
            f"section(s), {len(doc['reactor_candidates'])} candidate(s)")


# --- timeline ---------------------------------------------------------------

def check_timeline(doc, args):
    check_keys(doc, "$", {
        "schema_version": NUMBER, "interval_ns": NUMBER, "start_ns": NUMBER,
        "samples": NUMBER, "series": list, "markers": list, "analysis": dict,
        "throughput_series": str,
    })
    check_version(doc)
    for i, series in enumerate(doc["series"]):
        path = f"$.series[{i}]"
        check_keys(series, path, {"name": str, "kind": str,
                                  "total_points": NUMBER, "points": list})
        expect(series["kind"] in ("counter", "gauge", "probe"),
               f"{path}.kind", f"unknown series kind '{series['kind']}'")
        points = series["points"]
        expect(series["total_points"] >= len(points), f"{path}.total_points",
               "fewer total points than exported points")
        for j, point in enumerate(points):
            check_keys(point, f"{path}.points[{j}]",
                       {"t_ns": NUMBER, "v": NUMBER})
        # The sampler appends in tick order and the ring export rotates
        # oldest first, so a decrease means a broken export.
        check_increasing([(f"{path}.points[{j}].t_ns", p["t_ns"])
                          for j, p in enumerate(points)], path, strict=False)
    for i, marker in enumerate(doc["markers"]):
        check_keys(marker, f"$.markers[{i}]", {"name": str, "t_ns": NUMBER})

    analysis = doc["analysis"]
    check_keys(analysis, "$.analysis", {
        "has_fault": bool, "pre_fault_rate_ops_per_sec": NUMBER,
        "floor_rate_ops_per_sec": NUMBER,
    })
    for key in ("fault_injected_ns", "detector_fired_ns", "reversion_done_ns",
                "throughput_collapse_ns", "throughput_floor_ns",
                "throughput_recovered_ns", "time_to_detect_ns",
                "time_to_recover_ns"):
        expect(key in analysis, "$.analysis", f"missing required key '{key}'")
        expect(analysis[key] is None or is_number(analysis[key]),
               f"$.analysis.{key}", "expected number or null")
    # The paper's detect-then-revert-then-recover order.
    fault = analysis["fault_injected_ns"]
    for key in ("detector_fired_ns", "throughput_recovered_ns"):
        if analysis[key] is not None:
            expect(fault is not None, f"$.analysis.{key}",
                   "set without a fault_injected marker")
            expect(fault <= analysis[key], f"$.analysis.{key}",
                   f"precedes the fault ({analysis[key]} < {fault})")
    if args.require_recovery:
        expect(analysis["has_fault"], "$.analysis.has_fault", "saw no fault")
        for key in ("time_to_detect_ns", "time_to_recover_ns"):
            expect(analysis[key] is not None, f"$.analysis.{key}",
                   "recovery incomplete")
    ttd, ttr = analysis["time_to_detect_ns"], analysis["time_to_recover_ns"]
    return (f"{len(doc['series'])} series, {doc['samples']} samples, "
            f"time-to-detect={ttd}, time-to-recover={ttr} ns")


# --- profile ----------------------------------------------------------------

# Must match ProfPhaseName() over the ProfPhase enum in src/obs/profiler.h.
PHASES = ["lock_wait", "index_lookup", "arena_copy", "flush", "drain",
          "bookkeeping", "obs_hook"]
DIFF_CLOSURE_TOLERANCE = 0.05


def check_profile(doc, args):
    check_keys(doc, "$", {"cycles_per_ns": NUMBER})
    check_version(doc)
    expect(doc["cycles_per_ns"] > 0, "$.cycles_per_ns", "must be positive")
    check_nonempty_list(doc.get("variants"), "$.variants")
    for i, variant in enumerate(doc["variants"]):
        vpath = f"$.variants[{i}]"
        check_keys(variant, vpath, {"phases": list})
        phases = variant["phases"]
        for j, phase in enumerate(phases):
            ppath = f"{vpath}.phases[{j}]"
            check_keys(phase, ppath, {
                "name": str, "exclusive_cycles": NUMBER,
                "inclusive_cycles": NUMBER, "calls": NUMBER,
            })
            for key in ("exclusive_cycles", "inclusive_cycles", "calls"):
                expect(phase[key] >= 0, f"{ppath}.{key}", "is negative")
            expect(phase["exclusive_cycles"] <= phase["inclusive_cycles"],
                   ppath, "exclusive cycles exceed inclusive cycles")
        # Two runs must always be comparable phase by phase.
        names = [p["name"] for p in phases]
        expect(names == PHASES, f"{vpath}.phases",
               f"phase list {names} does not match the ProfPhase enum")
        expect(sum(p["calls"] for p in phases) > 0, vpath,
               "recorded no calls (profiler was off?)")
    if not args.require_diff:
        return f"{len(doc['variants'])} variant(s)"
    diff = doc.get("diff")
    check_keys(diff, "$.diff", {
        "base": str, "test": str, "phases": list,
        "gap_cycles_per_op": NUMBER, "attributed_gap_cycles_per_op": NUMBER,
        "unattributed_delta_cycles_per_op": NUMBER,
    })
    for j, phase in enumerate(diff["phases"]):
        check_keys(phase, f"$.diff.phases[{j}]",
                   {"name": str, "delta_cycles_per_op": NUMBER})
    names = sorted(p["name"] for p in diff["phases"])
    expect(names == sorted(PHASES), "$.diff.phases",
           f"phase set {names} does not match the ProfPhase enum")
    # The attribution ledger must close: per-phase deltas plus the
    # unattributed delta sum to the cycles/op gap.
    gap = diff["gap_cycles_per_op"]
    attributed = sum(p["delta_cycles_per_op"] for p in diff["phases"])
    attributed += diff["unattributed_delta_cycles_per_op"]
    tolerance = max(abs(gap) * DIFF_CLOSURE_TOLERANCE, 1e-6)
    expect(abs(attributed - gap) <= tolerance, "$.diff",
           f"per-phase deltas sum to {attributed:.2f} but the gap is "
           f"{gap:.2f} cycles/op (tolerance {tolerance:.2f})")
    reported = diff["attributed_gap_cycles_per_op"]
    expect(abs(reported - attributed) <= tolerance,
           "$.diff.attributed_gap_cycles_per_op",
           f"{reported:.2f} disagrees with its rows ({attributed:.2f})")
    return (f"{len(doc['variants'])} variant(s), diff {diff['base']} -> "
            f"{diff['test']} closes: gap {gap:.1f} cycles/op")


# --- netplane ---------------------------------------------------------------

def check_sweep(sweep, path):
    check_keys(sweep, path, {"points": list})
    for key in ("system", "substrate", "saturation_ops_per_sec"):
        expect(key in sweep, path, f"missing required key '{key}'")
    points = sweep["points"]
    check_nonempty_list(points, f"{path}.points")
    for i, point in enumerate(points):
        check_load_point(point, f"{path}.points[{i}]")
    # The latency-vs-offered-load curve must be a function of offered load.
    check_increasing([(f"{path}.points[{i}].offered_qps_target",
                       p["offered_qps_target"]) for i, p in enumerate(points)],
                     path, strict=True)
    saturation = sweep["saturation_ops_per_sec"]
    expect(is_number(saturation) and saturation > 0,
           f"{path}.saturation_ops_per_sec", "must be a positive number")
    achieved_max = max(p["achieved_qps"] for p in points)
    expect(abs(saturation - achieved_max) <= max(1.0, 0.01 * achieved_max),
           f"{path}.saturation_ops_per_sec",
           "must equal the max achieved_qps of the sweep's points")


def check_netplane(doc, args):
    check_header(doc, "netplane")
    check_keys(doc, "$", {"closed_loop_per_thread_ceiling_ops_per_sec": NUMBER})
    sweeps = doc.get("sweeps")
    check_nonempty_list(sweeps, "$.sweeps")
    for i, sweep in enumerate(sweeps):
        check_sweep(sweep, f"$.sweeps[{i}]")
    systems = {s["system"] for s in sweeps}
    substrates = {s["substrate"] for s in sweeps}
    best = max(s["saturation_ops_per_sec"] for s in sweeps)
    if args.min_systems is not None:
        expect(len(systems) >= args.min_systems, "$.sweeps",
               f"cover {len(systems)} systems, need >= {args.min_systems}")
    if args.require_substrates:
        expect({"arthas", "fase"} <= substrates, "$.sweeps",
               f"substrates covered {sorted(substrates)}, need arthas + fase")
    if args.min_saturation is not None:
        expect(best >= args.min_saturation, "$.sweeps",
               f"best saturation {best:.0f} ops/s below the required "
               f"{args.min_saturation:.0f}")

    if "high_connections" in doc or args.require_high_conns is not None:
        check_keys(doc, "$", {"high_connections": dict})
        check_load_point(doc["high_connections"].get("point"),
                         "$.high_connections.point")
        conns = doc["high_connections"]["point"]["connections"]
        if args.require_high_conns is not None:
            expect(conns >= args.require_high_conns,
                   "$.high_connections.point.connections",
                   f"{conns} below required {args.require_high_conns}")
    if "batch_ab" in doc:
        check_keys(doc["batch_ab"], "$.batch_ab",
                   {"batched_over_unbatched": NUMBER})
        for key in ("batched", "unbatched"):
            check_load_point(doc["batch_ab"].get(key), f"$.batch_ab.{key}")

    if "fault_timeline" in doc or args.require_fault_timeline:
        check_keys(doc, "$", {"fault_timeline": dict})
        ft = doc["fault_timeline"]
        check_keys(ft, "$.fault_timeline", {"timeline": dict})
        for key in ("system", "substrate", "fault", "load", "recovered"):
            expect(key in ft, "$.fault_timeline",
                   f"missing required key '{key}'")
        check_load_point(ft["load"], "$.fault_timeline.load")
        timeline = ft["timeline"]
        for key in ("has_fault", "time_to_detect_ns", "time_to_recover_ns",
                    "pre_fault_rate_ops_per_sec"):
            expect(key in timeline, "$.fault_timeline.timeline",
                   f"missing required key '{key}'")
        if args.require_fault_timeline:
            expect(ft["recovered"] is True, "$.fault_timeline.recovered",
                   "must be true")
            check_keys(timeline, "$.fault_timeline.timeline", dict.fromkeys(
                ("time_to_detect_ns", "time_to_recover_ns"), NUMBER))
            for key in ("time_to_detect_ns", "time_to_recover_ns"):
                expect(timeline[key] >= 0, f"$.fault_timeline.timeline.{key}",
                       "must be >= 0")
    return (f"{len(sweeps)} sweeps, {len(systems)} systems, substrates "
            f"{sorted(substrates)}, best saturation {best:.0f} ops/s")


# --- tailtrace --------------------------------------------------------------

STAGES = ("client_wait", "batch_wait", "lock_wait", "section", "flush",
          "drain", "reply_write", "detector", "reactor")
LOADS = ("below", "at", "above")


def check_tail(tail, path, min_closure):
    check_keys(tail, path, {"stages_us": dict, "slow_requests": list})
    for key in ("slow_count", "slow_e2e_mean_us", "stage_sum_mean_us",
                "closure_min", "closure_mean"):
        expect(key in tail, path, f"missing required key '{key}'")
    expect(tail["slow_count"] >= 1, f"{path}.slow_count",
           "tail decomposition needs at least one slow request")
    stages = tail["stages_us"]
    check_keys(stages, f"{path}.stages_us", dict.fromkeys(STAGES, NUMBER))
    for stage in STAGES:
        expect(stages[stage] >= 0, f"{path}.stages_us.{stage}", "must be >= 0")
    # The decomposition accounts for the tail it claims to explain, in
    # aggregate and per retained slow request.
    e2e = tail["slow_e2e_mean_us"]
    expect(e2e > 0, f"{path}.slow_e2e_mean_us", "must be > 0")
    check_closure(tail["stage_sum_mean_us"], e2e, min_closure, path,
                  "stage sum (us)")
    check_closure(tail["closure_min"], 1.0, min_closure,
                  f"{path}.closure_min", "closure")
    requests = tail["slow_requests"]
    check_nonempty_list(requests, f"{path}.slow_requests")
    for i, req in enumerate(requests):
        rpath = f"{path}.slow_requests[{i}]"
        check_keys(req, rpath, {"stages": dict})
        for key in ("trace_id", "e2e_ns", "total_ns", "op", "faulted"):
            expect(key in req, rpath, f"missing required key '{key}'")
        expect(req["trace_id"] > 0, f"{rpath}.trace_id", "must be nonzero")
        expect(req["e2e_ns"] >= 0, f"{rpath}.e2e_ns", "must be >= 0")
        if req["e2e_ns"] > 0:
            check_closure(sum(req["stages"].get(s, 0) for s in STAGES),
                          req["e2e_ns"], min_closure, rpath, "stage sum (ns)")


def check_tailtrace(doc, args):
    check_header(doc, "netplane_tailtrace")
    check_keys(doc, "$", {"cells": list})
    cells = doc["cells"]
    for i, cell in enumerate(cells):
        cpath = f"$.cells[{i}]"
        check_keys(cell, cpath, {"exemplars": dict})
        for key in ("system", "substrate", "load", "saturation_ops_per_sec",
                    "point", "traced", "p999_e2e_us", "tail"):
            expect(key in cell, cpath, f"missing required key '{key}'")
        expect(cell["load"] in LOADS, f"{cpath}.load",
               f"must be one of {LOADS}")
        check_load_point(cell["point"], f"{cpath}.point")
        expect(cell["traced"] > 0, f"{cpath}.traced",
               "cell traced no requests")
        check_keys(cell["exemplars"], f"{cpath}.exemplars",
                   {"tail_buckets": NUMBER, "resolved": NUMBER})
        expect(cell["exemplars"]["resolved"] >= 1,
               f"{cpath}.exemplars.resolved",
               "no histogram tail exemplar resolved to a retained trace")
        check_tail(cell["tail"], f"{cpath}.tail", args.min_closure)
    if args.min_cells is not None:
        expect(len(cells) >= args.min_cells, "$.cells",
               f"{len(cells)} cells, need >= {args.min_cells}")

    if "fault" in doc or args.require_fault:
        check_keys(doc, "$", {"fault": dict})
        fault = doc["fault"]
        for key in ("system", "substrate", "fault", "recovered", "tailtrace"):
            expect(key in fault, "$.fault", f"missing required key '{key}'")
        tail = fault["tailtrace"]
        check_tail(tail, "$.fault.tailtrace", args.min_closure)
        if args.require_fault:
            expect(fault["recovered"] is True, "$.fault.recovered",
                   "must be true")
            expect(tail.get("faulted_traces", 0) >= 1,
                   "$.fault.tailtrace.faulted_traces",
                   "no faulted request was traced")
            stages = tail["stages_us"]
            expect(stages["detector"] + stages["reactor"] > 0,
                   "$.fault.tailtrace.stages_us",
                   "mitigated tail attributes no time to detector + reactor")
    return (f"{len(cells)} cells, closure floor {args.min_closure}"
            f"{', fault cell verified' if 'fault' in doc else ''}")


# --- soak -------------------------------------------------------------------

CLASSES = ("insufficient-data", "flat", "bounded", "linear-growth")
# The arena and version series are the before-picture for checkpoint GC; the
# outbuf series is the claim that growth lives in the checkpoint plane, not
# the serving plane.
MUST_GROW = ("resource.checkpoint.arena.bytes",
             "resource.checkpoint.retained.versions")
MUST_NOT_GROW = ("resource.net.outbuf.bytes",)
# Points a series needs before its growth verdict is trusted.
MIN_FITTED_POINTS = 16


def check_verdicts(verdicts, path):
    check_nonempty_list(verdicts, path)
    by_series = {}
    for i, verdict in enumerate(verdicts):
        vpath = f"{path}[{i}]"
        check_keys(verdict, vpath, {"series": str, "class": str})
        check_keys(verdict, vpath, dict.fromkeys(
            ("slope_per_sec", "first_value", "last_value", "budget",
             "time_to_budget_sec", "points", "window_ns"), NUMBER))
        cls = verdict["class"]
        expect(cls in CLASSES, f"{vpath}.class",
               f"'{cls}' is not one of {CLASSES}")
        if cls == "linear-growth":
            expect(verdict["slope_per_sec"] > 0, f"{vpath}.slope_per_sec",
                   "linear-growth verdict with non-positive slope")
        if verdict["time_to_budget_sec"] >= 0:
            expect(cls == "linear-growth", f"{vpath}.time_to_budget_sec",
                   "finite forecast on a non-linear-growth verdict")
            expect(verdict["budget"] > verdict["last_value"], vpath,
                   "finite forecast without headroom to a declared budget")
        by_series[verdict["series"]] = verdict
    for name in MUST_GROW + MUST_NOT_GROW:
        expect(name in by_series, path, f"no verdict for '{name}'")
    for name in MUST_GROW:
        verdict = by_series[name]
        expect(verdict["class"] == "linear-growth", f"{path}[{name}]",
               f"must classify linear-growth (got '{verdict['class']}')")
        if verdict["budget"] > 0:
            expect(verdict["time_to_budget_sec"] > 0, f"{path}[{name}]",
                   "declared budget but no finite time-to-budget forecast")
    for name in MUST_NOT_GROW:
        expect(by_series[name]["class"] in ("flat", "bounded"),
               f"{path}[{name}]", "must classify flat or bounded (got "
               f"'{by_series[name]['class']}')")
    return by_series


def check_slo(slo, path):
    check_keys(slo, path, {"targets": list})
    check_nonempty_list(slo["targets"], f"{path}.targets")
    for i, target in enumerate(slo["targets"]):
        tpath = f"{path}.targets[{i}]"
        check_keys(target, tpath, {
            "histogram": str, "label": str, "objective": NUMBER,
            "threshold_ns": NUMBER, "worst_burn_rate": NUMBER,
            "breached": bool, "windows": list,
        })
        check_nonempty_list(target["windows"], f"{tpath}.windows")
        for j, window in enumerate(target["windows"]):
            wpath = f"{tpath}.windows[{j}]"
            check_keys(window, wpath, dict.fromkeys(
                ("window_sec", "total", "bad", "bad_fraction", "burn_rate"),
                NUMBER))
            check_keys(window, wpath, {"complete": bool})


def check_series(series, path, fitted):
    check_nonempty_list(series, path)
    seen = set()
    for i, entry in enumerate(series):
        spath = f"{path}[{i}]"
        check_keys(entry, spath, {"name": str, "kind": str, "points": list})
        name, points = entry["name"], entry["points"]
        seen.add(name)
        for j, point in enumerate(points):
            check_keys(point, f"{spath}.points[{j}]",
                       {"t_ns": NUMBER, "v": NUMBER})
        check_increasing([(f"{spath}.points[{j}].t_ns", p["t_ns"])
                          for j, p in enumerate(points)], spath, strict=True)
        if name in fitted:
            expect(len(points) >= MIN_FITTED_POINTS, f"{spath}.points",
                   f"fitted series '{name}' retained only {len(points)} "
                   f"points (< {MIN_FITTED_POINTS})")
    for name in fitted:
        expect(name in seen, path, f"fitted series '{name}' not retained")


def check_soak(doc, args):
    expect(isinstance(doc, dict) and doc.get("bench") == "soak", "$.bench",
           "must be 'soak'")
    check_version(doc)
    config = doc.get("config")
    check_keys(config, "$.config", dict.fromkeys(
        ("duration_s", "target_qps", "fresh_permille", "arena_budget_bytes",
         "version_budget"), NUMBER))
    expect(config["duration_s"] >= args.min_duration_s, "$.config.duration_s",
           f"soaked {config['duration_s']}s, gate requires "
           f">= {args.min_duration_s}s")
    check_load_point(doc.get("load"), "$.load")
    resources = doc.get("resources")
    check_keys(resources, "$.resources", {"enabled": bool, "cells": list})
    check_nonempty_list(resources["cells"], "$.resources.cells")
    for i, cell in enumerate(resources["cells"]):
        check_keys(cell, f"$.resources.cells[{i}]", {
            "name": str, "unit": str, "value": NUMBER, "budget": NUMBER})
    by_series = check_verdicts(doc.get("verdicts"), "$.verdicts")
    check_slo(doc.get("slo"), "$.slo")
    fitted = {name for name, verdict in by_series.items()
              if verdict["class"] != "insufficient-data"}
    check_series(doc.get("series"), "$.series", fitted)
    wire = doc.get("capacity_over_wire")
    check_keys(wire, "$.capacity_over_wire",
               {"cells": NUMBER, "verdicts": NUMBER})
    expect(wire.get("ok") is True, "$.capacity_over_wire.ok",
           "CAPACITY did not resolve over the wire")
    for key in ("cells", "verdicts"):
        expect(wire[key] > 0, f"$.capacity_over_wire.{key}",
               "must be a positive count")
    overhead = doc.get("accountant_overhead")
    check_keys(overhead, "$.accountant_overhead", dict.fromkeys(
        ("accountant_off_ops_per_sec", "accountant_on_ops_per_sec",
         "on_off_ratio"), NUMBER))
    check_ceiling(overhead["on_off_ratio"], args.max_accountant_ratio,
                  "$.accountant_overhead.on_off_ratio",
                  "accountant on/off slowdown")
    return (f"{len(by_series)} verdicts over {config['duration_s']}s, "
            f"growth confirmed in {', '.join(MUST_GROW)}, accountant ratio "
            f"{overhead['on_off_ratio']:.3f}")


# --- perf gates (hotpath, overhead) -----------------------------------------

def load_baseline(path):
    with open(path) as f:
        return json.load(f)


def check_hotpath(doc, args):
    """Gates the new/legacy ns/op ratio: both variants replay one operation
    stream in one process, so legacy calibrates the machine's clock and the
    ratio is comparable across runners. Fails past the baseline's
    ratio_tolerance (0.10 in the committed baseline)."""
    baseline = load_baseline(args.baseline)
    check_keys(doc, "$", {"variants": list})
    variants = {}
    for i, variant in enumerate(doc["variants"]):
        check_keys(variant, f"$.variants[{i}]",
                   {"name": str, "ns_per_op": NUMBER})
        variants[variant["name"]] = variant["ns_per_op"]
    for name in ("new", "legacy"):
        expect(name in variants, "$.variants", f"no '{name}' variant")
    expect(variants["legacy"] > 0, "$.variants", "legacy ns/op must be > 0")
    check_keys(baseline, "baseline", {"hotpath": dict})
    ref = baseline["hotpath"]
    check_keys(ref, "baseline.hotpath", dict.fromkeys(
        ("new_ns_per_op", "legacy_ns_per_op"), NUMBER))
    tolerance = ref.get("ratio_tolerance", 0.25)
    ratio = variants["new"] / variants["legacy"]
    limit = ref["new_ns_per_op"] / ref["legacy_ns_per_op"] * (1 + tolerance)
    check_ceiling(ratio, limit, "$.variants",
                  "new/legacy ns/op ratio (regressed more than "
                  f"{tolerance:.0%} against the baseline)")
    return (f"new/legacy ratio {ratio:.3f} (new {variants['new']:.1f}, "
            f"legacy {variants['legacy']:.1f} ns/op), limit {limit:.3f}")


# Every plane `bench_overhead --recorder-overhead` toggles, with its
# perf_baseline.json ceiling key.
ON_OFF_SECTIONS = ("recorder", "sampler", "profiler", "tailtrace",
                   "accountant")


# --mode -> the artifact's "mode" value.
OVERHEAD_MODES = {"recorder": "recorder_overhead",
                  "substrate": "substrate_overhead",
                  "thread-sweep": "thread_sweep"}


def check_overhead(doc, args):
    check_keys(doc, "$", {"mode": str})
    expect(doc["mode"] == OVERHEAD_MODES[args.mode], "$.mode",
           f"'{doc['mode']}' is not a {args.mode} artifact")
    if args.mode == "thread-sweep":
        return check_thread_sweep(doc, args)
    baseline = load_baseline(args.baseline)
    if args.mode == "recorder":
        worst = []
        for key in ON_OFF_SECTIONS:
            check_keys(doc, "$", {key: dict})
            section = doc[key]
            check_keys(section, f"$.{key}",
                       {"worst_on_off_ratio": NUMBER, "systems": list})
            for i, system in enumerate(section["systems"]):
                check_keys(system, f"$.{key}.systems[{i}]",
                           {"name": str, "on_off_ratio": NUMBER})
            check_keys(baseline, "baseline", {key: dict})
            check_keys(baseline[key], f"baseline.{key}",
                       {"max_on_off_ratio": NUMBER})
            check_ceiling(section["worst_on_off_ratio"],
                          baseline[key]["max_on_off_ratio"],
                          f"$.{key}.worst_on_off_ratio",
                          f"{key} on/off slowdown")
            worst.append(f"{key} {section['worst_on_off_ratio']:.3f}")
        return "worst on/off: " + ", ".join(worst)
    check_keys(doc, "$", {"substrates": dict})
    check_keys(baseline, "baseline", {"substrates": dict})
    floors = baseline["substrates"]
    expect(floors, "baseline.substrates", "has no floors")
    for name, entry in doc["substrates"].items():
        path = f"$.substrates.{name}"
        expect(name in floors, path, "no baseline floor for this substrate")
        check_keys(entry, path, {"min_vanilla_ratio": NUMBER})
        check_keys(floors[name], f"baseline.substrates.{name}",
                   {"min_vanilla_ratio": NUMBER})
        floor = floors[name]["min_vanilla_ratio"]
        expect(entry["min_vanilla_ratio"] >= floor, f"{path}.min_vanilla_ratio",
               f"worst vanilla-relative ratio {entry['min_vanilla_ratio']:.3f} "
               f"below the floor {floor}")
    return ", ".join(f"{name} {entry['min_vanilla_ratio']:.3f}"
                     for name, entry in doc["substrates"].items())


# bench_overhead's MakeSystems().
SWEEP_SYSTEMS = 5
SWEEP_ROW_KEYS = ("threads", "vanilla_ops_per_sec", "arthas_ops_per_sec",
                  "arthas_cycles_per_op", "arthas_efficiency")


def check_thread_sweep(doc, args):
    check_keys(doc, "$",
               {"lock_mode": str, "max_threads": NUMBER, "systems": list})
    if args.lock_mode is not None:
        expect(doc["lock_mode"] == args.lock_mode, "$.lock_mode",
               f"'{doc['lock_mode']}', expected '{args.lock_mode}'")
    expect(len(doc["systems"]) == SWEEP_SYSTEMS, "$.systems",
           f"{len(doc['systems'])} systems, expected {SWEEP_SYSTEMS}")
    # Rows sweep 1, 2, 4, ... up to max_threads.
    counts = []
    t = 1
    while t < doc["max_threads"]:
        counts.append(t)
        t *= 2
    counts.append(doc["max_threads"])
    for i, system in enumerate(doc["systems"]):
        spath = f"$.systems[{i}]"
        check_keys(system, spath, {"name": str, "rows": list})
        for j, row in enumerate(system["rows"]):
            check_keys(row, f"{spath}.rows[{j}]",
                       dict.fromkeys(SWEEP_ROW_KEYS, NUMBER))
        threads = [row["threads"] for row in system["rows"]]
        expect(threads == counts, f"{spath}.rows",
               f"thread counts {threads}, expected {counts}")
    return (f"{len(doc['systems'])} systems x {len(counts)} thread counts, "
            f"{doc['lock_mode']} locks")


# --- registry snapshot and Chrome trace -------------------------------------

def check_metrics(doc, args):
    # Any bench run that executes experiment cells flushes to the device.
    check_keys(doc, "$", {"counters": dict})
    check_keys(doc["counters"], "$.counters", {"pmem.flush.count": NUMBER})
    expect(doc["counters"]["pmem.flush.count"] > 0,
           "$.counters.pmem.flush.count", "must be > 0")
    return f"{len(doc['counters'])} counters"


def check_chrome_trace(doc, args):
    check_keys(doc, "$", {"traceEvents": list})
    return f"{len(doc['traceEvents'])} trace events"


# --- CLI --------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    kinds = parser.add_subparsers(dest="kind", required=True)

    def kind(name, check, help_text):
        sub = kinds.add_parser(name, help=help_text)
        sub.add_argument("file")
        sub.set_defaults(check=check)
        return sub

    sub = kind("forensics", check_forensics, "crash forensics report")
    sub.add_argument("--require-rolled-back-section", action="store_true",
                     help="schema v2 with >= 1 open section, one rolled back")
    sub = kind("timeline", check_timeline, "recovery timeline")
    sub.add_argument("--require-recovery", action="store_true",
                     help="a fault, non-null time_to_detect/recover_ns")
    sub = kind("profile", check_profile, "phase profile")
    sub.add_argument("--require-diff", action="store_true",
                     help="a diff section whose deltas close the gap")
    sub = kind("netplane", check_netplane, "open-loop sweep")
    sub.add_argument("--min-saturation", type=float)
    sub.add_argument("--min-systems", type=int)
    sub.add_argument("--require-substrates", action="store_true")
    sub.add_argument("--require-high-conns", type=int)
    sub.add_argument("--require-fault-timeline", action="store_true")
    sub = kind("tailtrace", check_tailtrace, "tail attribution")
    sub.add_argument("--min-closure", type=float, default=0.9)
    sub.add_argument("--min-cells", type=int)
    sub.add_argument("--require-fault", action="store_true")
    sub = kind("soak", check_soak, "capacity soak")
    sub.add_argument("--min-duration-s", type=float, default=0.0)
    sub.add_argument("--max-accountant-ratio", type=float, default=1.08)
    sub = kind("hotpath", check_hotpath, "hot-path ratio gate")
    sub.add_argument("--baseline", default=BASELINE)
    sub = kind("overhead", check_overhead, "bench_overhead gates")
    sub.add_argument("--mode", required=True, choices=OVERHEAD_MODES)
    sub.add_argument("--baseline", default=BASELINE)
    sub.add_argument("--lock-mode", choices=("coarse", "sharded"))
    kind("metrics", check_metrics, "registry snapshot")
    kind("chrome-trace", check_chrome_trace, "Chrome trace events")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.file) as f:
            doc = json.load(f)
        summary = args.check(doc, args)
    except (OSError, ValueError, SchemaError) as error:
        print(f"FAIL {args.kind} {args.file}: {error}")
        return 1
    print(f"OK {args.kind} {args.file}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
