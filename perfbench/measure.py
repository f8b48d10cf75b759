"""Metrics of one run: the end-to-end run and the traced per-layer run.

:func:`measure` gives the end-to-end metrics (``--trace 0``);
:func:`traced` gives the per-layer split (``--trace 1``).  Both return
``(metrics, details, problems)``: metrics as name -> ``{"value", "unit"}``,
details for the human-readable report, and every failed check.
"""

from __future__ import annotations

import resource
from dataclasses import replace
from pathlib import Path

import numpy as np

from perfbench.checks import answered_in_deadline
from perfbench.spans import Recorder
from perfbench.trial import run_trial

#: Percentiles the tail time-to-answer may be read at, highest first.  The
#: ladder stops at p99: p99.9 over a run's ~20 worlds is set by the single
#: worst world and moved +-15% with the seed.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail(tta):
    """The highest ladder percentile with at least ten queries beyond it.

    Returns ``(value, percentile, queries beyond)``.  "Beyond" is strict,
    with times equal to a microsecond counted as ties: when a share of the
    queries all answer at one instant (every probe of the round exhausted
    the same retransmit ladder), that plateau is not a tail with ten
    queries beyond it, and the percentile drops below it.
    """
    ticks = np.round(tta, 3)
    for p in TAIL_PERCENTILES:
        beyond = int((ticks > np.round(np.percentile(tta, p), 3)).sum())
        if beyond >= 10:
            break
    return float(np.percentile(tta, p)), p, beyond


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _records(trials):
    return [s.record for t in trials for s in t.schemes]


def end_to_end(trials, timed) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, plus report details.

    Simulated metrics pool the distinct ``trials``.  Host metrics are
    medians over every ``timed`` trial, the repeat included, so a burst of
    load from outside the process moves them less.
    """
    records = _records(trials)
    n = sum(r.n_queries for r in records)
    tta = np.concatenate([r.time_to_answer_ms for r in records])
    tail_ms, tail_p, tail_beyond = tail(tta)
    answered = sum(int(answered_in_deadline(r).sum()) for r in records)
    probes = sum(int(r.probes.sum()) for r in records)
    bill = probes + sum(
        int(r.aux_probes.sum()) + r.total_maintenance_probes for r in records
    )
    metrics = {
        "setup_s": _metric(np.median([t.setup_s for t in timed]), "s"),
        "queries_per_s": _metric(
            np.median([t.n_queries / t.serve_s for t in timed]), "queries/host-s"
        ),
        "wall_s": _metric(np.median([t.wall_s for t in timed]), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
        "exact_rate": _metric(
            sum(int(r.exact_hit.sum()) for r in records) / n, "fraction"
        ),
        "tta_p50_ms": _metric(np.percentile(tta, 50), "sim_ms"),
        "tta_tail_ms": _metric(tail_ms, "sim_ms"),
        "probes_per_query": _metric(probes / n, "probes"),
        "probe_bill_per_query": _metric(bill / n, "probes"),
        "answered_rate": _metric(answered / n, "fraction"),
    }
    details = {
        "trials": len(trials),
        "queries": n,
        "failed": n - answered,
        "tta_tail_percentile": tail_p,
        "tta_tail_queries_beyond": tail_beyond,
    }
    return metrics, details


def run_counters(trials) -> dict[str, int]:
    total: dict[str, int] = {}
    for trial in trials:
        for scheme in trial.schemes:
            for key, value in scheme.counters.items():
                total[key] = total.get(key, 0) + value
    return total


def compare_runs(first, second, what: str) -> list[str]:
    """Simulated outputs and counters of two runs of one trial must match."""
    problems = []
    for a, b in zip(first.schemes, second.schemes):
        if a.digest != b.digest:
            problems.append(f"{what}: {a.label} simulated outputs differ")
        if a.counters != b.counters:
            problems.append(
                f"{what}: {a.label} counters differ {a.counters} != {b.counters}"
            )
    return problems


def measure(workload, seed: int, seconds: float, out_dir: Path):
    """The end-to-end run: ``trials_for(seconds)`` trials, then trial 0 again."""
    recorder = Recorder(full=False)
    with recorder.installed():
        trials = [
            run_trial(workload, seed, k, recorder, out_dir)
            for k in range(workload.trials_for(seconds))
        ]
        repeat = run_trial(workload, seed, 0, recorder, out_dir)
    problems = [p for t in trials + [repeat] for p in t.problems]
    problems += compare_runs(trials[0], repeat, "repeated trial 0")
    metrics, details = end_to_end(trials, trials + [repeat])
    details["counters"] = run_counters(trials)
    return metrics, details, problems


def _span_totals(recorder: Recorder, trials):
    """Per span name: self time, inclusive time and calls; per layer: the
    self time spent inside the serve loop."""
    self_by_name: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    serve_self: dict[str, float] = {}
    for t in trials:
        names, durations, self_s, in_serve = recorder.arrays(t.span_lo, t.span_hi)
        for name, d, s, inside in zip(
            names.tolist(), durations.tolist(), self_s.tolist(), in_serve.tolist()
        ):
            self_by_name[name] = self_by_name.get(name, 0.0) + s
            inclusive[name] = inclusive.get(name, 0.0) + d
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            if inside:
                layer = name.split(".", 1)[0]
                serve_self[layer] = serve_self.get(layer, 0.0) + s
    return self_by_name, inclusive, calls_by_name, serve_self


def traced(workload, seed: int, seconds: float, out_dir: Path):
    """The traced run: per trial, an unwrapped and a wrapped pass (and, when
    the workload runs the program's tracer, a pass with that tracer off)."""
    plain, wrapped, untraced = Recorder(False), Recorder(True), Recorder(False)
    untraced_workload = replace(workload, program_trace=False)
    n_trials = max(1, (workload.trials_for(seconds) + 1) // 2)
    plain_trials, wrapped_trials, untraced_trials = [], [], []
    for k in range(n_trials):
        passes = [
            (plain, workload, plain_trials),
            (wrapped, workload, wrapped_trials),
        ]
        if workload.program_trace:
            passes.append((untraced, untraced_workload, untraced_trials))
        if k % 2:  # alternate the order, so drift does not favour one pass
            passes.reverse()
        for recorder, w, out in passes:
            with recorder.installed():
                out.append(run_trial(w, seed, k, recorder, out_dir))
    problems = [
        p for t in plain_trials + wrapped_trials + untraced_trials for p in t.problems
    ]
    for a, b in zip(plain_trials, wrapped_trials):
        problems += compare_runs(a, b, f"passivity, trial {a.index}")
    wrapped.dump(out_dir / f"spans-{workload.name}-seed{seed}.tsv")

    records = _records(wrapped_trials)
    serve_plain = sum(t.serve_s for t in plain_trials)
    serve_wrapped = sum(t.serve_s for t in wrapped_trials)
    self_by_name, inclusive, calls_by_name, serve_self = _span_totals(
        wrapped, wrapped_trials
    )

    def calls(name):
        return calls_by_name.get(name, 0)

    def self_s(*names):
        return sum(self_by_name.get(n, 0.0) for n in names)

    def total(attr):
        return sum(int(getattr(r, attr).sum()) for r in records)

    loop_events = sum(r.loop_events for r in records)
    events = sum(r.n_churn_events for r in records)
    probes = total("probes")
    timeouts = total("probe_timeouts")
    retransmits = total("probe_retransmits")
    epochs = sum(
        np.unique(s.scored[1]).size for t in wrapped_trials for s in t.schemes
    )
    counters = run_counters(wrapped_trials)
    counters["oracle_cells"] = wrapped.oracle_cells
    metrics = {
        "topology.world_build_s": _metric(self_s("topology.world_build"), "s"),
        "topology.oracle_calls": _metric(calls("topology.oracle"), "count"),
        "topology.oracle_cells": _metric(wrapped.oracle_cells, "count"),
        "topology.oracle_s": _metric(self_s("topology.oracle"), "s"),
        "algorithms.build_s": _metric(self_s("algorithms.build"), "s"),
        "algorithms.plan_steps": _metric(calls("algorithms.plan"), "count"),
        "algorithms.plan_s": _metric(self_s("algorithms.plan"), "s"),
        "algorithms.maintenance_calls": _metric(
            calls("algorithms.maintenance"), "count"
        ),
        "algorithms.maintenance_s": _metric(self_s("algorithms.maintenance"), "s"),
        "algorithms.rebuilds": _metric(counters["rebuilds"], "count"),
        "algorithms.maint_probes_per_event": _metric(
            counters["maintenance_probes"] / events if events else 0.0, "probes"
        ),
        "meridian.repair_calls": _metric(calls("meridian.repair_pass"), "count"),
        "meridian.repair_s": _metric(
            self_s("meridian.repair", "meridian.repair_pass"), "s"
        ),
        "meridian.repair_probes": _metric(counters["repair_probes"], "probes"),
        "netsim.loop_events": _metric(loop_events, "count"),
        "netsim.us_per_event": _metric(serve_plain * 1e6 / loop_events, "us"),
        "netsim.fault_s": _metric(self_s("netsim.fault"), "s"),
        "netsim.deliver_s": _metric(self_s("netsim.deliver"), "s"),
        "netsim.drops": _metric(total("probe_drops"), "count"),
        "netsim.retransmits": _metric(retransmits, "count"),
        "netsim.timeouts": _metric(timeouts, "count"),
        "netsim.answered_probe_ratio": _metric(
            (probes - timeouts) / (probes + retransmits), "fraction"
        ),
        "service.self_s": _metric(self_s("service.loop", "service.serve"), "s"),
        "service.queue_wait_ms_mean": _metric(
            np.mean(np.concatenate([r.queue_wait_ms for r in records])), "sim_ms"
        ),
        "service.queue_depth_max": _metric(
            max(r.queue_depth_max for r in records), "count"
        ),
        "service.plan_retries": _metric(total("query_retries"), "count"),
        "obs.spans": _metric(counters["spans"], "count"),
        "obs.export_s": _metric(self_s("obs.export"), "s"),
        "obs.overhead_ratio": _metric(
            serve_plain / sum(t.serve_s for t in untraced_trials)
            if untraced_trials
            else 0.0,
            "ratio",
        ),
        "harness.score_s": _metric(inclusive.get("harness.score", 0.0), "s"),
        "harness.epochs_scored": _metric(epochs, "count"),
        "bench.trace_overhead_ratio": _metric(serve_wrapped / serve_plain, "ratio"),
    }
    for layer in ("topology", "algorithms", "meridian", "netsim", "service"):
        metrics[f"{layer}.serve_share"] = _metric(
            serve_self.get(layer, 0.0) / serve_wrapped, "fraction"
        )
    details = {
        "trials": n_trials,
        "queries": sum(r.n_queries for r in records),
        "failed": sum(
            r.n_queries - int(answered_in_deadline(r).sum()) for r in records
        ),
        "counters": counters,
    }
    return metrics, details, problems
