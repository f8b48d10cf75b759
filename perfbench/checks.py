"""Correctness checks, work counters and output digests for one scored record.

Each check returns a list of problems (empty = the record is sound).  The
benchmark runs them on every record it produces and fails the run when
any list is non-empty.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.harness.results import DaemonTrialRecord
from repro.obs.export import check_nesting, validate_trace
from repro.topology.clustered import ClusteredTopology

#: Queries per record whose score is recomputed from ground truth.
RESCORED_QUERIES = 48

#: Latency tie tolerance of an exact hit, restated rather than imported from
#: the scorer so that a change to the scorer's rule is caught.
TIE_MS = 1e-12


def answered_in_deadline(record: DaemonTrialRecord) -> np.ndarray:
    """Per query: answered, and within the scenario's deadline."""
    tta = record.time_to_answer_ms
    return np.isfinite(tta) & (tta <= record.deadline_ms)


def check_record(
    record: DaemonTrialRecord,
    n_queries: int,
    topology: ClusteredTopology,
    scored: tuple,
) -> list[str]:
    """Conservation laws plus an independent re-score of sampled queries.

    ``scored`` is the ``(memberships, epoch_of_query)`` pair the engine
    handed to ``score_epochs`` for this record.
    """
    problems: list[str] = []
    where = record.scheme
    if record.n_queries != n_queries:
        problems.append(f"{where}: {record.n_queries} queries, asked {n_queries}")
    drops = record.probe_drops
    relieved = record.probe_retransmits + record.probe_timeouts
    if not np.array_equal(drops, relieved):
        problems.append(
            f"{where}: drops {int(drops.sum())} != retransmits + timeouts "
            f"{int(relieved.sum())}"
        )
    ledger = int(record.maintenance_by_event.sum()) + int(
        record.maintenance_background_probes
    )
    if ledger != record.total_maintenance_probes:
        problems.append(
            f"{where}: ledger bills + background {ledger} != total "
            f"maintenance {record.total_maintenance_probes}"
        )
    if not (
        np.all(record.start_ms >= record.arrival_ms)
        and np.all(record.finish_ms >= record.start_ms)
        and np.all(np.diff(record.arrival_ms) >= 0)
    ):
        problems.append(f"{where}: arrival <= start <= finish violated")
    answered = answered_in_deadline(record)
    failed = int((~answered).sum())
    if int(answered.sum()) + failed != n_queries:
        problems.append(f"{where}: answered + failed != attempted")
    if np.any(record.found < 0) or np.any(record.found >= topology.n_nodes):
        problems.append(f"{where}: found id out of range")
    problems.extend(_rescore(record, topology, scored))
    return problems


def _rescore(record, topology, scored) -> list[str]:
    """Recompute exact/cluster hits and found latency from the topology.

    Reads ground truth through the class method, never the (possibly
    wrapped) instance attribute, so the check adds no spans or counts.
    """
    memberships, epochs = scored
    if epochs.size != record.n_queries:
        return [f"{record.scheme}: {epochs.size} epochs for {record.n_queries} queries"]
    sample = np.unique(
        np.linspace(0, record.n_queries - 1, RESCORED_QUERIES).astype(int)
    )
    sample = sample[np.argsort(epochs[sample], kind="stable")]
    unique_epochs = np.unique(epochs[sample])
    members_of = dict(zip(unique_epochs.tolist(), memberships.walk(unique_epochs)))
    row_of = ClusteredTopology.latencies_from
    bad = []
    for q in sample.tolist():
        target = int(record.targets[q])
        found = int(record.found[q])
        members = members_of[int(epochs[q])]
        true_found = float(row_of(topology, target, np.array([found]))[0])
        live = bool(np.isin(found, members))
        nearest = float(row_of(topology, target, members).min())
        exact = live and true_found <= nearest + TIE_MS
        cluster = live and topology.host_cluster[found] == topology.host_cluster[target]
        if (
            exact != bool(record.exact_hit[q])
            or cluster != bool(record.cluster_hit[q])
            or true_found != float(record.found_latency_ms[q])
        ):
            bad.append(q)
    if bad:
        return [f"{record.scheme}: queries {bad[:5]} disagree with ground truth"]
    return []


def check_program_trace(record: DaemonTrialRecord, path) -> list[str]:
    """The program tracer's span stream nests, and its JSONL export validates."""
    problems = [f"{record.scheme}: {p}" for p in check_nesting(list(record.spans))]
    problems += [f"{record.scheme}: {p}" for p in validate_trace(path)]
    return problems


def counters(record: DaemonTrialRecord, rebuilds: int) -> dict[str, int]:
    """Deterministic work counters of one record."""
    return {
        "loop_events": int(record.loop_events),
        "rebuilds": int(rebuilds),
        "maintenance_probes": int(record.total_maintenance_probes),
        "repair_probes": int(record.ring_repair_probes),
        "spans": 0 if record.spans is None else len(record.spans),
    }


def digest(record: DaemonTrialRecord) -> str:
    """SHA-256 over the simulated outputs the benchmark keeps bit-identical:
    answers, time-to-answer arrays, probe and maintenance bills, fault
    counters and loop events."""
    h = hashlib.sha256()
    for array in (
        record.found,
        record.arrival_ms,
        record.start_ms,
        record.finish_ms,
        record.probes,
        record.aux_probes,
        record.maintenance_probes,
        record.maintenance_by_event,
        record.exact_hit,
        record.probe_drops,
        record.probe_retransmits,
        record.probe_timeouts,
        record.query_retries,
    ):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(
        repr(
            (
                record.maintenance_background_probes,
                record.warmup_maintenance_probes,
                record.ring_repair_probes,
                record.loop_events,
            )
        ).encode()
    )
    return h.hexdigest()
