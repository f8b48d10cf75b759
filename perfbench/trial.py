"""One benchmark trial: build a world, serve every scheme, score, check.

A trial is what a user of the simulator runs: ``build_*_world`` ->
``QueryEngine.run_daemon_trial`` (build, serve, score) per scheme ->
scored ``DaemonTrialRecord`` (plus the JSONL span export when the
workload turns the program's tracer on).  Timings come from the spans the
:class:`~perfbench.spans.Recorder` took during the trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.harness import QueryEngine
from repro.harness.results import DaemonTrialRecord
from repro.obs.export import dump_trace_jsonl

from perfbench.checks import check_program_trace, check_record, counters, digest
from perfbench.spans import SERVE, Recorder
from perfbench.workloads import Workload, derived_seed


@dataclass
class SchemeResult:
    label: str
    record: DaemonTrialRecord
    counters: dict[str, int]
    digest: str
    #: ``(memberships, epoch_of_query)`` the engine scored the record with.
    scored: tuple


@dataclass
class TrialResult:
    index: int
    setup_s: float
    serve_s: float
    wall_s: float
    #: The trial's span range ``[span_lo, span_hi)`` in its recorder.
    span_lo: int
    span_hi: int
    schemes: list[SchemeResult] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def n_queries(self) -> int:
        return sum(s.record.n_queries for s in self.schemes)


def run_trial(
    workload: Workload, seed: int, index: int, recorder: Recorder, out_dir: Path
) -> TrialResult:
    """Run trial ``index`` of run seed ``seed``; the recorder must be installed."""
    scenario = workload.load_scenario()
    world_seed = derived_seed(seed, index)
    span_lo = len(recorder.names)
    results = []
    try:
        with recorder.span("bench.trial") as trial_span:
            with recorder.span("topology.world_build") as world_span:
                world = workload.build_world(world_seed)
            recorder.wrap_oracle(world.oracle)
            for i, scheme in enumerate(workload.schemes):
                results.append(
                    _serve_scheme(
                        workload, scenario, scheme, world, derived_seed(seed, index, i),
                        recorder, out_dir,
                    )
                )
    finally:
        recorder.release()
    span_hi = len(recorder.names)
    trial = TrialResult(
        index=index,
        setup_s=recorder.duration(world_span)
        + recorder.total("algorithms.build", span_lo, span_hi),
        serve_s=recorder.total(SERVE, span_lo, span_hi),
        wall_s=recorder.duration(trial_span),
        span_lo=span_lo,
        span_hi=span_hi,
    )
    for scheme, record, rebuilds, scored, trace_path in results:
        trial.problems += check_record(record, scheme.queries, world.topology, scored)
        if trace_path is not None:
            trial.problems += check_program_trace(record, trace_path)
        trial.schemes.append(
            SchemeResult(
                label=scheme.label,
                # Spans dropped once checked: kept, they would grow the heap
                # every later trial's garbage collections walk.
                record=replace(record, spans=None, timeseries=None),
                counters=counters(record, rebuilds),
                digest=digest(record),
                scored=scored,
            )
        )
    return trial


def _serve_scheme(workload, scenario, scheme, world, seed, recorder, out_dir):
    """Build, serve and score one scheme; export the program's spans if on."""
    spec = scenario.daemon
    algorithm = scheme.factory()
    recorder.wrap_algorithm(algorithm)
    with recorder.span("harness.trial"):
        record = QueryEngine().run_daemon_trial(
            world,
            algorithm,
            spec,
            sampling=scenario.sampling,
            n_queries=scheme.queries,
            seed=seed,
            noise=scenario.noise,
        )
    trace_path = None
    if spec.trace is not None:
        trace_path = out_dir / f"{workload.name}-{scheme.label}.jsonl"
        with recorder.span("obs.export"):
            dump_trace_jsonl(
                trace_path,
                record.spans,
                meta={
                    "scheme": scheme.label,
                    "n_queries": record.n_queries,
                    "scenario": workload.scenario,
                    "seed": seed,
                },
            )
    return scheme, record, algorithm.rebuild_count, recorder.last_scored, trace_path
