"""The four benchmark workloads: world shape, daemon spec and scheme set.

Every workload runs the public harness path — ``build_*_world`` ->
``QueryEngine.run_daemon_trial`` -> scored ``DaemonTrialRecord`` — on a
registered daemon scenario's :class:`~repro.harness.scenario.DaemonSpec`.
In simulated time each is an open-loop Poisson arrival process at the
spec's rate; on the host the simulator serves the fixed query count as
fast as it can.

A run is ``trials_for(seconds)`` distinct trials plus a repeat of the
first.  Trial ``k`` of seed ``s`` builds its own world from
``derived_seed(s, k)`` and each scheme ``i`` serves its own load from
``derived_seed(s, k, i)``, so the work of a run is fixed by
``(seed, seconds)`` and the simulated outputs repeat exactly.  Schemes get
independent loads, not common random numbers: the benchmark compares
commits, not schemes, and independent membership-event streams make a
run's host cost vary less with the seed.  ``trial_host_s`` is the host
time one trial took when the workload was sized (2-core x86 container,
Python 3.11, numpy 2.4); it only converts ``--seconds`` into a trial
count and is never read from the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.algorithms import (
    BeaconSearch,
    KargerRuhlSearch,
    MeridianSearch,
    RandomProbeSearch,
)
from repro.algorithms.base import NearestPeerAlgorithm
from repro.harness import TraceSpec, get_scenario
from repro.harness.scenario import SamplingSpec, Scenario
from repro.latency.builder import (
    ClusteredWorld,
    build_clustered_oracle,
    build_sparse_clustered_world,
)
from repro.topology.clustered import ClusteredConfig


@dataclass(frozen=True)
class Scheme:
    """One scheme of a workload and the queries it serves per trial."""

    label: str
    factory: Callable[[], NearestPeerAlgorithm]
    queries: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: Registered daemon scenario whose spec and noise are used.
    scenario: str
    topology: ClusteredConfig
    #: Matrix-free world (``build_sparse_clustered_world``) instead of dense.
    sparse: bool
    schemes: tuple[Scheme, ...]
    trial_host_s: float
    #: Turn the program's own simulated-time tracer on and export its spans.
    program_trace: bool = False

    def load_scenario(self) -> Scenario:
        # A tenth of the hosts are targets (the registered scenarios' 40
        # targets were sized for their 240-host worlds): more targets per
        # trial make the answer-quality metrics vary less with the seed.
        scenario = get_scenario(self.scenario).with_(
            sampling=SamplingSpec(n_targets=self.topology.n_peers // 10)
        )
        if self.program_trace:
            scenario = scenario.with_(
                daemon=replace(scenario.daemon, trace=TraceSpec())
            )
        return scenario

    def build_world(self, seed: int) -> ClusteredWorld:
        builder = (
            build_sparse_clustered_world if self.sparse else build_clustered_oracle
        )
        return builder(self.topology, seed=seed)

    def trials_for(self, seconds: float) -> int:
        """Distinct trials in a run of ``seconds``; one more repeats trial 0."""
        return max(1, int(round(seconds / self.trial_host_s)) - 1)


def derived_seed(seed: int, *keys: int) -> int:
    """A seed derived from the run seed: ``(seed, trial)`` seeds a trial's
    world, ``(seed, trial, i)`` the load its ``i``-th scheme serves."""
    sequence = np.random.SeedSequence([int(seed), *map(int, keys)])
    return int(sequence.generate_state(1)[0])


_DENSE_2K = ClusteredConfig(n_clusters=10, end_networks_per_cluster=100, delta=0.2)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # No index, so maintenance is 0: host time is the event loop and
        # stepper, the fault model's retransmit ladders, the matrix-free
        # oracle and scoring.  A maintenance change must leave it unchanged.
        Workload(
            name="serve-lossy",
            scenario="daemon-lossy",
            topology=ClusteredConfig(
                n_clusters=20, end_networks_per_cluster=500, delta=0.2
            ),
            sparse=True,
            schemes=(
                Scheme("random-probe", lambda: RandomProbeSearch(budget=32), 6000),
            ),
            trial_host_s=1.0,
        ),
        # Eager maintenance: a full index rebuild per membership event is
        # most of host time, so a rebuild-path change shows here.  n=600,
        # not 2,000: there one karger-ruhl rebuild costs 85 ms, a run holds
        # ~200 membership events, and host time and the probe bill move
        # +-10-15% with the seed's Poisson event count.  Tapestry is left
        # out: its rebuilds cost ~4x karger-ruhl's, so a trial's few of them
        # swung its host time +-40% and the run's queries_per_s by 13%.
        Workload(
            name="index-churn",
            scenario="daemon-steady",
            topology=ClusteredConfig(
                n_clusters=10, end_networks_per_cluster=30, delta=0.2
            ),
            sparse=False,
            schemes=(Scheme("karger-ruhl", KargerRuhlSearch, 200),),
            trial_host_s=1.1,
        ),
        # The same maintenance layer used incrementally: ring insert/evict
        # on join and leave plus background repair_rings; and the heaviest
        # overlay build (setup).
        Workload(
            name="ring-repair",
            scenario="daemon-steady",
            topology=_DENSE_2K,
            sparse=False,
            schemes=(Scheme("meridian", MeridianSearch, 2000),),
            trial_host_s=1.3,
        ),
        # Per-node FIFO queues fill, and the program's simulated-time tracer
        # runs with its spans exported: the only workload where the obs
        # layer does work.  Join-heavy churn drives beaconing's incremental
        # recruitment.
        Workload(
            name="flash-traced",
            scenario="daemon-flash-crowd",
            topology=_DENSE_2K,
            sparse=False,
            schemes=(
                Scheme("random-probe", lambda: RandomProbeSearch(budget=32), 2000),
                Scheme("beaconing", BeaconSearch, 2000),
            ),
            trial_host_s=1.1,
            program_trace=True,
        ),
    )
}
