"""Region-keyed index maintenance of the rebuild schemes.

Karger-Ruhl and Tapestry keep one index *region* per member (a ball-sample
hierarchy, a prefix routing table).  A region is a pure function of the
index generation, the node and that generation's member array, so the
index computes a region only when a plan reads it, while every
maintenance discipline bills exactly the probes a full reconstruction
would.

* The goldens pin found ids, probe bills and ledgers of both schemes under
  every discipline — blocking and in the daemon, with membership events
  landing mid-plan — as SHA-256 digests.
* The compute-follows-reads tests count oracle cells through a test-local
  wrapper: an eager event bills |M|^2 but measures nothing, and a query
  measures |M| cells per distinct region it reads, once per generation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import KargerRuhlSearch, TapestrySearch
from repro.harness import (
    ChurnSpec,
    DaemonSpec,
    QueryEngine,
    SamplingSpec,
    Scenario,
)
from repro.latency.builder import build_clustered_oracle
from repro.topology.clustered import ClusteredConfig
from repro.topology.oracle import MatrixOracle

SCHEMES = {
    "karger-ruhl": lambda m: KargerRuhlSearch(maintenance=m),
    "tapestry": lambda m: TapestrySearch(maintenance=m),
}


def _digest(*parts) -> str:
    """SHA-256 over integer arrays and scalars (platform-independent)."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(np.asarray(part, dtype="<i8").tobytes())
        sha.update(b"|")
    return sha.hexdigest()[:16]


# -- goldens ------------------------------------------------------------------

#: A blocking script over the 160-node uniform world: membership events,
#: queries between them, a buffered join-then-leave that nets out, and a
#: leave-then-rejoin that nets out with the rejoined members reordered.
SCRIPT = (
    ("join", range(100, 105)),
    ("query", 150),
    ("query", 151),
    ("leave", range(0, 5)),
    ("query", 152),
    ("flush",),
    ("join", [110, 111]),
    ("query", 153),
    ("leave", [110, 111]),
    ("query", 154),
    ("flush",),
    ("query", 155),
    ("leave", range(10, 15)),
    ("query", 156),
    ("join", range(10, 15)),
    ("flush",),
    ("query", 157),
    ("query", 158),
    ("join", [120]),
    ("leave", [20]),
    ("query", 159),
    ("flush",),
    ("query", 150),
)

SCRIPT_GOLDENS = {
    ("karger-ruhl", "eager"): "53fb695c3483d91b",
    ("karger-ruhl", "coalesce:4"): "627e06d0c8130f35",
    ("karger-ruhl", "lazy"): "44ada79b0d5cd841",
    ("karger-ruhl", "lazy-partial"): "092195243d29ce1c",
    ("tapestry", "eager"): "f5ce75dda3a2522e",
    ("tapestry", "coalesce:4"): "1c963563d35eef07",
    ("tapestry", "lazy"): "0ecd88ab8a9e1c8f",
    ("tapestry", "lazy-partial"): "333b5f6ea36de7e3",
}

CHURN_SCENARIO = Scenario(
    name="test-rebuild-regions-churn",
    topology=ClusteredConfig(n_clusters=4, end_networks_per_cluster=8, delta=0.2),
    sampling=SamplingSpec(n_targets=10),
    protocol="churn",
    churn=ChurnSpec(
        initial_fraction=0.6,
        arrival_rate=0.8,
        departure_rate=0.8,
        session_length=6.0,
        warmup_steps=4,
        min_members=16,
    ),
    n_queries=24,
    seed=23,
)

CHURN_GOLDENS = {
    ("karger-ruhl", "eager"): "44aaeeef0b6c3f7e",
    ("karger-ruhl", "coalesce:4"): "b89dda23e7211b09",
    ("karger-ruhl", "lazy"): "40310d79fa8d4f01",
    ("karger-ruhl", "lazy-partial"): "3249f5e704651233",
    ("tapestry", "eager"): "0ee35dd36b752a6f",
    ("tapestry", "coalesce:4"): "d63a189b86bd10ec",
    ("tapestry", "lazy"): "15b3dbfd12391bef",
    ("tapestry", "lazy-partial"): "ecc794290b30eef6",
}

#: Membership events every ~6 ms against plans that run for tens of
#: simulated ms: most events land while some plan is mid-flight.
DAEMON_SPEC = DaemonSpec(
    mean_interarrival_ms=8.0,
    mean_event_interval_ms=6.0,
    arrival_rate=1.0,
    departure_rate=1.0,
    min_members=40,
    initial_fraction=0.6,
)

DAEMON_GOLDENS = {
    ("karger-ruhl", "eager"): "057c88c3493c4b56",
    ("karger-ruhl", "coalesce:4"): "94d4efcea2c8e408",
    ("karger-ruhl", "lazy"): "4843c7a0d57669f6",
    ("tapestry", "eager"): "52b779a99e8c9b9a",
    ("tapestry", "coalesce:4"): "98369f11df003d6d",
    ("tapestry", "lazy"): "4ccf034b5cfe65d8",
}


def run_script(algorithm, oracle, script=SCRIPT):
    algorithm.build(oracle, np.arange(100), seed=7)
    found, probes, maintenance = [], [], []
    for step, (op, *args) in enumerate(script):
        seed = 1000 + step
        if op == "query":
            result = algorithm.query(args[0], seed=seed)
            found.append(result.found)
            probes.append(result.probes)
            maintenance.append(result.maintenance_probes)
        elif op == "flush":
            maintenance.append(algorithm.flush_maintenance(seed=seed))
        else:
            maintenance.append(
                getattr(algorithm, op)(np.asarray(list(args[0])), seed=seed)
            )
    return found, probes, maintenance


@pytest.fixture(scope="module")
def uniform_oracle(uniform_matrix):
    return MatrixOracle(uniform_matrix)


@pytest.fixture(scope="module")
def daemon_world():
    return build_clustered_oracle(
        ClusteredConfig(n_clusters=4, end_networks_per_cluster=12, delta=0.2),
        seed=99,
    )


class TestGoldens:
    @pytest.mark.parametrize("key", sorted(SCRIPT_GOLDENS), ids="/".join)
    def test_blocking_script(self, uniform_oracle, key):
        algorithm = SCHEMES[key[0]](key[1])
        found, probes, maintenance = run_script(algorithm, uniform_oracle)
        digest = _digest(
            found,
            probes,
            maintenance,
            algorithm.maintenance_by_event,
            algorithm.rebuild_count,
        )
        assert digest == SCRIPT_GOLDENS[key]

    @pytest.mark.parametrize("key", sorted(CHURN_GOLDENS), ids="/".join)
    def test_churn_protocol(self, key):
        built = []

        def factory():
            built.append(SCHEMES[key[0]](key[1]))
            return built[-1]

        record = QueryEngine().run_trial(CHURN_SCENARIO, factory, 5)
        algorithm = built[-1]
        digest = _digest(
            record.found,
            record.probes,
            record.maintenance_probes,
            record.warmup_maintenance_probes,
            algorithm.maintenance_by_event,
            algorithm.rebuild_count,
        )
        assert digest == CHURN_GOLDENS[key]

    @pytest.mark.parametrize("key", sorted(DAEMON_GOLDENS), ids="/".join)
    def test_daemon_events_mid_plan(self, daemon_world, key):
        algorithm = SCHEMES[key[0]](key[1])
        record = QueryEngine().run_daemon_trial(
            daemon_world,
            algorithm,
            DAEMON_SPEC,
            sampling=SamplingSpec(n_targets=20),
            n_queries=30,
            seed=5,
        )
        assert record.n_churn_events > record.n_queries
        digest = _digest(
            record.found,
            record.probes,
            record.maintenance_probes,
            record.maintenance_by_event,
            algorithm.rebuild_count,
        )
        assert digest == DAEMON_GOLDENS[key]


# -- compute follows reads ----------------------------------------------------


class CellCountingOracle:
    """Forwards to a batch oracle and counts every latency cell it returns."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.cells = 0

    @property
    def n_nodes(self) -> int:
        return self._inner.n_nodes

    def latency_ms(self, a, b):
        self.cells += 1
        return self._inner.latency_ms(a, b)

    def latencies_from(self, a, members=None):
        row = self._inner.latencies_from(a, members)
        self.cells += row.size
        return row

    def latency_block(self, rows, cols):
        block = self._inner.latency_block(rows, cols)
        self.cells += block.size
        return block


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestComputeFollowsReads:
    def _built(self, uniform_oracle, scheme, discipline="eager"):
        counting = CellCountingOracle(uniform_oracle)
        algorithm = SCHEMES[scheme](discipline)
        algorithm.build(
            counting, np.arange(100), seed=7, probe_oracle=uniform_oracle
        )
        return algorithm, counting

    def test_eager_events_bill_everything_and_measure_nothing(
        self, uniform_oracle, scheme
    ):
        algorithm, counting = self._built(uniform_oracle, scheme)
        assert algorithm.join(np.arange(100, 105), seed=1) == 105 * 105
        assert algorithm.leave(np.arange(0, 5), seed=2) == 100 * 100
        assert algorithm.rebuild_count == 2
        assert counting.cells == 0

    def test_a_query_measures_one_row_per_region_it_reads(
        self, uniform_oracle, scheme
    ):
        algorithm, counting = self._built(uniform_oracle, scheme)
        algorithm.join(np.arange(100, 105), seed=1)
        result = algorithm.query(150, seed=3)
        visited = len(set(result.path))
        assert counting.cells % 105 == 0
        # Every hop but possibly the last one reads its node's region.
        assert 105 * max(visited - 1, 1) <= counting.cells <= 105 * visited
        if scheme == "karger-ruhl":
            assert counting.cells == 105 * visited
        # The same regions at the same generation are memoised ...
        counting.cells = 0
        assert algorithm.query(150, seed=3).found == result.found
        assert counting.cells == 0
        # ... until the next event moves the index on.
        algorithm.leave([100], seed=4)
        algorithm.query(150, seed=3)
        assert counting.cells > 0

    def test_lazy_partial_reads_bill_what_they_measure(
        self, uniform_oracle, scheme
    ):
        algorithm, counting = self._built(uniform_oracle, scheme, "lazy-partial")
        algorithm.join(np.arange(100, 105), seed=1)
        assert counting.cells == 0
        spent = algorithm.query(150, seed=3).maintenance_probes
        assert spent == counting.cells > 0


# -- lazy-partial over a plan's stale snapshot ---------------------------------


def _drive(plan):
    try:
        while True:
            plan.send(None)
    except StopIteration as stop:
        return stop.value


def test_lazy_partial_read_after_a_mid_plan_leave_uses_the_live_members(
    uniform_oracle,
):
    """A plan started before a leave reads its next region at the new
    generation, built from the live members — not from the plan's
    snapshot — so it bills |live| and matches a ``lazy`` twin's index."""
    partial = KargerRuhlSearch(maintenance="lazy-partial")
    partial.build(uniform_oracle, np.arange(140), seed=7)
    plan = partial.query_plan(150, seed=3)
    seed_node = int(plan.send(None).srcs[0])  # the plan's first round
    leavers = [m for m in range(140) if m != seed_node][:30]
    partial.leave(leavers, seed=4)
    try:
        plan.send(None)  # the next hop reads the seed node's region
    except StopIteration:
        pass
    assert partial.maintenance_probes_total == 110
    _drive(plan)
    assert partial.maintenance_probes_total % 110 == 0

    lazy = KargerRuhlSearch(maintenance="lazy")
    lazy.build(uniform_oracle, np.arange(140), seed=7)
    lazy.leave(leavers, seed=4)
    for target in range(151, 160):
        a = partial.query(target, seed=target)
        b = lazy.query(target, seed=target)
        assert (a.found, a.found_latency_ms, a.probes) == (
            b.found,
            b.found_latency_ms,
            b.probes,
        )
    for ours, theirs in zip(partial.region(seed_node), lazy.region(seed_node)):
        assert ours.tolist() == theirs.tolist()
    assert partial.region(leavers[0]) is None


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_daemon_lazy_partial_answers_like_eager(daemon_world, scheme):
    """Without a flush timer a ``lazy-partial`` daemon reads every region
    at the live generation, exactly as ``eager`` does — so the answers
    agree while ``lazy-partial`` bills a fraction of the probes."""
    records = {}
    for discipline in ("eager", "lazy-partial"):
        records[discipline] = QueryEngine().run_daemon_trial(
            daemon_world,
            SCHEMES[scheme](discipline),
            DAEMON_SPEC,
            sampling=SamplingSpec(n_targets=20),
            n_queries=30,
            seed=5,
        )
    eager, partial = records["eager"], records["lazy-partial"]
    assert partial.found.tolist() == eager.found.tolist()
    assert partial.probes.tolist() == eager.probes.tolist()
    assert partial.finish_ms.tolist() == eager.finish_ms.tolist()
    assert (
        partial.maintenance_probes.sum() < eager.maintenance_probes.sum() / 10
    )
