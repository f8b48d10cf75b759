"""Probe-path microbenchmarks: before/after timings for the batch fast path.

Times every layer the batched probe API accelerates, against a faithful
"before" that forces the historical scalar code path:

* ``meridian_overlay_build`` — overlay construction over a scalar-only
  oracle shim (one ``latency_ms`` call per probe, the pre-batch loop)
  versus the vectorised ``latencies_from`` / ``latency_block`` path;
* ``ring_selection`` — the O(k²) pairwise ring-selection block, scalar
  loop versus one ``latency_block`` call;
* ``algorithm_query_batch`` — a query batch through the common
  ``NearestPeerAlgorithm`` interface with scalar versus batched probes;
* ``dns_pair_latencies`` — the DNS study's true pair RTTs via per-pair
  ``route()`` versus one ``RouterLevelTopology.latency_matrix`` block;
* ``dns_study_pipeline`` — the full Section 3.1 pipeline with per-pair
  routed true RTTs versus the bulk precomputation (results are
  bit-identical, see the study golden tests).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_probe_path.py \
        --scale paper --output BENCH_probe_path.json

``--scale tiny`` is the CI smoke setting (seconds, no timing thresholds);
``--scale paper`` is the committed perf baseline (n >= 2000 overlay
members, study-scale Internet).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.algorithms.random_probe import RandomProbeSearch
from repro.latency.synthetic import SyntheticCoreConfig, synthetic_core_matrix
from repro.measurement.datasets import generate_dns_server_population
from repro.measurement.dns_pipeline import DnsStudy
from repro.meridian.overlay import MeridianConfig, MeridianOverlay
from repro.meridian.selection import select_maxmin
from repro.topology.oracle import MatrixOracle, NoisyOracle

SCALES = ("tiny", "paper")


class ScalarOnlyOracle:
    """Shim answering every batch with a per-probe ``latency_ms`` loop.

    The batch methods are the historical pre-batch code path — one Python
    call per probe, in the element order every batch implementation must
    produce — so timing against the shim measures the per-probe loop the
    vectorised oracles replaced.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    @property
    def n_nodes(self) -> int:
        return self._inner.n_nodes

    def latency_ms(self, a: int, b: int) -> float:
        return self._inner.latency_ms(a, b)

    def latencies_from(self, a: int, members=None) -> np.ndarray:
        if members is None:
            members = range(self.n_nodes)
        return np.array(
            [self._inner.latency_ms(int(a), int(m)) for m in members], dtype=float
        )

    def latency_block(self, rows, cols) -> np.ndarray:
        return np.array(
            [[self._inner.latency_ms(int(a), int(b)) for b in cols] for a in rows],
            dtype=float,
        )


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class _PerPairDnsStudy(DnsStudy):
    """The DNS study without the bulk true-RTT precomputation.

    Every ping and King measurement then routes its host pair on demand —
    the pre-batch pipeline.  No randomness moves, so results are
    bit-identical to :class:`DnsStudy`.
    """

    def _precompute_true_latencies(self, pairs, intra_pairs) -> None:
        pass


def _restore_legacy_paths(internet) -> None:
    """Patch one internet instance back to the pre-batch pipeline paths.

    Restores the two per-call patterns the batch PR replaced — host-pair
    latencies that materialise the full routed path, and the router-anchor
    linear scan over every end-network — so the "before" pipeline timing
    measures the code this PR replaced, on the same topology.  Values are
    unchanged (only the access pattern differs), so before/after results
    stay bit-identical.
    """
    from repro.topology.elements import RouterKind

    internet.latency_ms = lambda a, b: internet.route(a, b).latency_ms

    def legacy_router_anchor(router_id):
        record = internet.routers[router_id]
        if record.kind in (RouterKind.POP, RouterKind.CORE, RouterKind.IXP):
            return router_id, 0.0
        if router_id in internet.agg_parent:
            total = 0.0
            current = router_id
            while current in internet.agg_parent:
                parent, link_ms = internet.agg_parent[current]
                total += link_ms
                current = parent
            return current, total
        if record.kind == RouterKind.EDGE:
            for en in internet.end_networks:
                if en.attachment_router_ids and en.attachment_router_ids[0] == router_id:
                    return en.attachment_router_ids[-1], float(
                        sum(en.attachment_latencies_ms[1:])
                    )
        return None

    internet.router_anchor = legacy_router_anchor


def bench_overlay_build(scale: str, seed: int) -> dict:
    n = 2000 if scale == "paper" else 64
    matrix = synthetic_core_matrix(
        n, seed=seed, config=SyntheticCoreConfig(n_nodes=n)
    )
    members = np.arange(n)
    config = MeridianConfig()
    oracle = MatrixOracle(matrix)
    before_s, before = _timed(
        lambda: MeridianOverlay.build(
            ScalarOnlyOracle(oracle), members, config=config, seed=seed
        )
    )
    after_s, after = _timed(
        lambda: MeridianOverlay.build(oracle, members, config=config, seed=seed)
    )
    # Same seed + same latency values => identical overlays; fail loudly if
    # the fast path ever diverges from the scalar one.
    sample = [int(m) for m in members[:: max(1, n // 16)]]
    for node_id in sample:
        assert before.node(node_id).all_members() == after.node(node_id).all_members()
    return {
        "name": "meridian_overlay_build",
        "params": {"n_members": n, "ring_size": config.ring_size},
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }


def bench_ring_selection(scale: str, seed: int) -> dict:
    pool = 48
    repeats = 200 if scale == "paper" else 20
    n = 512 if scale == "paper" else 96
    matrix = synthetic_core_matrix(
        n, seed=seed, config=SyntheticCoreConfig(n_nodes=n)
    )
    oracle = MatrixOracle(matrix)
    shim = ScalarOnlyOracle(oracle)
    rng = np.random.default_rng(seed)
    candidate_sets = [
        rng.choice(n, size=pool, replace=False) for _ in range(repeats)
    ]

    def run(target) -> list[list[int]]:
        return [
            select_maxmin(target.latency_block(c, c), 16)
            for c in candidate_sets
        ]

    before_s, before = _timed(lambda: run(shim))
    after_s, after = _timed(lambda: run(oracle))
    assert before == after
    return {
        "name": "ring_selection",
        "params": {"candidate_pool": pool, "repeats": repeats},
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }


def bench_algorithm_query_batch(scale: str, seed: int) -> dict:
    n = 2000 if scale == "paper" else 96
    n_queries = 300 if scale == "paper" else 20
    budget = 64 if scale == "paper" else 16
    matrix = synthetic_core_matrix(
        n, seed=seed, config=SyntheticCoreConfig(n_nodes=n)
    )
    members = np.arange(n - 32)
    targets = np.arange(n - 32, n)

    def run(probe_oracle) -> list[int]:
        algorithm = RandomProbeSearch(budget=budget)
        algorithm.build(
            MatrixOracle(matrix), members, seed=seed, probe_oracle=probe_oracle
        )
        found = []
        for i in range(n_queries):
            target = int(targets[i % targets.size])
            found.append(algorithm.query(target, seed=i).found)
        return found

    # Probe noise without additive lag: the batched draw order is
    # bit-identical to the scalar one, so both paths return the same peers.
    before_s, before = _timed(
        lambda: run(ScalarOnlyOracle(NoisyOracle(MatrixOracle(matrix), seed=seed)))
    )
    after_s, after = _timed(
        lambda: run(NoisyOracle(MatrixOracle(matrix), seed=seed))
    )
    assert before == after
    return {
        "name": "algorithm_query_batch",
        "params": {"n_members": int(members.size), "n_queries": n_queries, "budget": budget},
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }


def bench_dns_pair_latencies(scale: str, seed: int) -> dict:
    """All-pairs true server RTTs: per-pair ``route()`` vs one block."""
    internet = generate_dns_server_population(
        seed=seed, paper_scale=(scale == "paper")
    )
    cap = 400 if scale == "paper" else 60
    servers = internet.dns_server_ids[:cap]

    def per_pair_route() -> np.ndarray:
        return np.array(
            [[internet.route(a, b).latency_ms for b in servers] for a in servers]
        )

    before_s, before = _timed(per_pair_route)
    after_s, after = _timed(lambda: internet.latency_matrix(servers))
    assert np.allclose(before, after, rtol=0, atol=1e-9)
    return {
        "name": "dns_pair_latencies",
        "params": {"n_servers": len(servers), "n_pairs": len(servers) ** 2},
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }


def bench_dns_study_pipeline(scale: str, seed: int) -> dict:
    """Full Section 3.1 pipeline, pre-batch versus batched.

    The "before" run reproduces the historical pipeline code paths (see
    :func:`_restore_legacy_paths`) without the bulk true-RTT
    precomputation (:class:`_PerPairDnsStudy`).  Results are bit-identical
    either way, so the assert doubles as an equivalence check.
    """
    paper = scale == "paper"
    before_internet = generate_dns_server_population(seed=seed, paper_scale=paper)
    _restore_legacy_paths(before_internet)
    before_s, before = _timed(
        lambda: _PerPairDnsStudy(before_internet, seed=seed).run()
    )
    after_internet = generate_dns_server_population(seed=seed, paper_scale=paper)
    after_s, after = _timed(lambda: DnsStudy(after_internet, seed=seed).run())
    assert before.measurements == after.measurements
    return {
        "name": "dns_study_pipeline",
        "params": {
            "paper_scale": paper,
            "servers_traced": after.servers_traced,
            "pairs_measured": len(after.measurements),
        },
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }


BENCHMARKS = (
    bench_overlay_build,
    bench_ring_selection,
    bench_algorithm_query_batch,
    bench_dns_pair_latencies,
    bench_dns_study_pipeline,
)


def run_suite(scale: str, seed: int) -> dict:
    results = []
    for bench in BENCHMARKS:
        result = bench(scale, seed)
        print(
            f"{result['name']}: before={result['before_s']:.3f}s "
            f"after={result['after_s']:.3f}s speedup={result['speedup']:.1f}x"
        )
        results.append(result)
    return {
        "suite": "probe_path",
        "scale": scale,
        "seed": seed,
        "benchmarks": results,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", choices=SCALES, default="tiny")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "where to write the JSON report (default: BENCH_probe_path.json "
            "for --scale paper, bench_probe_path_<scale>.json otherwise, so "
            "a casual tiny run cannot clobber the committed paper baseline)"
        ),
    )
    args = parser.parse_args()
    output = args.output
    if output is None:
        output = (
            Path("BENCH_probe_path.json")
            if args.scale == "paper"
            else Path(f"bench_probe_path_{args.scale}.json")
        )
    report = run_suite(args.scale, args.seed)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
