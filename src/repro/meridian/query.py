"""Meridian closest-node discovery.

The query protocol of the Meridian paper, as summarised in Section 2.3 of
the reproduction target: the node handling the query "measures its latency
to the target, and asks the nodes in its rings that it knows are at about
the same latency to itself to measure their latencies to the target.  The
query is then forwarded to the node with the minimum distance to the
target.  The query terminates when the current node can find no closer node
to the target than itself."

``beta`` plays its double role: the probe band is ``(1 ± beta) * d`` and the
query only advances to a node that improves on ``beta * d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.meridian.overlay import MeridianOverlay
from repro.topology.oracle import LatencyOracle
from repro.util.errors import DataError
from repro.util.rng import make_rng


@dataclass
class QueryResult:
    """Outcome of one closest-node query."""

    target: int
    start: int
    found: int
    found_latency_ms: float  # measured latency from found node to target
    hops: int
    probe_count: int  # latency measurements *to the target* performed
    path: list[int] = field(default_factory=list)
    termination: str = "no_improvement"  # or "max_hops"


def closest_node_query(
    overlay: MeridianOverlay,
    probe_oracle: LatencyOracle,
    target: int,
    start: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> QueryResult:
    """Run one Meridian closest-node query for ``target``.

    ``probe_oracle`` supplies the latency measurements (wrap it in a
    :class:`~repro.topology.oracle.CountingOracle` or ``NoisyOracle`` for
    probe accounting / noise studies).  ``start`` defaults to a uniformly
    random overlay member, matching the paper's "initiates a closest-peer
    query at a random peer".
    """
    rng = make_rng(seed)
    if start is None:
        start = int(rng.choice(overlay.member_ids))
    elif start not in overlay.nodes:
        raise DataError(f"start node {start} is not an overlay member")

    beta = overlay.config.beta
    probes = 0

    def probe(node_id: int) -> float:
        nonlocal probes
        probes += 1
        # Billed here through the local `probes` counter plus whatever
        # Counting/Noisy oracle the caller injected — this predates (and is
        # wrapped by) the algorithm-layer counted helpers.
        return probe_oracle.latency_ms(node_id, target)  # repro-lint: allow(counted-probes)

    current = start
    current_d = probe(current)
    best, best_d = current, current_d
    measured: dict[int, float] = {current: current_d}
    path = [current]
    termination = "no_improvement"

    for _hop in range(overlay.config.max_hops):
        node = overlay.node(current)
        low = (1.0 - beta) * current_d
        high = (1.0 + beta) * current_d
        candidates = node.members_within(low, high)
        # The ring sweep is one batched measurement: every candidate's
        # latency to the target in a single latency_block call (member ->
        # target, the same direction as the scalar probe).
        fresh = list(
            dict.fromkeys(
                m for m in candidates if m != target and m not in measured
            )
        )
        if fresh:
            probes += len(fresh)  # the ring sweep is billed before it fires
            values = probe_oracle.latency_block(  # repro-lint: allow(counted-probes)
                np.asarray(fresh, dtype=int), np.array([target])
            )[:, 0]
            measured.update(zip(fresh, values.tolist()))
        if measured:
            round_best = min(measured, key=measured.get)
            if measured[round_best] < best_d:
                best, best_d = round_best, measured[round_best]
        # Forward only on a beta-fraction improvement; otherwise finish.
        if best_d <= beta * current_d and best != current:
            current, current_d = best, best_d
            path.append(current)
            continue
        break
    else:
        termination = "max_hops"

    return QueryResult(
        target=target,
        start=start,
        found=best,
        found_latency_ms=best_d,
        hops=len(path) - 1,
        probe_count=probes,
        path=path,
        termination=termination,
    )
