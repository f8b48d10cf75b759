"""Karger-Ruhl style distance-based sampling (STOC 2002).

Each member keeps, for every distance scale ``2^i``, a bounded sample of
other members inside the ball of that radius.  A nearest-neighbour query
repeatedly asks the current node for its samples at the scale of the
current distance to the target, probes them, and moves to any member that
halves the distance.  In growth-restricted metrics each such round succeeds
with constant probability; under the clustering condition the ball at the
cluster scale contains a constant fraction of the whole cluster, so the
"halving" step stalls exactly as the paper describes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm
from repro.util.validate import require_positive


class KargerRuhlSearch(NearestPeerAlgorithm):
    """Metric-sampling nearest-neighbour search.

    Maintenance policy: ``rebuild``.  The per-scale ball samples of every
    member shift when the membership changes (a ball's occupancy is a
    global property of the metric), so there is no cheap splice: each
    :meth:`join` / :meth:`leave` re-runs the full sample construction with
    every measurement billed as maintenance — ``|M|²`` probes per event,
    which is exactly the honesty the paper demands of probe accounting.
    A deferred discipline (``maintenance="coalesce:8"`` or ``"lazy"``)
    amortises the bill: events buffer and one counted rebuild covers the
    whole batch, which is how real deployments schedule repair.

    The index is *region-keyed*: node ``v``'s sample hierarchy at index
    generation ``g`` (the count of observed membership events) is drawn
    from its own rng stream seeded ``(region_base, g, v)``, where
    ``region_base`` is a single draw at initial build.  Rebuilds and
    flushes therefore consume nothing from the caller's rng, and a region
    refreshed *on demand* holds bit-identical content to the same region
    inside a full rebuild at the same generation — which is what lets the
    ``lazy-partial`` discipline (``supports_partial_flush``) refresh only
    the ``|touched| * |M|`` regions a query's descent reads while
    returning exactly the answers a full ``lazy`` flush would.
    """

    name = "karger-ruhl"
    maintenance_policy = "rebuild"
    supports_partial_flush = True

    def __init__(
        self,
        samples_per_scale: int = 8,
        min_scale_ms: float = 0.05,
        max_scale_ms: float = 512.0,
        max_rounds: int = 48,
        maintenance=None,
    ) -> None:
        super().__init__(maintenance=maintenance)
        require_positive(samples_per_scale, "samples_per_scale")
        self._samples_per_scale = samples_per_scale
        self._min_scale_ms = min_scale_ms
        self._max_scale_ms = max_scale_ms
        self._max_rounds = max_rounds
        self._scales: list[float] = []
        # member -> scale index -> sampled member ids
        self._samples: dict[int, list[np.ndarray]] = {}
        # Partial-freshness bookkeeping: the seed of every region stream,
        # the generation the full index reflects, and per-region overrides
        # for regions refreshed on demand since then.
        self._region_base: int | None = None
        self._index_gen = 0
        self._region_gen: dict[int, int] = {}

    def _scale_index(self, distance_ms: float) -> int:
        clamped = min(max(distance_ms, self._min_scale_ms), self._max_scale_ms)
        return int(
            round(math.log2(clamped / self._min_scale_ms))
        )

    def _partial_reset(self) -> None:
        self._region_base = None
        self._index_gen = 0
        self._region_gen = {}

    def _build(self, rng: np.random.Generator) -> None:
        n_scales = self._scale_index(self._max_scale_ms) + 1
        self._scales = [self._min_scale_ms * 2**i for i in range(n_scales)]
        if self._region_base is None:
            # One draw pins every region stream; rebuilds consume nothing.
            self._region_base = int(rng.integers(2**63))
        self._samples = {}
        for node in self.members:
            self._build_region(int(node))
        self._note_index_current()

    def _build_region(self, node: int) -> None:
        """(Re)draw ``node``'s sample hierarchy from its keyed region stream."""
        members = self.members
        rng = np.random.default_rng(
            (self._region_base, self.maintenance_generation, node)
        )
        distances = self.offline_distances_from(node)
        per_scale: list[np.ndarray] = []
        for radius in self._scales:
            inside = members[(distances <= radius) & (members != node)]
            if inside.size > self._samples_per_scale:
                inside = rng.choice(
                    inside, size=self._samples_per_scale, replace=False
                )
            per_scale.append(inside)
        self._samples[node] = per_scale

    # -- partial freshness -----------------------------------------------------

    def _region_is_fresh(self, node: int) -> bool:
        return (
            self._region_gen.get(node, self._index_gen)
            == self.maintenance_generation
        )

    def _refresh_region(self, node: int) -> None:
        self._build_region(node)
        self._region_gen[node] = self.maintenance_generation

    def _note_index_current(self) -> None:
        self._index_gen = self.maintenance_generation
        self._region_gen = {}
        if len(self._samples) != self.members.size:
            live = set(int(m) for m in self.members)
            for node in [n for n in self._samples if n not in live]:
                del self._samples[node]

    def _plan(self, target: int, rng: np.random.Generator):
        """Stepwise search: one round per sampling hop (native plan)."""
        current = int(rng.choice(self.members))
        first = self.probe(current, target)
        kept, vals, _ = yield from self._offer_round([current], target, [first])
        if not kept:  # the seed probe was lost: nothing to descend from
            return self.no_answer(target)
        measured = dict(zip(kept, vals.tolist()))
        path = [current]
        for _ in range(self._max_rounds):
            d = measured[current]
            scale = self._scale_index(2.0 * d)
            # Region-aware freshness: refresh the ball hierarchy this hop
            # reads (a no-op outside lazy-partial / when already fresh).
            self.touch_region(current)
            per_scale = self._samples.get(current)
            if per_scale is None:  # departed mid-flight under daemon churn
                break
            candidates = per_scale[min(scale, len(self._scales) - 1)]
            fresh = [
                m
                for m in (int(c) for c in candidates)
                if m not in measured and m != target
            ]
            values = self.probe_many(fresh, target)
            if fresh:
                fresh, values, _ = yield from self._offer_round(
                    fresh, target, values
                )
            measured.update(zip(fresh, values.tolist()))
            best = min(measured, key=measured.get)
            # Move only on a halving, the Karger-Ruhl progress criterion.
            if measured[best] <= d / 2.0 and best != current:
                current = best
                path.append(current)
            else:
                break
        return self.result(target, measured, hops=len(path) - 1, path=path)
