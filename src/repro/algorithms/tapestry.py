"""Tapestry-style identifier-based sampling with proximity neighbour selection.

Each member gets a random hex identifier.  Level ``l`` of a node's routing
table holds, for each hex digit, the latency-closest members whose ids share
an ``l``-digit prefix with the node — built top-down as in Hildrum et al.'s
construction, assuming a growth-restricted metric.  The nearest-neighbour
search walks down the levels, at each level probing the current candidate
set and keeping the closest; in a growth-restricted space the candidate at
the last level is the true nearest neighbour.

Under the clustering condition the level structure is uninformative: the
cluster's peers are spread uniformly over identifier space, so the search's
per-level candidate sets are effectively random cluster samples — the paper:
"the only way the new peer would select the correct peer is by first picking
as its neighbor a peer that has the desired peer as a neighbor in the
appropriate level, and the likelihood of this latter event ... is small".
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import NearestPeerAlgorithm
from repro.util.validate import require_positive

_HEX_DIGITS = 16


class TapestrySearch(NearestPeerAlgorithm):
    """Prefix-routing nearest-neighbour search.

    Maintenance policy: ``rebuild``.  Hildrum-style routing tables are
    built top-down from global prefix groups; an arrival can enter (and a
    departure can vacate) any entry of any level of any node's table, so
    membership events re-run the full construction with every measurement
    billed as maintenance (``|M|²`` probes per event).  Real Tapestry
    deployments amortise this with background repair; the counted rebuild
    keeps the cost explicit instead of hiding it, and a deferred
    discipline (``maintenance="coalesce:8"`` or ``"lazy"``) models the
    amortisation — one counted rebuild per buffered event batch.

    Identifiers are *stable*: each member's hex id is drawn from its own
    keyed rng stream (seeded off a single ``region_base`` draw at initial
    build), like the static node hashes of a real Tapestry — rejoining
    peers keep their id and rebuilds consume nothing from the caller's
    rng.  Table construction itself is deterministic given ids and
    distances, so one node's routing table (its *region*) can be rebuilt
    on demand against the current membership at region cost ``|M|``.
    That is the ``lazy-partial`` discipline (``supports_partial_flush``):
    a query refreshes only the prefix neighborhoods on its walked path
    and returns exactly the answers a full ``lazy`` flush would.
    """

    name = "tapestry"
    maintenance_policy = "rebuild"
    supports_partial_flush = True

    def __init__(
        self,
        id_digits: int = 8,
        neighbors_per_entry: int = 3,
        probe_budget_per_level: int = 16,
        maintenance=None,
    ) -> None:
        super().__init__(maintenance=maintenance)
        require_positive(id_digits, "id_digits")
        self._id_digits = id_digits
        self._neighbors_per_entry = neighbors_per_entry
        self._probe_budget_per_level = probe_budget_per_level
        self._ids: dict[int, tuple[int, ...]] = {}
        # node -> level -> list of neighbour member ids (all digits merged)
        self._tables: dict[int, list[np.ndarray]] = {}
        # Partial-freshness bookkeeping (see KargerRuhlSearch): id-stream
        # seed, the generation the full index reflects, per-region
        # overrides, and the id matrix cached per member-array identity.
        self._region_base: int | None = None
        self._index_gen = 0
        self._region_gen: dict[int, int] = {}
        self._id_matrix: np.ndarray | None = None
        self._id_matrix_for: np.ndarray | None = None

    def _partial_reset(self) -> None:
        self._region_base = None
        self._index_gen = 0
        self._region_gen = {}
        self._ids = {}
        self._id_matrix = None
        self._id_matrix_for = None

    def _id_of(self, m: int) -> tuple[int, ...]:
        """The member's stable hex id, drawn lazily from its keyed stream."""
        cached = self._ids.get(m)
        if cached is None:
            id_rng = np.random.default_rng((self._region_base, 1, m))
            cached = tuple(
                int(d) for d in id_rng.integers(0, _HEX_DIGITS, size=self._id_digits)
            )
            self._ids[m] = cached
        return cached

    def _ids_matrix(self, members: np.ndarray) -> np.ndarray:
        """Id digits as an ``(n_members, id_digits)`` array, identity-cached."""
        if self._id_matrix_for is not members:
            self._id_matrix = np.array(
                [self._id_of(int(m)) for m in members], dtype=np.int8
            )
            self._id_matrix_for = members
        return self._id_matrix

    def _build(self, rng: np.random.Generator) -> None:
        if self._region_base is None:
            # One draw pins every id stream; rebuilds consume nothing.
            self._region_base = int(rng.integers(2**63))
        self._tables = {}
        for node in self.members:
            self._build_region(int(node))
        self._note_index_current()

    def _build_region(self, node: int) -> None:
        """Rebuild one node's routing table against the current membership.

        Vectorised Hildrum construction: members sharing an ``l``-digit
        prefix with the node, grouped by their next digit, keeping the
        latency-closest few per digit (proximity neighbour selection).
        """
        members = self.members
        ids = self._ids_matrix(members)
        node_id = np.asarray(self._id_of(node), dtype=np.int8)
        distances = self.offline_distances_from(node)
        not_self = members != node
        # Length of the common prefix with the node, for every member at
        # once: digit-wise equality, zeroed from the first mismatch on.
        shared = np.cumprod(ids == node_id, axis=1).sum(axis=1)
        levels: list[np.ndarray] = []
        for level in range(self._id_digits):
            eligible = not_self & (shared >= level)
            digits_here = ids[:, level]
            chosen: list[int] = []
            for digit in range(_HEX_DIGITS):
                idx = np.flatnonzero(eligible & (digits_here == digit))
                if idx.size == 0:
                    continue
                order = np.argsort(distances[idx], kind="stable")
                chosen.extend(
                    int(members[i])
                    for i in idx[order[: self._neighbors_per_entry]]
                )
            levels.append(np.asarray(chosen, dtype=int))
            if not chosen:
                break
        self._tables[node] = levels

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
        if len(self._tables) != self.members.size:
            live = set(int(m) for m in self.members)
            for node in [n for n in self._tables if n not in live]:
                del self._tables[node]

    def _plan(self, target: int, rng: np.random.Generator):
        """Stepwise search: one round per routing level (native plan)."""
        current = int(rng.choice(self.members))
        first = self.probe(current, target)
        kept, vals, _ = yield from self._offer_round([current], target, [first])
        if not kept:  # the seed probe was lost: nothing to route from
            return self.no_answer(target)
        measured = dict(zip(kept, vals.tolist()))
        path = [current]
        for level in range(self._id_digits):
            # Region-aware freshness: refresh the routing table this level
            # reads (a no-op outside lazy-partial / when already fresh).
            self.touch_region(current)
            table = self._tables.get(current)
            if table is None:  # departed mid-flight under daemon churn
                break
            if level >= len(table) or table[level].size == 0:
                break
            candidates = table[level]
            if candidates.size > self._probe_budget_per_level:
                candidates = rng.choice(
                    candidates, size=self._probe_budget_per_level, replace=False
                )
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
            if best != current:
                current = best
                path.append(current)
        return self.result(target, measured, hops=len(path) - 1, path=path)
