"""Host-time spans around the public entry points of each ``src/repro`` layer.

The program is never edited: the :class:`Recorder` wraps callables from
the outside — instance attributes of the world oracle and the algorithm,
and, while :meth:`Recorder.installed` is active, a few class attributes of
the service, event loop, network and engine modules.  Every wrapper only
reads the host clock and forwards its arguments and result unchanged, so
the simulated outputs of a wrapped run are byte-identical to an unwrapped
one (the benchmark checks this on every traced run).

Spans are kept in memory as parallel arrays — name, start, end, parent
span, plan id — and written out with :meth:`Recorder.dump` when the run
ends.  A span's self time is its duration minus the durations of its
direct children; a span name's prefix before the first ``.`` is its layer.

Two wrapper sets exist.  The minimal set (``full=False``) bounds only what
the end-to-end metrics need — world build, ``algorithm.build``, the
daemon's serve loop, scoring and trace export, one span per call — and is
what the end-to-end runs use.  The full set adds the per-call layer
wrappers (oracle batches, plan steps, maintenance, ring repair, fault
model, deliveries, event loop) for the traced run's per-layer split.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.algorithms.meridian_search as meridian_module
import repro.harness.engine as engine_module
from repro.netsim.engine import EventLoop
from repro.netsim.network import Network
from repro.service.daemon import QueryDaemon

#: The span that bounds host serve time (first arrival -> loop drain).
SERVE = "service.serve"

#: Algorithm methods that apply membership maintenance.
MAINTENANCE_METHODS = (
    "join",
    "leave",
    "flush_maintenance",
    "partial_flush",
    "touch_region",
)


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, full: bool) -> None:
        self.full = full
        # Flat typed arrays, not lists of Python objects: the garbage
        # collector never has to walk them while the program runs.
        self._name_ids: dict[str, int] = {}
        self.name_table: list[str] = []
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.plans = array("q")
        self._stack: list[int] = []
        self._next_plan = 0
        self.oracle_cells = 0
        #: Instance attributes patched since the last :meth:`release`.
        self._patched: list[tuple[object, str]] = []
        #: ``(memberships, epoch_of_query)`` of the last scored record.
        self.last_scored: tuple | None = None

    # -- span primitives ---------------------------------------------------

    def begin(self, name: str, plan: int = -1) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if plan < 0 and parent >= 0:
            plan = self.plans[parent]
        index = len(self.names)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        self.names.append(name_id)
        self.parents.append(parent)
        self.plans.append(plan)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(
                f"span {self.name_table[self.names[index]]!r} closed out of order"
            )

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def timed(self, fn, name: str):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return wrapper

    # -- wrappers ----------------------------------------------------------

    def _patch(self, obj, attr: str, wrapper) -> None:
        setattr(obj, attr, wrapper)
        self._patched.append((obj, attr))

    def release(self) -> None:
        """Drop the instance wrappers.

        Each wrapper closes over a bound method of the object it is stored
        on; removing it breaks that cycle so the world and the algorithm's
        index are freed when the trial ends, not at the next full garbage
        collection (which would inflate peak memory).
        """
        for obj, attr in self._patched:
            delattr(obj, attr)
        self._patched.clear()

    def wrap_oracle(self, oracle) -> None:
        """Count and time the world oracle's batch calls (full set only)."""
        if not self.full:
            return
        begin, end = self.begin, self.end
        n_nodes = int(oracle.n_nodes)
        latencies_from = oracle.latencies_from
        latency_block = oracle.latency_block

        def wrapped_from(a, members=None):
            self.oracle_cells += n_nodes if members is None else int(np.size(members))
            index = begin("topology.oracle")
            try:
                return latencies_from(a, members)
            finally:
                end(index)

        def wrapped_block(rows, cols):
            self.oracle_cells += int(np.size(rows)) * int(np.size(cols))
            index = begin("topology.oracle")
            try:
                return latency_block(rows, cols)
            finally:
                end(index)

        self._patch(oracle, "latencies_from", wrapped_from)
        self._patch(oracle, "latency_block", wrapped_block)

    def wrap_algorithm(self, algorithm) -> None:
        """Time ``build`` always; plan steps, maintenance and repair in full."""
        self._patch(algorithm, "build", self.timed(algorithm.build, "algorithms.build"))
        if not self.full:
            return
        for method in MAINTENANCE_METHODS:
            fn = getattr(algorithm, method, None)
            if fn is not None:
                self._patch(algorithm, method, self.timed(fn, "algorithms.maintenance"))
        repair = getattr(algorithm, "repair_rings", None)
        if repair is not None:
            self._patch(
                algorithm, "repair_rings", self.timed(repair, "meridian.repair")
            )
        query_plan = algorithm.query_plan

        def wrapped_plan(target, seed=None):
            self._next_plan += 1
            return self._timed_plan(query_plan(target, seed=seed), self._next_plan)

        self._patch(algorithm, "query_plan", wrapped_plan)

    def _timed_plan(self, plan, plan_id: int):
        """Forward a sans-io plan step by step, one span per step."""
        begin, end = self.begin, self.end
        sent = None
        while True:
            index = begin("algorithms.plan", plan_id)
            try:
                batch = plan.send(sent)
            except StopIteration as stop:
                return stop.value
            finally:
                end(index)
            sent = yield batch

    def _scored(self, fn):
        """Wrap ``score_epochs`` at the engine's import site, keeping its inputs."""
        timed = self.timed(fn, "harness.score")

        @functools.wraps(fn)
        def wrapper(matrix, memberships, epoch_of_query, *args, **kwargs):
            self.last_scored = (memberships, np.asarray(epoch_of_query, dtype=int))
            return timed(matrix, memberships, epoch_of_query, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the class-level entry points for the duration of a pass."""
        patches = [
            (QueryDaemon, "run", self.timed(QueryDaemon.run, SERVE)),
            (engine_module, "score_epochs", self._scored(engine_module.score_epochs)),
        ]
        if self.full:
            patches += [
                (owner, attr, self.timed(getattr(owner, attr), name))
                for owner, attr, name in (
                    (EventLoop, "run", "service.loop"),
                    (Network, "apply_faults", "netsim.fault"),
                    (Network, "deliver_many", "netsim.deliver"),
                    (Network, "deliver_later", "netsim.deliver"),
                    # Every ring-repair pass, periodic or run by ``leave``.
                    (meridian_module, "repair_overlay_rings", "meridian.repair_pass"),
                )
            ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None):
        """``(names, durations, self_times, in_serve)`` of spans ``[lo, hi)``.

        ``lo`` must be a root span's index, so every parent of a span in
        the range is in the range too.
        """
        hi = len(self.names) if hi is None else hi
        # Slicing copies, so no view pins the growing arrays' buffers.
        name_ids = np.frombuffer(self.names[lo:hi], dtype=np.int32)
        durations = np.frombuffer(self.ends[lo:hi]) - np.frombuffer(self.starts[lo:hi])
        parents = np.frombuffer(self.parents[lo:hi], dtype=np.int64) - lo
        has_parent = parents >= 0
        children = np.bincount(
            parents[has_parent],
            weights=durations[has_parent],
            minlength=name_ids.size,
        )
        serve_id = self._name_ids.get(SERVE, -1)
        in_serve = np.zeros(name_ids.size, dtype=bool)
        for i in range(name_ids.size):  # parents precede children
            in_serve[i] = name_ids[i] == serve_id or (
                has_parent[i] and in_serve[parents[i]]
            )
        names = np.array(self.name_table, dtype=object)[name_ids]
        return names, durations, durations - children, in_serve

    def total(self, name: str, lo: int = 0, hi: int | None = None) -> float:
        """Summed duration of the spans called ``name`` in ``[lo, hi)``."""
        hi = len(self.names) if hi is None else hi
        name_id = self._name_ids.get(name)
        return sum(
            self.ends[i] - self.starts[i]
            for i in range(lo, hi)
            if self.names[i] == name_id
        )

    def dump(self, path: Path) -> None:
        """Write every span as one tab-separated line (times in host µs)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\tplan\n")
            for i, name_id in enumerate(self.names):
                start_us = (self.starts[i] - t0) * 1e6
                end_us = (self.ends[i] - t0) * 1e6
                fh.write(
                    f"{i}\t{self.name_table[name_id]}\t{start_us:.1f}\t"
                    f"{end_us:.1f}\t{self.parents[i]}\t{self.plans[i]}\n"
                )
