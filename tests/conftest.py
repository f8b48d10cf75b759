"""Shared fixtures: small worlds reused across the test suite, the
per-probe reference stepper the daemon's batch stepper is pinned against,
and the golden digest of a measurement-study result."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager

import numpy as np
import pytest

import repro.service.daemon as daemon_module
from repro.latency.builder import ClusteredWorld, build_clustered_oracle
from repro.netsim.network import Message, SimNode
from repro.service.stepper import round_outcome
from repro.topology.clustered import ClusteredConfig
from repro.topology.internet import InternetConfig, SyntheticInternet


@pytest.fixture(scope="session")
def small_internet() -> SyntheticInternet:
    """A compact router-level Internet (seconds to build, shared)."""
    config = InternetConfig(
        n_isps=4,
        pops_per_isp_low=2,
        pops_per_isp_high=4,
        en_per_pop_low=6,
        en_per_pop_high=24,
    )
    return SyntheticInternet.generate(config, seed=1234)


@pytest.fixture(scope="session")
def clustered_world() -> ClusteredWorld:
    """A Section 4 world exhibiting the clustering condition."""
    return build_clustered_oracle(
        ClusteredConfig(n_clusters=6, end_networks_per_cluster=20, delta=0.2),
        seed=99,
    )


@pytest.fixture(scope="session")
def uniform_matrix() -> np.ndarray:
    """A latency matrix from points uniform in a 2-D square (no clusters).

    The benign geometry every latency-only algorithm is happy in.
    """
    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 50.0, size=(160, 2))
    diff = points[:, None, :] - points[None, :, :]
    matrix = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(matrix, 0.0)
    return matrix


class _ReplyReceiver(SimNode):
    """Where the reference stepper's per-probe replies land."""

    def __init__(self, node_id: int, stepper: "ScalarStepper") -> None:
        super().__init__(node_id)
        self._stepper = stepper

    def on_message(self, message: Message) -> None:
        self._stepper.on_probe_reply(message.payload)


class ScalarStepper:
    """Reference round stepper: one loop event per probe.

    Every probe's reply is a message delivered through
    :meth:`~repro.netsim.network.Network.deliver_many`, and the plan
    resumes on the round's last reply.  A round's replies occupy one
    contiguous block of loop sequence numbers, every other event sorts
    strictly before or after that block, and the last reply fires at
    ``t + max(delays)`` — exactly when
    :class:`~repro.service.stepper.PlanBatchStepper`'s single round event
    fires.  So the two steppers must produce identical timelines; the
    in-flight integral is the same sum accrued per ±1 transition, so its
    time average agrees to rounding.
    """

    def __init__(self, daemon) -> None:
        self.daemon = daemon
        self.area = 0.0
        self.peak = 0
        self._count = 0
        self._last = 0.0
        # Replies still due, per job index.
        self._outstanding: dict[int, int] = {}
        # (time, ±1) breakpoints, for the traced in-flight gauge.
        self.bp_times: list[np.ndarray] = []
        self.bp_deltas: list[np.ndarray] = []
        self._receiver = _ReplyReceiver(daemon._coordinator_id + 1, self)
        daemon.network.attach(self._receiver)

    def _note(self, delta: int) -> None:
        now = self.daemon.loop.now
        self.area += self._count * (now - self._last)
        self._last = now
        self._count += delta
        if self._count > self.peak:
            self.peak = self._count
        if delta:
            self.bp_times.append(np.array([now]))
            self.bp_deltas.append(np.array([delta]))

    def dispatch_round(self, job, batch) -> None:
        delays = round_outcome(self.daemon, job, batch)
        self._outstanding[job.index] = len(batch)
        self._note(+len(batch))
        messages = [
            Message(
                src=src,
                dst=self._receiver.node_id,
                kind="probe-reply",
                payload=job,
            )
            for src in batch.srcs.tolist()
        ]
        self.daemon.network.deliver_many(messages, delays)

    def on_probe_reply(self, job) -> None:
        self._note(-1)
        self._outstanding[job.index] -= 1
        if self._outstanding[job.index] == 0:
            self.daemon._advance(job)

    def finalize(self) -> None:
        """Close the time-weighted integral at the loop's final time."""
        self._note(0)


@contextmanager
def _scalar_stepping():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(daemon_module, "PlanBatchStepper", ScalarStepper)
        yield


@pytest.fixture(scope="session")
def scalar_stepper():
    """Context manager: daemons built inside it step with the reference.

    ``with scalar_stepper(): record = run_daemon(...)`` swaps the
    daemon's stepper class for :class:`ScalarStepper` for the duration
    of the block only, so one test can compare both steppers.
    """
    return _scalar_stepping


def _canonical(value):
    """A JSON-ready, platform-independent image of a study result.

    Dataclasses become their field lists, dicts their item lists (in
    insertion order), and floats their exact ``float.hex`` spelling.
    """
    if dataclasses.is_dataclass(value):
        return [_canonical(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [[_canonical(k), _canonical(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value).hex()


def _result_digest(result) -> str:
    text = json.dumps(_canonical(result), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="session")
def study_digest():
    """SHA-256 (16 hex digits) over every field of a study result.

    Pins a ``DnsStudy`` / ``AzureusStudy`` output bit for bit: every
    measurement, predicted-latency list, counter, retained peer, cluster
    hub id and hub latency.
    """
    return _result_digest
