"""Section 3.1: DNS-server latency prediction study (Figures 3, 4, 5).

Pipeline, exactly as the paper runs it:

1. rockettrace from the single measurement host to every recursive DNS
   server; map each server to its closest upstream PoP (same-AS+city hop
   group nearest the destination).
2. Randomly pair servers within each PoP cluster so each server appears in
   about ``pairs_per_server`` pairs.
3. For each pair, find the last common router of the two traces.  If it is
   below the PoP the message turns around there (case i), else at the PoP
   (case ii); either way the predicted latency is the sum of the two
   ping-derived server→router latencies (ping to server minus ping to
   router, negatives discarded).
4. Measure the same pairs with King (different-domain pairs only).
5. Filters: drop pairs > ``max_hops_from_common`` hops from the common
   router, and pairs with predicted latency > ``max_predicted_ms``.

Figure 3 is the CDF of predicted/measured; Figure 4 bins that ratio by
predicted latency; Figure 5 compares intra-domain predicted latencies
(hop-limited at 5 and 10) against inter-domain predicted and King-measured
latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.binning import BinnedPercentiles, binned_percentiles, log_bins
from repro.analysis.cdf import EmpiricalCdf
from repro.measurement.king import KingEstimator
from repro.measurement.ping import Pinger
from repro.measurement.pipeline_types import DnsPairMeasurement, TracerouteResult
from repro.measurement.traceroute import Rockettrace, last_common_router
from repro.topology.elements import RouterKind
from repro.topology.internet import SyntheticInternet
from repro.util.errors import DataError
from repro.util.rng import make_rng
from repro.util.validate import require_positive


@dataclass(frozen=True)
class DnsStudyConfig:
    """Knobs of the Section 3.1 pipeline (paper values as defaults)."""

    pairs_per_server: int = 4
    max_hops_from_common: int = 10
    intra_domain_strict_hops: int = 5
    max_predicted_ms: float = 100.0

    def __post_init__(self) -> None:
        require_positive(self.pairs_per_server, "pairs_per_server")


@dataclass
class DnsStudyResult:
    """Everything Figures 3-5 need."""

    measurements: list[DnsPairMeasurement] = field(default_factory=list)
    intra_domain_predicted_5: list[float] = field(default_factory=list)
    intra_domain_predicted_10: list[float] = field(default_factory=list)
    inter_domain_predicted_10: list[float] = field(default_factory=list)
    inter_domain_measured_10: list[float] = field(default_factory=list)
    servers_traced: int = 0
    clusters_found: int = 0
    pairs_discarded_negative: int = 0
    pairs_discarded_hops: int = 0
    pairs_discarded_far: int = 0

    def prediction_measures(self) -> np.ndarray:
        """The Fig 3 sample: predicted/measured for valid pairs."""
        return np.array(
            [
                m.prediction_measure
                for m in self.measurements
                if m.prediction_measure is not None
            ]
        )

    def fraction_within(self, low: float = 0.5, high: float = 2.0) -> float:
        """The paper's headline: ~65 % of pairs within [0.5, 2]."""
        values = self.prediction_measures()
        if values.size == 0:
            raise DataError("no valid pairs measured")
        return EmpiricalCdf.from_values(values).fraction_in_range(low, high)

    def fig4_bins(self) -> BinnedPercentiles:
        """Prediction measure binned by predicted latency."""
        valid = [m for m in self.measurements if m.prediction_measure is not None]
        predicted = [m.predicted_ms for m in valid]
        measure = [m.prediction_measure for m in valid]
        edges = log_bins(max(min(predicted), 0.2), max(predicted) + 1e-9, 4)
        return binned_percentiles(predicted, measure, edges, min_count=8)


class DnsStudy:
    """Runs the Section 3.1 pipeline against a synthetic Internet."""

    def __init__(
        self,
        internet: SyntheticInternet,
        config: DnsStudyConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if internet.measurement_host_id is None:
            raise DataError("the internet has no measurement host")
        self._internet = internet
        self._config = config or DnsStudyConfig()
        self._rng = make_rng(seed)
        self._tracer = Rockettrace(internet, seed=self._rng)
        self._pinger = Pinger(internet, seed=self._rng)
        self._king = KingEstimator(internet, seed=self._rng)
        self._ping_cache: dict[tuple[str, int], float | None] = {}
        # Bulk true-latency blocks (see _precompute_true_latencies):
        # measurement-host->server RTTs and per-pair server RTTs, filled by
        # run() before the measurement loops.
        self._host_true: dict[int, float] = {}
        self._pair_true: dict[tuple[int, int], float] = {}

    # -- cached pings (the study reuses many measurements) -------------------

    def _ping_host(self, host: int) -> float | None:
        key = ("h", host)
        if key not in self._ping_cache:
            self._ping_cache[key] = self._pinger.ping_host(
                self._internet.measurement_host_id,
                host,
                true_ms=self._host_true.get(host),
            )
        return self._ping_cache[key]

    def _ping_router(self, router: int) -> float | None:
        key = ("r", router)
        if key not in self._ping_cache:
            self._ping_cache[key] = self._pinger.ping_router(
                self._internet.measurement_host_id, router
            )
        return self._ping_cache[key]

    # -- pipeline stages -------------------------------------------------------

    def _trace_all(self) -> dict[int, TracerouteResult]:
        mh = self._internet.measurement_host_id
        return {
            server: self._tracer.trace(mh, server)
            for server in self._internet.dns_server_ids
        }

    def _cluster_by_pop(
        self, traces: dict[int, TracerouteResult]
    ) -> dict[tuple[str, str], list[int]]:
        clusters: dict[tuple[str, str], list[int]] = {}
        for server, trace in traces.items():
            pop = trace.closest_upstream_pop()
            if pop is None:
                continue
            clusters.setdefault(pop[0], []).append(server)
        return clusters

    def _sample_pairs(
        self, clusters: dict[tuple[str, str], list[int]]
    ) -> list[tuple[int, int]]:
        pairs: set[tuple[int, int]] = set()
        for members in clusters.values():
            if len(members) < 2:
                continue
            members = list(members)
            # One 2-D draw per cluster: numpy fills row-major, so this is
            # bit-identical to drawing pairs_per_server partners per server
            # in a nested loop (the historical code path).
            draws = self._rng.choice(
                np.asarray(members),
                size=(len(members), self._config.pairs_per_server),
            )
            for server, row in zip(members, draws):
                for other in row.tolist():
                    if other == server:
                        continue
                    pairs.add((min(server, other), max(server, other)))
        return sorted(pairs)

    def _predict_pair(
        self,
        a: int,
        b: int,
        trace_a: TracerouteResult,
        trace_b: TracerouteResult,
        result: DnsStudyResult,
    ) -> DnsPairMeasurement | None:
        cfg = self._config
        common = last_common_router(trace_a, trace_b)
        if common is None:
            return None
        hops_a = trace_a.hops_between(common)
        hops_b = trace_b.hops_between(common)
        if hops_a is None or hops_b is None:
            return None
        if max(hops_a, hops_b) > cfg.max_hops_from_common:
            result.pairs_discarded_hops += 1
            return None
        ping_a = self._ping_host(a)
        ping_b = self._ping_host(b)
        ping_common = self._ping_router(common)
        if ping_a is None or ping_b is None or ping_common is None:
            return None
        leg_a = ping_a - ping_common
        leg_b = ping_b - ping_common
        if leg_a < 0 or leg_b < 0:
            result.pairs_discarded_negative += 1
            return None
        predicted = leg_a + leg_b
        if predicted > cfg.max_predicted_ms:
            result.pairs_discarded_far += 1
            return None
        record_a = self._internet.host(a)
        record_b = self._internet.host(b)
        same_domain = (
            record_a.domain is not None and record_a.domain == record_b.domain
        )
        measured = (
            None
            if same_domain
            else self._king.measure(a, b, true_ms=self._pair_true.get((a, b)))
        )
        kind = self._internet.router(common).kind
        return DnsPairMeasurement(
            server_a=a,
            server_b=b,
            predicted_ms=predicted,
            measured_ms=measured,
            common_router_id=common,
            shared_below_pop=kind in (RouterKind.AGGREGATION, RouterKind.EDGE),
            hops_a=hops_a,
            hops_b=hops_b,
            same_domain=same_domain,
        )

    def _intra_domain_pairs(
        self, traces: dict[int, TracerouteResult]
    ) -> list[tuple[int, int]]:
        by_domain: dict[str, list[int]] = {}
        for server in traces:
            domain = self._internet.host(server).domain
            if domain is not None:
                by_domain.setdefault(domain, []).append(server)
        pairs = []
        for members in by_domain.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pairs.append((members[i], members[j]))
        return pairs

    def _precompute_true_latencies(
        self,
        pairs: list[tuple[int, int]],
        intra_pairs: list[tuple[int, int]],
    ) -> None:
        """Bulk-build every true RTT the measurement loops will ask for.

        One ``latency_matrix`` row covers the measurement-host pings, one
        ``pair_latencies`` call the King pair measurements (the sampled
        pairs are mostly same-PoP, so a dense block over their hosts would
        be almost entirely wasted work).  No RNG is consumed here, so the
        downstream noise draws (and therefore the study results) are
        unchanged.
        """
        internet = self._internet
        hosts = sorted(
            {h for pair in pairs for h in pair}
            | {h for pair in intra_pairs for h in pair}
        )
        if not hosts:
            return
        mh = internet.measurement_host_id
        host_row = internet.latency_matrix([mh], hosts)[0]
        self._host_true = {h: float(v) for h, v in zip(hosts, host_row)}
        if pairs:
            values = internet.pair_latencies(pairs)
            self._pair_true = {
                pair: float(v) for pair, v in zip(pairs, values)
            }

    # -- entry point -------------------------------------------------------------

    def run(self) -> DnsStudyResult:
        """Execute the full pipeline."""
        cfg = self._config
        result = DnsStudyResult()
        traces = self._trace_all()
        result.servers_traced = len(traces)
        clusters = self._cluster_by_pop(traces)
        result.clusters_found = len(clusters)
        pairs = self._sample_pairs(clusters)
        intra_pairs = self._intra_domain_pairs(traces)
        self._precompute_true_latencies(pairs, intra_pairs)

        # Inter-domain pairs within clusters (Figs 3, 4, and 5's two
        # inter-domain curves).
        for a, b in pairs:
            measurement = self._predict_pair(a, b, traces[a], traces[b], result)
            if measurement is None or measurement.same_domain:
                continue
            result.measurements.append(measurement)
            result.inter_domain_predicted_10.append(measurement.predicted_ms)
            if measurement.measured_ms is not None:
                result.inter_domain_measured_10.append(measurement.measured_ms)

        # Intra-domain pairs (Fig 5's two intra-domain curves; King is
        # unusable here so the predicted latency stands in, as in the paper).
        for a, b in intra_pairs:
            measurement = self._predict_pair(a, b, traces[a], traces[b], result)
            if measurement is None:
                continue
            hops = max(measurement.hops_a, measurement.hops_b)
            if hops <= cfg.intra_domain_strict_hops:
                result.intra_domain_predicted_5.append(measurement.predicted_ms)
            result.intra_domain_predicted_10.append(measurement.predicted_ms)
        return result
