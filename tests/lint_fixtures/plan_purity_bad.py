# Fixture: every tagged line must be caught by plan-purity.
# Linted as though it lived at src/repro/algorithms/fixture.py.


class ImpurePlanScheme:
    def _plan(self, target: int, rng):
        direct = self.oracle.latency_ms(0, target)  # LINT: plan-purity
        row = self.oracle.latencies_from(0, [target])  # LINT: plan-purity
        hidden = self.maintenance_probe_many(0, [target])  # LINT: plan-purity
        offline = self.offline_distances_from(target)  # LINT: plan-purity
        yield direct
        return row, hidden, offline

    def query_plan(self, target: int, seed=None):
        value = self.oracle.latency_block([0], [target])  # LINT: plan-purity
        yield value
