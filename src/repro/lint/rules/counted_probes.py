"""R3 ``counted-probes`` — no oracle measurement bypasses the billing.

The paper's cost/accuracy trade-off is stated in *probes*; the reproduction
bills every query-time measurement through
:class:`~repro.algorithms.base.NearestPeerAlgorithm`'s counted channels
(``probe``/``probe_many``/``probe_block``/``aux_probe*``) and every churn
measurement through the ``maintenance_probe*`` helpers.  A direct
``latency_ms``/``latencies_from``/``latency_block`` call inside
the algorithm/overlay/service/harness layers is an un-billed oracle read —
the numbers stay plausible while the cost axis quietly goes wrong.

Scope: the packages where billing is the point.  The oracle/topology
definitions themselves, the measurement-tool simulators, and the netsim
wire (which bills its own relay detours) are out of scope; build-time
(offline) probing inside scope carries explicit suppressions, because
"build may probe freely" is the paper's own offline-phase convention.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, attr_name, in_package

_ORACLE_METHODS = frozenset({"latency_ms", "latencies_from", "latency_block"})


class CountedProbesRule(Rule):
    rule_id = "counted-probes"
    description = (
        "direct oracle latency calls outside the counted probe helpers "
        "are billing bypasses"
    )
    invariant = (
        "every query/maintenance measurement lands on a probe counter the "
        "paper's cost axis reads"
    )

    def applies_to(self, path: str) -> bool:
        # algorithms/base.py hosts the counted helpers themselves; the
        # oracle/topology/latency definitions and measurement simulators
        # are the measurement substrate, not billed consumers of it.
        if path.endswith("repro/algorithms/base.py"):
            return False
        return in_package(path, "algorithms", "meridian", "service", "harness")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = attr_name(node.func)
            if name in _ORACLE_METHODS and isinstance(node.func, ast.Attribute):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"direct oracle `.{name}()` bypasses probe billing: "
                        "measure through probe/probe_many/probe_block or the "
                        "maintenance_probe* helpers",
                    )
                )
        return findings
