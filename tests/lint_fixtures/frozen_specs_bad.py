# Fixture: every tagged line must be caught by frozen-specs.
# Linted as though it lived at src/repro/harness/fixture.py.
from dataclasses import dataclass


@dataclass
class MutableChurnSpec:  # LINT: frozen-specs
    rate: float = 0.5


@dataclass(eq=True)
class KeywordButNotFrozenSpec:  # LINT: frozen-specs
    window: int = 1


def tweak(spec: MutableChurnSpec, daemon_spec) -> None:
    spec.rate = 0.9  # LINT: frozen-specs
    daemon_spec.per_node_concurrency += 1  # LINT: frozen-specs
