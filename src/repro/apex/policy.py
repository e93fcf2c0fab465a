"""The APEX policy engine.

Periodically samples a set of performance counters and runs user
policies over the sample.  Policies return decisions (or ``None``);
every fired decision is recorded with its simulated timestamp, so
adaptation behaviour is fully inspectable after a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.counters.manager import ActiveCounters
from repro.counters.query import PeriodicQuery
from repro.counters.registry import CounterRegistry
from repro.counters.types import CounterValue


@dataclass(frozen=True)
class PolicyDecision:
    """One action taken by a policy."""

    action: str
    value: Any = None


@dataclass
class PolicyRule:
    """A named policy: ``fn(sample, time_ns) -> PolicyDecision | None``.

    *sample* maps counter names to values for the current period
    (counters are reset each period, so rate-like counters read
    per-period values).
    """

    name: str
    fn: Callable[[dict[str, float], int], PolicyDecision | None]


@dataclass
class FiredDecision:
    time_ns: int
    rule: str
    decision: PolicyDecision


class PolicyEngine:
    """Sample counters on a period; apply policies on each sample.

    Sampling is a :class:`~repro.counters.query.PeriodicQuery` (out of
    band, counters reset each period) whose sink runs the rules.
    """

    def __init__(
        self,
        *,
        engine: Any,
        runtime: Any,
        registry: CounterRegistry,
        counter_specs: Sequence[str],
        period_ns: int,
        rules: Sequence[PolicyRule] = (),
    ) -> None:
        self.engine = engine
        self.rules: list[PolicyRule] = list(rules)
        self.history: list[FiredDecision] = []
        self.samples: list[dict[str, float]] = []
        self.query = PeriodicQuery(
            ActiveCounters(registry, counter_specs),
            engine=engine,
            runtime=runtime,
            interval_ns=period_ns,
            sink=self._apply,
            in_band=False,
            reset_each_sample=True,
        )

    def add_rule(self, rule: PolicyRule) -> None:
        self.rules.append(rule)

    def start(self) -> None:
        """Begin sampling; the first period is measured from now."""
        self.query.start()
        self.query.active.reset_active_counters()

    def stop(self) -> None:
        self.query.stop()

    def _apply(self, values: list[CounterValue]) -> None:
        sample = {v.name: v.value for v in values}
        self.samples.append(sample)
        for rule in self.rules:
            decision = rule.fn(sample, self.engine.now)
            if decision is not None:
                self.history.append(
                    FiredDecision(time_ns=self.engine.now, rule=rule.name, decision=decision)
                )
