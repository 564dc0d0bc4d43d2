"""Autoscaler tier: elastic pool capacity against load, with cost accounting.

The scenario engine drives diurnal and flash-crowd load curves, but a
fixed-size cluster must be provisioned for the peak — paying for idle
accelerators all night — or for the mean — shedding the crowd.  The
:class:`Autoscaler` closes that gap: at a fixed tick interval it asks an
:class:`~repro.cluster.policies.AutoscalePolicy` for each pool's desired
capacity and applies the difference through the pools' elastic-capacity
API, with two pieces of realism every production autoscaler faces:

* **provisioning latency** — scale-ups become schedulable only after a
  warm-up delay (instance boot, weight loading), so a reactive policy is
  always one provisioning horizon behind a surge; requests shed while
  capacity warms are tracked separately (``shed_under_scale_lag``);
* **drain-before-remove** — scale-downs never kill in-flight work: busy
  accelerators finish their current layer block and the request continues
  elsewhere (see :meth:`~repro.cluster.pool.Pool.remove_accelerators`).

Per-direction **cooldowns** rate-limit capacity changes on top of whatever
hysteresis the policy itself applies, the classic two-level flap guard.

Cost is accounted in accelerator-seconds: ``provisioned`` (the integral of
capacity over the run, warm-up and drain included — what the bill says)
vs ``used`` (busy time — what the work needed).  :func:`cost_summary`
folds both plus the scale-event and shed-under-lag counts into the metric
dictionaries of :class:`~repro.cluster.engine.ClusterResult`, the streaming
metrics path, and the scenario sweep runner's per-cell columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.lut import ModelInfoLUT
from repro.errors import SchedulingError
from repro.seqsum import seqsum

from repro.cluster.pool import Pool
from repro.cluster.policies import (
    AutoscalePolicy,
    available_autoscale_policies,
    make_autoscale_policy,
)

#: Policies whose constructor needs the offline model-information LUT.
_LUT_POLICIES = {"predictive"}


@dataclass(frozen=True)
class ScaleEvent:
    """One applied capacity change on one pool.

    Attributes:
        time: Simulation time the decision was applied.
        pool: Pool name.
        delta: Signed accelerator count change (+up / -down).
        capacity_after: The pool's provision target after the change.
        ready_at: When scaled-up capacity becomes schedulable (``None`` for
            scale-downs and for scale-ups fully covered by rescued drains).
    """

    time: float
    pool: str
    delta: int
    capacity_after: int
    ready_at: Optional[float] = None


class Autoscaler:
    """Tick-driven elastic capacity controller for a cluster of pools.

    Args:
        policy: An :class:`AutoscalePolicy` instance, or a registry name
            (``"reactive"``, ``"target-utilization"``, ``"predictive"``)
            for a policy with default parameters.
        interval: Seconds between autoscaling decisions.
        provision_latency: Warm-up delay before scaled-up capacity serves.
        cooldown_up: Minimum seconds between scale-ups of one pool.
        cooldown_down: Minimum seconds after *any* capacity change of one
            pool before it may scale down (defaults to ``2 * interval``) —
            scale-downs are the risky direction, so they wait out the
            consequences of the last change first.
    """

    def __init__(
        self,
        policy: Union[AutoscalePolicy, str],
        *,
        interval: float = 1.0,
        provision_latency: float = 2.0,
        cooldown_up: float = 0.0,
        cooldown_down: Optional[float] = None,
    ):
        if isinstance(policy, str):
            policy = make_autoscale_policy(policy)
        if interval <= 0.0:
            raise SchedulingError(f"tick interval must be positive, got {interval}")
        if provision_latency < 0.0:
            raise SchedulingError(
                f"provision latency must be >= 0, got {provision_latency}"
            )
        if cooldown_down is None:
            cooldown_down = 2.0 * interval
        if cooldown_up < 0.0 or cooldown_down < 0.0:
            raise SchedulingError("cooldowns must be >= 0")
        self.policy = policy
        self.interval = interval
        self.provision_latency = provision_latency
        self.cooldown_up = cooldown_up
        self.cooldown_down = cooldown_down
        self._last_up: Dict[str, float] = {}
        self._last_change: Dict[str, float] = {}

    def reset(self, pools: Sequence[Pool]) -> None:
        """Clear per-run state; called by the cluster engine before a run."""
        self.policy.reset(list(pools))
        self._last_up = {}
        self._last_change = {}

    def tick(self, pools: Sequence[Pool], now: float) -> List[ScaleEvent]:
        """Apply one autoscaling decision per pool; returns applied events."""
        events: List[ScaleEvent] = []
        for pool in pools:
            current = pool.provision_target
            desired = self.policy.clamp(
                self.policy.desired_capacity(pool, now, self.provision_latency)
            )
            if desired > current:
                last = self._last_up.get(pool.name)
                if last is not None and now - last < self.cooldown_up:
                    continue
                n = desired - current
                warming = pool.add_accelerators(
                    n, now, now + self.provision_latency
                )
                self._last_up[pool.name] = now
                self._last_change[pool.name] = now
                events.append(ScaleEvent(
                    time=now, pool=pool.name, delta=n, capacity_after=desired,
                    ready_at=now + self.provision_latency if warming else None,
                ))
            elif desired < current:
                last = self._last_change.get(pool.name)
                if last is not None and now - last < self.cooldown_down:
                    continue
                pool.remove_accelerators(current - desired, now)
                self._last_change[pool.name] = now
                events.append(ScaleEvent(
                    time=now, pool=pool.name, delta=desired - current,
                    capacity_after=desired,
                ))
        return events


def make_autoscaler(
    policy: str,
    *,
    lut: Optional[ModelInfoLUT] = None,
    min_accelerators: int = 1,
    max_accelerators: int = 8,
    interval: float = 1.0,
    provision_latency: float = 2.0,
    cooldown_up: float = 0.0,
    cooldown_down: Optional[float] = None,
    **policy_kwargs,
) -> Autoscaler:
    """Build an :class:`Autoscaler` from a policy name, supplying the LUT
    to the policies that need one (mirrors ``presets.build_router``)."""
    if policy in _LUT_POLICIES:
        if lut is None:
            raise SchedulingError(
                f"autoscale policy {policy!r} needs a ModelInfoLUT"
            )
        policy_kwargs["lut"] = lut
    instance = make_autoscale_policy(
        policy,
        min_accelerators=min_accelerators,
        max_accelerators=max_accelerators,
        **policy_kwargs,
    )
    return Autoscaler(
        instance,
        interval=interval,
        provision_latency=provision_latency,
        cooldown_up=cooldown_up,
        cooldown_down=cooldown_down,
    )


def cost_summary(
    pools: Sequence[Pool], scale_events: Sequence[ScaleEvent]
) -> Dict[str, float]:
    """Cluster-wide cost metrics merged into every result summary.

    ``acc_seconds_provisioned`` is the integral of provisioned capacity over
    the run (what a bill charges); ``acc_seconds_used`` is accelerator busy
    time (what the work needed); their ratio is the provisioned-capacity
    utilization.  ``shed_under_scale_lag`` counts requests shed while the
    target pool had capacity warming — load a zero-latency scaler would
    have absorbed.  ``acc_seconds_lost`` is downtime under fault injection:
    capacity that stayed on the bill while an injected outage kept it from
    serving (0.0 on fault-free runs).
    """
    provisioned = seqsum(p.acc_seconds_provisioned for p in pools)
    used = seqsum(p.busy_time for p in pools)
    return {
        "acc_seconds_provisioned": provisioned,
        "acc_seconds_used": used,
        "provisioned_utilization": used / provisioned if provisioned > 0 else 0.0,
        "num_scale_events": float(len(scale_events)),
        "shed_under_scale_lag": float(
            sum(p.shed_during_scale_lag for p in pools)
        ),
        "acc_seconds_lost": seqsum(p.acc_seconds_lost for p in pools),
    }


__all__ = [
    "Autoscaler",
    "ScaleEvent",
    "available_autoscale_policies",
    "cost_summary",
    "make_autoscaler",
]
