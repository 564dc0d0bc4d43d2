"""Multi-accelerator scheduling engine: a one-pool cluster run.

Extension beyond the paper's single-NPU evaluation: a pool of identical
time-shared accelerators serving one shared ready queue, as in the paper's
data-center scenario (Table 3) where multiple NPUs sit behind one request
stream.  Scheduling semantics are unchanged — whenever an accelerator
finishes a layer block, the scheduler picks the next request for it from the
ready queue (layer-granularity preemption, paper Sec 4.2.2) — so every
policy from the registry works unmodified.

:func:`simulate_multi` is a thin adapter: it builds one
:class:`~repro.cluster.pool.Pool` named :data:`~repro.obs.bus.ENGINE_LANE`
and replays the stream through :func:`~repro.cluster.engine.simulate_cluster`,
so the pool's dispatch loop is the only implementation of these semantics.
With ``num_accelerators=1`` the run is step-for-step identical to
:func:`repro.sim.engine.simulate` (tested).  Observability follows the
cluster engine: every request emits one ``route`` instant on the trace
bus, telemetry columns are the pool's ``engine_queue_depth`` /
``engine_busy_npus`` / ``engine_provisioned`` plus the ``shed`` counter,
and the phase profile is the cluster's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import SchedulingError
from repro.obs import Observability
from repro.obs.bus import ENGINE_LANE
from repro.sim.engine import SimResult, _validate
from repro.sim.request import Request

if TYPE_CHECKING:  # avoid a runtime circular import with repro.schedulers
    from repro.energy.accounting import EnergyAccountant
    from repro.schedulers.base import Scheduler


def simulate_multi(
    requests: Sequence[Request],
    scheduler: "Scheduler",
    *,
    num_accelerators: int = 2,
    switch_cost: float = 0.0,
    block_size: int = 1,
    use_batch: Optional[bool] = None,
    energy: Optional["EnergyAccountant"] = None,
    obs: Optional[Observability] = None,
) -> SimResult:
    """Run the request stream on a pool of identical accelerators.

    Requests are mutated in place, exactly as in the single-NPU engine.
    A request executes one layer block at a time on one accelerator; at each
    block boundary it returns to the shared queue and any idle accelerator
    may pick it (or anything else) up.

    Args:
        switch_cost: Time charged whenever an accelerator switches to a
            *different model instance* than the one whose weights it holds
            resident (per-NPU tracking; same semantics as the single-NPU
            engine).
        block_size: Scheduling granularity in layers, as in the single-NPU
            engine; 1 = per layer (default).
        use_batch: ``None``/``True`` uses the vectorized path for schedulers
            that support it; ``False`` forces the scalar reference path.
        energy: Optional energy accountant; adds ``energy_per_request`` /
            ``total_joules`` / ``edp`` to the result metrics (passive —
            the schedule is unchanged).
        obs: Optional :class:`~repro.obs.Observability` bundle; execute
            spans carry the accelerator id, so the Chrome-trace export
            shows one lane per NPU.  Passive, like ``energy``.
    """
    _validate(requests, switch_cost, block_size)
    if num_accelerators <= 0:
        raise SchedulingError(f"need >= 1 accelerator, got {num_accelerators}")

    # Imported here: repro.cluster builds on repro.sim.
    from repro.cluster.engine import simulate_cluster
    from repro.cluster.pool import Pool

    pool = Pool(ENGINE_LANE, scheduler, num_accelerators,
                switch_cost=switch_cost, block_size=block_size,
                use_batch=use_batch)
    # Energy is summarized from the finished requests below rather than
    # metered per block inside the pool, which nothing here reads.
    run = simulate_cluster(requests, [pool], "round-robin", obs=obs)
    result = SimResult(
        requests=run.requests,
        makespan=run.makespan,
        num_preemptions=run.num_preemptions,
        num_scheduler_invocations=run.num_scheduler_invocations,
        max_queue_length=run.max_queue_length,
        num_batch_selects=run.num_batch_selects,
    )
    if energy is not None:
        from repro.energy.accounting import energy_summary

        result.metrics.update(energy_summary(run.requests, energy))
    return result
