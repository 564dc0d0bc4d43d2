"""Joule integration during simulation: the :class:`EnergyAccountant`.

Where the :class:`~repro.energy.lut.EnergyLUT` holds offline *averages*
(what schedulers may estimate from), the accountant evaluates the same
compiled per-layer tables at a request's **ground-truth** sparsity trace —
the energy the hardware monitor would have metered — and integrates joules
at three granularities:

* **per request** — dynamic energy of all its layers plus static power
  over its actual executed time (``executed_time`` already reflects pool
  speed, so a 2x-fast pool halves the static share);
* **per block** — the increment a pool accrues when one layer block
  completes, summing to the request total exactly (the conservation
  invariant the tests pin down);
* **per pool / cluster** — busy joules plus *idle* joules: provisioned
  accelerator-seconds that served nothing still draw ``idle_power_w``,
  giving the autoscaler's accelerator-second cost its joule-denominated
  twin (:func:`energy_cost_summary`).

Accounting is strictly passive: no engine consults the accountant before a
scheduling decision, so enabling it cannot change any schedule (golden
parity tests enforce this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from repro.core.lut import ModelInfoLUT
from repro.seqsum import seqsum
from repro.sim.request import Request

from repro.energy.lut import EnergyLUT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.pool import Pool


class EnergyAccountant:
    """Evaluates per-request / per-block joules from compiled energy tables."""

    def __init__(self, energy_lut: EnergyLUT):
        self.energy_lut = energy_lut
        #: key -> (c0, c1, k as lists, static power): one-layer block pricing,
        #: filled on first use.
        self._scalar: Dict[str, Tuple[List[float], List[float], List[float], float]] = {}

    @classmethod
    def from_model_lut(cls, lut: ModelInfoLUT, **kwargs) -> "EnergyAccountant":
        """Accountant over :meth:`EnergyLUT.from_model_lut` of ``lut``."""
        return cls(EnergyLUT.from_model_lut(lut, **kwargs))

    @property
    def idle_power_w(self) -> float:
        """Idle draw per provisioned accelerator (mean over distinct tables).

        Pools serve mixed (model, pattern) keys, so the cluster tier charges
        one cluster-wide idle rating: the mean across the distinct energy
        models behind the LUT (deterministic: keys are sorted).
        """
        seen: Dict[float, None] = {}
        for key in self.energy_lut.keys:
            seen.setdefault(self.energy_lut.entry(key).table.idle_power_w)
        if not seen:
            return 0.0
        return seqsum(seen) / len(seen)

    def request_dynamic_energy(self, request: Request) -> float:
        """Dynamic joules of every layer at the request's true sparsities."""
        table = self.energy_lut.entry(request.key).table
        return float(table.dynamic(request.layer_sparsities).sum())

    def switch_energy(self, key: str) -> float:
        """DRAM joules of one weight (re)load of the (model, pattern)."""
        return self.energy_lut.entry(key).table.switch_joules

    def request_energy(self, request: Request) -> float:
        """Total joules the request's execution drew.

        Dynamic energy at the true sparsity trace, static power over
        ``executed_time`` (the wall-clock seconds the request actually
        occupied an accelerator, so pool speed and layer blocks are priced
        exactly), plus one DRAM weight stream-in per counted load
        (``num_weight_loads`` — same-key requests share resident weights).
        """
        table = self.energy_lut.entry(request.key).table
        return (
            self.request_dynamic_energy(request)
            + table.static_power_w * request.executed_time
            + table.switch_joules * request.num_weight_loads
        )

    def block_energy(
        self, request: Request, start_layer: int, n_layers: int, dt: float
    ) -> float:
        """Joules of one executed layer block (layers ``start..start+n-1``
        taking ``dt`` seconds of accelerator time).

        A one-layer block is priced with :meth:`LayerEnergyTable.dynamic_at`'s
        scalar formula over plain-list copies of the table's coefficients —
        the same IEEE operations as the numpy path, so bit-identical, without
        its per-call array overhead.  Longer blocks keep the numpy slice sum,
        whose reduction order a running sum would not reproduce.
        """
        if n_layers == 1:
            coeffs = self._scalar.get(request._key)
            if coeffs is None:
                table = self.energy_lut.entry(request._key).table
                coeffs = self._scalar[request._key] = (
                    table.c0.tolist(), table.c1.tolist(), table.k.tolist(),
                    table.static_power_w,
                )
            c0, c1, k, static_power_w = coeffs
            density = (1.0 - request.layer_sparsities[start_layer]) * k[start_layer]
            if density > 1.0:
                density = 1.0
            return c0[start_layer] + c1[start_layer] * density + static_power_w * dt
        table = self.energy_lut.entry(request.key).table
        dynamic = float(
            table.dynamic(
                request.layer_sparsities[start_layer:start_layer + n_layers],
                start=start_layer,
            ).sum()
        )
        return dynamic + table.static_power_w * dt


def energy_summary(
    requests: Sequence[Request], energy: EnergyAccountant
) -> Dict[str, float]:
    """Per-request energy aggregates merged into metric summaries.

    * ``energy_per_request`` — mean joules per completed inference;
    * ``total_joules`` — busy joules over the whole request set;
    * ``edp`` — mean per-request energy-delay product (J x s of turnaround):
      the classic joint objective; a scheduler lowers it either by spending
      fewer joules or by finishing energy-hungry work sooner.
    """
    joules = [energy.request_energy(r) for r in requests]
    n = len(requests)
    return {
        "energy_per_request": seqsum(joules) / n,
        "total_joules": seqsum(joules),
        "edp": seqsum(j * r.turnaround for j, r in zip(joules, requests)) / n,
    }


def pool_idle_joules(pool: "Pool", idle_power_w: float) -> float:
    """Idle-power joules over a pool's provisioned-but-unused seconds."""
    return idle_power_w * max(0.0, pool.acc_seconds_provisioned - pool.busy_time)


def energy_cost_summary(
    pools: Iterable["Pool"], energy: EnergyAccountant
) -> Dict[str, float]:
    """Cluster-wide joule cost: the twin of accelerator-second accounting.

    ``joules_used`` is what the executed work drew (per-block busy energy);
    ``joules_idle`` charges ``idle_power_w`` for every provisioned
    accelerator-second that served nothing — warm-up, draining and off-peak
    overprovisioning all show up here; their sum, ``joules_provisioned``,
    is what the meter (and the bill) would read.
    """
    idle_power = energy.idle_power_w
    used = 0.0
    idle = 0.0
    for pool in pools:
        used += pool.joules_busy
        idle += pool_idle_joules(pool, idle_power)
    return {
        "joules_used": used,
        "joules_idle": idle,
        "joules_provisioned": used + idle,
    }
