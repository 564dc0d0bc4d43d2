"""Model-information energy LUT (the joule twin of :mod:`repro.core.lut`).

The latency :class:`~repro.core.lut.ModelInfoLUT` stores, per (model,
pattern) key, offline-average per-layer latencies and a remaining-latency
suffix; this module mirrors that structure for energy, so energy-aware
schedulers estimate joules exactly the way every other policy estimates
seconds — through offline averages, never a request's ground-truth trace.

An :class:`EnergyLUT` is *derived* from an existing ``ModelInfoLUT``: for
each key it rebuilds the model graph from the zoo registry, re-parses the
weight pattern from the key, compiles the family's
:class:`~repro.energy.model.EnergyModel` into a
:class:`~repro.energy.model.LayerEnergyTable`, and evaluates it at the
latency LUT's average layer sparsities and latencies.  Keys whose model is
not in the registry (synthetic test traces, user models) fall back to a
constant-power proxy table flagged ``synthetic`` — every energy API stays
total, and reports can call the proxy out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.lut import ModelInfoLUT
from repro.errors import ModelError, SchedulingError, SparsityError
from repro.models.graph import ModelFamily
from repro.models.registry import ALL_CNN_MODELS, build_model

from repro.energy.model import (
    EnergyModel,
    LayerEnergyTable,
    default_energy_model,
    parse_pattern_key,
    synthetic_table,
)


@dataclass(frozen=True)
class EnergyEntry:
    """Offline energy averages of one (model, pattern) pair."""

    avg_total_energy: float
    avg_layer_energies: np.ndarray
    #: suffix[j] = expected joules of layers j..L-1 (suffix[L] = 0).
    remaining_suffix: np.ndarray
    #: Average draw while executing: avg_total_energy / avg_total_latency.
    avg_power_w: float
    table: LayerEnergyTable

    @property
    def synthetic(self) -> bool:
        return self.table.synthetic


def _family_for(model_name: str) -> ModelFamily:
    return ModelFamily.CNN if model_name in ALL_CNN_MODELS else ModelFamily.ATTNN


class EnergyLUT:
    """Per-(model, pattern) offline energy averages over a latency LUT.

    Args:
        lut: The latency LUT whose keys (and average layer sparsities/
            latencies) anchor the energy entries.
        tables: Per-key compiled energy tables.  Keys of ``lut`` absent
            here get a constant-power proxy (``nominal_power_w``) so the
            LUT is total over the latency LUT's key set.
        nominal_power_w: Draw assumed for proxy entries.
    """

    def __init__(
        self,
        lut: ModelInfoLUT,
        tables: Mapping[str, LayerEnergyTable],
        *,
        nominal_power_w: float = 1.0,
    ):
        self.lut = lut
        self._entries: Dict[str, EnergyEntry] = {}
        for key in lut.keys:
            latency_entry = lut.entry_or_none(key)
            table = tables.get(key)
            if table is None:
                table = synthetic_table(
                    latency_entry.avg_layer_latencies, nominal_power_w
                )
            elif table.num_layers != len(latency_entry.avg_layer_latencies):
                raise SchedulingError(
                    f"energy table for {key!r} has {table.num_layers} layers, "
                    f"latency LUT has {len(latency_entry.avg_layer_latencies)}"
                )
            layer_energies = table.total(
                latency_entry.avg_layer_sparsities,
                latency_entry.avg_layer_latencies,
            )
            suffix = np.concatenate(
                [np.cumsum(layer_energies[::-1])[::-1], [0.0]]
            )
            total = float(layer_energies.sum())
            self._entries[key] = EnergyEntry(
                avg_total_energy=total,
                avg_layer_energies=layer_energies,
                remaining_suffix=suffix,
                avg_power_w=total / latency_entry.avg_total_latency,
                table=table,
            )

    @classmethod
    def from_model_lut(
        cls,
        lut: ModelInfoLUT,
        *,
        models: Optional[Mapping[str, EnergyModel]] = None,
        nominal_power_w: float = 1.0,
    ) -> "EnergyLUT":
        """Compile energy tables for every resolvable key of ``lut``.

        Args:
            models: Optional per-family overrides keyed ``"cnn"``/
                ``"attnn"``; defaults to the family's paper accelerator
                energy model.
        """
        tables: Dict[str, LayerEnergyTable] = {}
        for key in lut.keys:
            model_name, _, pattern_key = key.partition("/")
            try:
                graph = build_model(model_name)
                weights = parse_pattern_key(pattern_key)
            except (ModelError, SparsityError):
                continue  # proxy entry (synthetic trace / user model)
            family = _family_for(model_name)
            em = (models or {}).get(family.value) or default_energy_model(family)
            if graph.num_layers != lut.num_layers(key):
                continue  # trace profiled on a different graph: proxy entry
            tables[key] = em.layer_table(graph, weights)
        return cls(lut, tables, nominal_power_w=nominal_power_w)

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    @property
    def num_synthetic(self) -> int:
        """Entries backed by the constant-power proxy (no real model)."""
        return sum(1 for e in self._entries.values() if e.synthetic)

    def entry(self, key: str) -> EnergyEntry:
        try:
            return self._entries[key]
        except KeyError:
            raise SchedulingError(f"no energy LUT entry for {key!r}") from None

    def avg_power(self, key: str) -> float:
        """Average draw (W) of one isolated inference of the pair."""
        return self.entry(key).avg_power_w

    def static_remaining_energy(self, key: str, next_layer: int) -> float:
        """Expected joules of layers ``next_layer..L-1`` (offline averages)."""
        entry = self.entry(key)
        if not 0 <= next_layer <= len(entry.avg_layer_energies):
            raise SchedulingError(
                f"{key}: layer index {next_layer} outside "
                f"[0, {len(entry.avg_layer_energies)}]"
            )
        return float(entry.remaining_suffix[next_layer])
