"""Runtime-information traces.

A :class:`TraceSet` is the unit of exchange between the hardware-simulation
phase and the scheduling-evaluation phase (paper Fig 7: "runtime info ...
saved as files"): for one (model, weight-sparsity config, dataset) triple it
holds, per input sample and per layer, the simulated latency and the dynamic
sparsity the hardware monitor would observe.  The CSV round-trip mirrors the
artifact's ``hw_simulator`` CSV files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import ProfilingError


@dataclass(frozen=True)
class TraceSet:
    """Per-sample, per-layer runtime information of one profiled model.

    Attributes:
        model_name: Zoo model name.
        pattern_key: Weight-sparsity config key (``WeightSparsityConfig.key``).
        dataset: Dataset (or mixture) identifier the samples were drawn from.
        latencies: ``(n_samples, num_layers)`` latency matrix, seconds;
            finite and positive.
        sparsities: ``(n_samples, num_layers)`` monitored dynamic sparsity,
            in [0, 1].

    Rows are kept as numpy arrays, never as Python float lists: a trace set
    lives as long as the profile does, and a list entry costs four times a
    float64 cell.  The workload list builders convert each sampled row once
    per call and share its floats among that call's requests; the lazy
    streams convert per request.  Only the per-row isolated latencies are
    cached here (:meth:`isolated_latency`).
    """

    model_name: str
    pattern_key: str
    dataset: str
    latencies: np.ndarray
    sparsities: np.ndarray
    layer_names: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        lat = np.asarray(self.latencies, dtype=float)
        sp = np.asarray(self.sparsities, dtype=float)
        if lat.ndim != 2 or lat.shape != sp.shape:
            raise ProfilingError(
                f"latencies {lat.shape} and sparsities {sp.shape} must be equal 2-D shapes"
            )
        if lat.shape[0] == 0 or lat.shape[1] == 0:
            raise ProfilingError("trace set must contain at least one sample and layer")
        # Written as "not inside the valid range" so NaN, which fails every
        # comparison, is rejected too.
        if not ((lat > 0) & (lat < np.inf)).all():
            raise ProfilingError("all layer latencies must be positive and finite")
        if not ((sp >= 0) & (sp <= 1)).all():
            raise ProfilingError("all sparsities must be in [0, 1] and not NaN")
        if self.layer_names and len(self.layer_names) != lat.shape[1]:
            raise ProfilingError("layer_names length must match the layer dimension")
        object.__setattr__(self, "latencies", lat)
        object.__setattr__(self, "sparsities", sp)
        object.__setattr__(self, "_row_isolated", None)

    @property
    def key(self) -> str:
        """LUT key for this (model, pattern) pair."""
        return f"{self.model_name}/{self.pattern_key}"

    @property
    def num_samples(self) -> int:
        return int(self.latencies.shape[0])

    @property
    def num_layers(self) -> int:
        return int(self.latencies.shape[1])

    @property
    def isolated_latencies(self) -> np.ndarray:
        """Uninterrupted end-to-end latency per sample (sum over layers)."""
        return self.latencies.sum(axis=1)

    def isolated_latency(self, row: int) -> float:
        """Isolated latency of sample ``row``, summed left to right.

        The same bits as ``Request.isolated_latency`` of a request built
        from that row.  Every row's sum is computed on the first call and
        cached, so building many requests never re-sums a row.
        """
        totals = self._row_isolated
        if totals is None:
            # np.cumsum adds left to right along the row; its last column
            # is the sequential total (``latencies.sum`` adds pairwise).
            totals = np.cumsum(self.latencies, axis=1)[:, -1].tolist()
            object.__setattr__(self, "_row_isolated", totals)
        return totals[row]

    @property
    def avg_total_latency(self) -> float:
        """Average isolated latency — the static scheduler's LUT entry."""
        return float(self.isolated_latencies.mean())

    @property
    def avg_layer_latencies(self) -> np.ndarray:
        return self.latencies.mean(axis=0)

    @property
    def avg_layer_sparsities(self) -> np.ndarray:
        return self.sparsities.mean(axis=0)

    @property
    def network_sparsities(self) -> np.ndarray:
        """Per-sample network sparsity (mean over layers, Table 2)."""
        return self.sparsities.mean(axis=1)

    def save_csv(self, path: Union[str, Path]) -> None:
        """Write one row per (sample, layer): mirrors the artifact CSVs."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "pattern", "dataset", "sample", "layer",
                             "latency_s", "sparsity"])
            for i in range(self.num_samples):
                for j in range(self.num_layers):
                    writer.writerow([
                        self.model_name, self.pattern_key, self.dataset, i, j,
                        repr(float(self.latencies[i, j])),
                        repr(float(self.sparsities[i, j])),
                    ])


def load_traceset_csv(path: Union[str, Path]) -> TraceSet:
    """Load a :class:`TraceSet` written by :meth:`TraceSet.save_csv`."""
    path = Path(path)
    rows = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append(row)
    if not rows:
        raise ProfilingError(f"{path}: empty trace file")
    model = rows[0]["model"]
    pattern = rows[0]["pattern"]
    dataset = rows[0]["dataset"]
    n_samples = max(int(r["sample"]) for r in rows) + 1
    n_layers = max(int(r["layer"]) for r in rows) + 1
    if len(rows) != n_samples * n_layers:
        raise ProfilingError(
            f"{path}: expected {n_samples * n_layers} rows, found {len(rows)}"
        )
    lat = np.empty((n_samples, n_layers))
    sp = np.empty((n_samples, n_layers))
    for r in rows:
        if r["model"] != model or r["pattern"] != pattern:
            raise ProfilingError(f"{path}: mixed models/patterns in one trace file")
        i, j = int(r["sample"]), int(r["layer"])
        lat[i, j] = float(r["latency_s"])
        sp[i, j] = float(r["sparsity"])
    return TraceSet(
        model_name=model, pattern_key=pattern, dataset=dataset,
        latencies=lat, sparsities=sp,
    )
