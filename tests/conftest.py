"""Shared fixtures: tiny synthetic traces and workloads for scheduler tests.

These avoid profiling the full benchmark in every unit test: a hand-built
two-model "zoo" with controlled latencies makes scheduler behaviour exactly
predictable.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.lut import ModelInfoLUT
from repro.profiling.trace import TraceSet
from repro.sim.request import Request
from repro.warehouse import COSTS_NAME, MANIFEST_NAME

#: A sweep store written by the retired JSON writer before the ``energy``,
#: ``telemetry_interval``, ``alerts`` and ``faults`` workload keys existed:
#: one ``steady/sjf/seed0`` cell of :data:`LEGACY_SWEEP`.
LEGACY_STORE = Path(__file__).parent / "fixtures" / "legacy_sweep_store_pre_energy.json"
#: ``SweepConfig`` arguments of the grid in :data:`LEGACY_STORE`.
LEGACY_SWEEP = dict(scenarios=("steady",), schedulers=("sjf",), seeds=(0,),
                    duration=3.0, n_profile_samples=10)


def warehouse_files(root):
    """``{relative path: bytes}`` of every warehouse file but the cost sidecar.

    The in-process twin of ``diff -r --exclude=costs.jsonl``: two sweeps
    of one grid must agree on every deterministic byte, not just on the
    checksums :meth:`~repro.warehouse.Warehouse.fingerprint` reports.
    """
    root = Path(root)
    files = {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != COSTS_NAME
    }
    assert MANIFEST_NAME in files, f"{root} is not a warehouse"
    return files


def build_trace(model_name, pattern, latencies, sparsities, dataset="unit"):
    return TraceSet(
        model_name=model_name,
        pattern_key=pattern,
        dataset=dataset,
        latencies=np.asarray(latencies, dtype=float),
        sparsities=np.asarray(sparsities, dtype=float),
    )


def _density_latencies(sparsities, scales):
    """Latency = per-layer scale x density: keeps the toy hardware physical
    (latency falls with sparsity), so the LUT's calibrated density slope is 1."""
    return [
        [scale * (1.0 - s) for scale, s in zip(scales, row)] for row in sparsities
    ]


@pytest.fixture
def toy_traces():
    """Two models: 'short' (2 layers, ~3ms) and 'long' (3 layers, ~30ms)."""
    short_sp = [[0.5, 0.5], [0.55, 0.52], [0.45, 0.48]]
    short = build_trace(
        "short", "dense",
        latencies=_density_latencies(short_sp, (0.002, 0.004)),
        sparsities=short_sp,
    )
    long_sp = [[0.3, 0.3, 0.3], [0.25, 0.28, 0.33], [0.35, 0.32, 0.27]]
    long = build_trace(
        "long", "dense",
        latencies=_density_latencies(long_sp, (1 / 70, 1 / 70, 1 / 70)),
        sparsities=long_sp,
    )
    return {short.key: short, long.key: long}


@pytest.fixture
def toy_lut(toy_traces):
    return ModelInfoLUT(toy_traces)


def make_request(
    rid=0,
    model="short",
    pattern="dense",
    arrival=0.0,
    slo=1.0,
    latencies=(0.001, 0.002),
    sparsities=(0.5, 0.5),
):
    return Request(
        rid=rid,
        model_name=model,
        pattern_key=pattern,
        arrival=arrival,
        slo=slo,
        layer_latencies=list(latencies),
        layer_sparsities=list(sparsities),
    )


@pytest.fixture
def request_factory():
    return make_request
