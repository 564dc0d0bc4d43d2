"""Columnar sweep warehouse: fleet-scale result storage and analytics.

The only sweep result store: an append-only columnar format built for
10k-cell grids (result files of the retired JSON store convert with
:func:`~repro.warehouse.store.import_legacy_json`):

* **Store** (:mod:`repro.warehouse.store`): numpy-backed column segments
  under a checksummed manifest plus a CRC-framed journal tail — cell
  appends are O(1), crashes recover to the longest valid prefix, and the
  on-disk bytes are identical for any sweep worker count.
* **Query** (:mod:`repro.warehouse.query`): filter / project / aggregate
  streamed one segment at a time, never materializing the store.
* **Regression detection** (:mod:`repro.warehouse.regress`):
  ``repro regress`` gates req/s, EDP, violation rate and shed rate per
  (scenario, scheduler) group against a committed baseline with
  seed-noise-aware thresholds.
* **Live telemetry** (:mod:`repro.warehouse.telemetry`): per-worker
  throughput, failure counts and ETA published through the standard
  :class:`repro.obs.MetricsRegistry` while a sweep runs.
"""

from __future__ import annotations

from repro.warehouse.query import (
    aggregate,
    distinct,
    group_key,
    scan,
    select,
)
from repro.warehouse.regress import (
    REGRESS_METRICS,
    build_baseline,
    compare,
    format_rows,
    group_stats,
    load_baseline,
    regressions,
    write_baseline,
)
from repro.warehouse.store import (
    COSTS_NAME,
    JOURNAL_NAME,
    KEY_COLUMN,
    MANIFEST_NAME,
    SEGMENT_DIR,
    Warehouse,
    decode_segment,
    encode_segment,
    import_legacy_json,
)
from repro.warehouse.telemetry import SweepTelemetry

__all__ = [
    "Warehouse",
    "import_legacy_json",
    "encode_segment",
    "decode_segment",
    "KEY_COLUMN",
    "MANIFEST_NAME",
    "SEGMENT_DIR",
    "JOURNAL_NAME",
    "COSTS_NAME",
    "scan",
    "select",
    "distinct",
    "aggregate",
    "group_key",
    "REGRESS_METRICS",
    "group_stats",
    "build_baseline",
    "write_baseline",
    "load_baseline",
    "compare",
    "regressions",
    "format_rows",
    "SweepTelemetry",
]
