"""Cross-run regression detection on scheduling-quality metrics.

The scheduling-quality twin of ``repro perf --compare``: where the perf
gate tracks *engine throughput*, this gate tracks what the paper's claims
are actually about — requests/s served (STP), energy-delay product,
SLO-violation rate and shed rate — per (scenario, scheduler) cell group,
against a committed baseline file.

Thresholds are **seed-noise aware**: a group's baseline records the mean
*and* the across-seed standard deviation per metric, and a change only
counts as a regression when the direction-aware delta exceeds every one of

* an absolute floor (rates get 0.5 points — below that a "regression" in
  violation rate is numerical dust),
* a relative tolerance of the baseline mean (default 5%), and
* ``noise_mult`` standard errors of the seed noise
  (:math:`\\sqrt{\\sigma_b^2/n_b + \\sigma_c^2/n_c}`), so a metric that
  legitimately varies across seeds needs a correspondingly larger shift.

``repro regress`` exits non-zero on any regression, which is what CI
gates on.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import WarehouseError
from repro.seqsum import seqsum

BASELINE_KIND = "sweep-baseline"
BASELINE_SCHEMA = 1

#: Gated metrics: direction ("higher"/"lower" is better) and the absolute
#: floor below which a delta is never flagged.  ``edp`` and ``shed_rate``
#: only exist on energy / cluster sweeps; groups simply omit absent ones.
REGRESS_METRICS: Dict[str, Tuple[str, float]] = {
    "stp": ("higher", 0.0),
    "edp": ("lower", 0.0),
    "violation_rate": ("lower", 0.005),
    "shed_rate": ("lower", 0.005),
}


def group_stats(cells: Iterable[Dict],
                metrics: Iterable[str] = tuple(REGRESS_METRICS)
                ) -> Dict[str, Dict]:
    """Per-(scenario, scheduler) mean/std/n across seeds, from cell dicts."""
    groups: Dict[str, List[Dict]] = {}
    for cell in cells:
        key = f"{cell['scenario']}/{cell['scheduler']}"
        groups.setdefault(key, []).append(cell)
    out: Dict[str, Dict] = {}
    for key, members in sorted(groups.items()):
        stats: Dict[str, Dict[str, float]] = {}
        for metric in metrics:
            values = [float(c[metric]) for c in members
                      if metric in c and c[metric] is not None
                      and not math.isnan(float(c[metric]))]
            if not values:
                continue
            mean = seqsum(values) / len(values)
            variance = seqsum((v - mean) ** 2 for v in values) / len(values)
            stats[metric] = {"mean": mean, "std": math.sqrt(variance),
                             "n": len(values)}
        out[key] = {"n_cells": len(members), "metrics": stats}
    return out


def build_baseline(workload: Dict, cells: Iterable[Dict]) -> Dict:
    """The committed-baseline document for one sweep's cells."""
    return {
        "kind": BASELINE_KIND,
        "schema": BASELINE_SCHEMA,
        "workload": json.loads(json.dumps(workload)),
        "groups": group_stats(cells),
    }


def write_baseline(path: Union[str, Path], baseline: Dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Union[str, Path]) -> Dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise WarehouseError(f"{path}: unreadable baseline ({exc})") from None
    if not isinstance(doc, dict) or doc.get("kind") != BASELINE_KIND:
        raise WarehouseError(
            f"{path}: not a sweep baseline (write one with "
            f"`repro regress STORE --write-baseline {path}`)"
        )
    if doc.get("schema") != BASELINE_SCHEMA:
        raise WarehouseError(
            f"{path}: unsupported baseline schema {doc.get('schema')!r}")
    return doc


def _metric_stats(entry, metric: str) -> Optional[Dict]:
    """One group's ``{mean, std, n}`` for ``metric``, or ``None``.

    Tolerates hand-edited / truncated baselines: a group entry without a
    ``metrics`` key, or a metric missing any of the stat fields, is simply
    ungated instead of crashing the CI gate with a raw ``KeyError``.
    """
    if not isinstance(entry, dict):
        return None
    metrics = entry.get("metrics")
    stats = metrics.get(metric) if isinstance(metrics, dict) else None
    if not isinstance(stats, dict):
        return None
    if not all(isinstance(stats.get(field), (int, float))
               and not isinstance(stats.get(field), bool)
               for field in ("mean", "std", "n")):
        return None
    return stats


def compare(current: Dict, baseline: Dict, *, rel_tol: float = 0.05,
            noise_mult: float = 3.0,
            check_workload: bool = True) -> List[Dict]:
    """Direction-aware deltas of ``current`` vs ``baseline``, per group.

    Both arguments are baseline-shaped documents (``build_baseline`` of
    the current store vs the committed file).  Returns one row per
    (group, metric) present in both, each carrying the threshold it was
    judged against and a ``regressed`` verdict.
    """
    if check_workload and current.get("workload") != baseline.get("workload"):
        raise WarehouseError(
            "current store and baseline describe different workloads "
            f"({current.get('workload')} vs {baseline.get('workload')}); "
            "regenerate the baseline or pass --allow-workload-mismatch"
        )
    rows: List[Dict] = []
    base_groups = baseline.get("groups", {})
    for group, cur_entry in sorted(current.get("groups", {}).items()):
        base_entry = base_groups.get(group)
        if base_entry is None:
            continue
        for metric, (direction, abs_floor) in REGRESS_METRICS.items():
            cur = _metric_stats(cur_entry, metric)
            base = _metric_stats(base_entry, metric)
            if cur is None or base is None:
                continue
            noise = noise_mult * math.sqrt(
                base["std"] ** 2 / max(base["n"], 1)
                + cur["std"] ** 2 / max(cur["n"], 1)
            )
            threshold = max(abs_floor, rel_tol * abs(base["mean"]), noise)
            delta = cur["mean"] - base["mean"]
            worse = delta if direction == "lower" else -delta
            rows.append({
                "group": group,
                "metric": metric,
                "direction": direction,
                "baseline": base["mean"],
                "current": cur["mean"],
                "delta": delta,
                "threshold": threshold,
                "regressed": worse > threshold,
            })
    return rows


def regressions(rows: List[Dict]) -> List[Dict]:
    return [row for row in rows if row["regressed"]]


def format_rows(rows: List[Dict]) -> List[str]:
    """Printable delta table, worst offenders carrying a marker."""
    out = []
    for row in rows:
        arrow = "↑" if row["direction"] == "higher" else "↓"
        rel = (row["delta"] / row["baseline"] if row["baseline"] else math.inf
               if row["delta"] else 0.0)
        marker = "  <-- REGRESSION" if row["regressed"] else ""
        out.append(
            f"{row['group']:<24} {row['metric']:<15}{arrow} "
            f"{row['baseline']:10.4f} -> {row['current']:10.4f} "
            f"({rel:+8.1%}, gate ±{row['threshold']:.4f}){marker}"
        )
    return out

