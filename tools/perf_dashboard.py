#!/usr/bin/env python
"""Perf-trajectory dashboard: render BENCH_perf.json as SVG + markdown.

``repro perf`` appends one entry per run to ``BENCH_perf.json``; this tool
turns that history into a small static dashboard:

* **cluster_throughput.svg** — cluster streaming throughput (requests/s)
  per router, across recorded entries;
* **engine_speedup.svg** — vectorized-vs-scalar engine speedup per
  scheduler (plus the deep-queue stress case), across entries;
* **profile_phases.svg** — stacked wall-clock phase attribution for the
  latest entry's engine self-profiles;
* **index.md** — the charts inlined, plus latest-entry summary tables.

With ``--sweep STORE`` (a sweep warehouse directory) it
additionally renders **fleet views** of the scheduling-quality grid:

* **fleet_heatmap_<metric>.svg** — one scenario x scheduler heatmap per
  gated metric (STP, violation rate, EDP, shed rate where present);
* **fleet_regression.svg** — per-group relative deltas against the
  committed ``--sweep-baseline``, regressed bars highlighted (the same
  seed-noise-aware gate ``repro regress`` exits nonzero on).

Entries have no timestamps (runs are environment-dependent anyway), so the
x-axis is the entry index: the *trajectory* across commits is the signal,
not absolute dates.  Everything is hand-rolled stdlib SVG — no plotting
dependency — and the output directory (``docs/_dashboard/`` by default) is
gitignored; CI regenerates it from the committed benchmark file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: Okabe-Ito palette: colorblind-safe, high-contrast on white.
PALETTE = ("#0072B2", "#D55E00", "#009E73", "#CC79A7",
           "#E69F00", "#56B4E9", "#F0E442", "#000000")

WIDTH, HEIGHT = 640, 360
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 150, 40, 40


def load_entries(path: str) -> List[Dict]:
    """Benchmark entries, oldest first, across both on-disk schemas.

    Schema 1 was a bare single-run dict; schema 2 wraps a history as
    ``{"schema": 2, "entries": [...]}``.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        return doc
    if isinstance(doc, dict) and isinstance(doc.get("entries"), list):
        return doc["entries"]
    return [doc]


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """A few round-ish axis ticks covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    step = next(s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw)
    start = int(lo / step) * step
    out = []
    value = start
    while value <= hi + 1e-12:
        if value >= lo - 1e-12:
            out.append(value)
        value += step
    return out or [lo, hi]


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.3g}"


def line_chart(series: Dict[str, List[Optional[float]]], *, title: str,
               ylabel: str, n_points: int) -> str:
    """One SVG line chart: x = entry index, one polyline per series.

    ``None`` values are gaps (an entry that lacks that section); the
    polyline breaks around them instead of interpolating.
    """
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    values = [v for vs in series.values() for v in vs if v is not None]
    lo, hi = 0.0, max(values) * 1.08 if values else 1.0
    xs = ([MARGIN_L + plot_w / 2.0] if n_points <= 1 else
          [MARGIN_L + plot_w * i / (n_points - 1) for i in range(n_points)])

    def y_of(value: float) -> float:
        return MARGIN_T + plot_h * (1.0 - (value - lo) / (hi - lo or 1.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="20" font-size="15" font-weight="bold">'
        f'{_esc(title)}</text>',
        f'<text x="14" y="{MARGIN_T + plot_h / 2:.1f}" '
        f'transform="rotate(-90 14 {MARGIN_T + plot_h / 2:.1f})" '
        f'text-anchor="middle">{_esc(ylabel)}</text>',
    ]
    for tick in _ticks(lo, hi):
        ty = y_of(tick)
        parts.append(f'<line x1="{MARGIN_L}" y1="{ty:.1f}" '
                     f'x2="{WIDTH - MARGIN_R}" y2="{ty:.1f}" '
                     f'stroke="#ddd"/>')
        parts.append(f'<text x="{MARGIN_L - 6}" y="{ty + 4:.1f}" '
                     f'text-anchor="end">{_fmt(tick)}</text>')
    for i, x in enumerate(xs):
        parts.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 16}" '
                     f'text-anchor="middle">{i}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" '
                 f'y="{HEIGHT - 8}" text-anchor="middle">entry</text>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
                 f'y2="{HEIGHT - MARGIN_B}" stroke="#333"/>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
                 f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" '
                 f'stroke="#333"/>')

    for idx, (name, points) in enumerate(sorted(series.items())):
        color = PALETTE[idx % len(PALETTE)]
        run: List[Tuple[float, float]] = []
        segments: List[List[Tuple[float, float]]] = []
        for i, value in enumerate(points[:n_points]):
            if value is None:
                if run:
                    segments.append(run)
                run = []
            else:
                run.append((xs[i], y_of(value)))
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) == 1:
                parts.append(f'<circle cx="{seg[0][0]:.1f}" '
                             f'cy="{seg[0][1]:.1f}" r="3" fill="{color}"/>')
            else:
                path = " ".join(f"{x:.1f},{y:.1f}" for x, y in seg)
                parts.append(f'<polyline points="{path}" fill="none" '
                             f'stroke="{color}" stroke-width="2"/>')
                for x, y in seg:
                    parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" '
                                 f'r="2.5" fill="{color}"/>')
        ly = MARGIN_T + 14 * idx
        lx = WIDTH - MARGIN_R + 12
        parts.append(f'<rect x="{lx}" y="{ly}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{lx + 14}" y="{ly + 9}">{_esc(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def stacked_bars(groups: Dict[str, Dict[str, float]], *, title: str) -> str:
    """Stacked horizontal bars: one bar per group, segments per phase."""
    phases = sorted({p for fractions in groups.values() for p in fractions})
    colors = {p: PALETTE[i % len(PALETTE)] for i, p in enumerate(phases)}
    bar_h, gap, top = 34, 22, 50
    height = top + len(groups) * (bar_h + gap) + 30
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" viewBox="0 0 {WIDTH} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="20" font-size="15" font-weight="bold">'
        f'{_esc(title)}</text>',
    ]
    for row, (name, fractions) in enumerate(sorted(groups.items())):
        y = top + row * (bar_h + gap)
        parts.append(f'<text x="{MARGIN_L - 6}" y="{y + bar_h / 2 + 4:.1f}" '
                     f'text-anchor="end">{_esc(name)}</text>')
        x = float(MARGIN_L)
        for phase in phases:
            frac = max(float(fractions.get(phase, 0.0)), 0.0)
            w = plot_w * frac
            if w <= 0.0:
                continue
            parts.append(f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
                         f'height="{bar_h}" fill="{colors[phase]}"/>')
            if w > 46:
                parts.append(f'<text x="{x + w / 2:.1f}" '
                             f'y="{y + bar_h / 2 + 4:.1f}" fill="white" '
                             f'text-anchor="middle">'
                             f'{100 * frac:.0f}%</text>')
            x += w
    for i, phase in enumerate(phases):
        ly = top + 14 * i
        lx = WIDTH - MARGIN_R + 12
        parts.append(f'<rect x="{lx}" y="{ly}" width="10" height="10" '
                     f'fill="{colors[phase]}"/>')
        parts.append(f'<text x="{lx + 14}" y="{ly + 9}">{_esc(phase)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _lerp_color(lo: Tuple[int, int, int], hi: Tuple[int, int, int],
                t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    return "#%02x%02x%02x" % tuple(
        int(round(a + (b - a) * t)) for a, b in zip(lo, hi))


def heatmap(row_labels: Sequence[str], col_labels: Sequence[str],
            values: Dict[Tuple[str, str], float], *, title: str,
            fmt: str = "{:.3g}") -> str:
    """One SVG heatmap: rows x cols cells shaded by value (white -> blue)."""
    cell_w, cell_h, left, top = 110, 44, 150, 60
    width = left + cell_w * len(col_labels) + 20
    height = top + cell_h * len(row_labels) + 30
    finite = [v for v in values.values() if v == v]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 1.0
    span = (hi - lo) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-size="15" font-weight="bold">'
        f'{_esc(title)}</text>',
    ]
    for col, label in enumerate(col_labels):
        parts.append(f'<text x="{left + cell_w * col + cell_w / 2:.1f}" '
                     f'y="{top - 8}" text-anchor="middle">{_esc(label)}</text>')
    for row, rlabel in enumerate(row_labels):
        y = top + cell_h * row
        parts.append(f'<text x="{left - 8}" y="{y + cell_h / 2 + 4:.1f}" '
                     f'text-anchor="end">{_esc(rlabel)}</text>')
        for col, clabel in enumerate(col_labels):
            x = left + cell_w * col
            value = values.get((rlabel, clabel))
            if value is None or value != value:
                parts.append(f'<rect x="{x}" y="{y}" width="{cell_w - 2}" '
                             f'height="{cell_h - 2}" fill="#eee"/>')
                continue
            t = (value - lo) / span
            fill = _lerp_color((247, 251, 255), (0, 114, 178), t)
            text_fill = "white" if t > 0.6 else "#222"
            parts.append(f'<rect x="{x}" y="{y}" width="{cell_w - 2}" '
                         f'height="{cell_h - 2}" fill="{fill}"/>')
            parts.append(f'<text x="{x + (cell_w - 2) / 2:.1f}" '
                         f'y="{y + cell_h / 2 + 4:.1f}" fill="{text_fill}" '
                         f'text-anchor="middle">{fmt.format(value)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def delta_bars(rows: Sequence[Dict], *, title: str) -> str:
    """Horizontal relative-delta bars from ``repro regress`` comparison rows.

    One bar per (group, metric); regressed rows render in the alarm color.
    Positive x = metric got *worse* (direction-aware), so every bar
    pointing right past its gate is a regression.
    """
    bar_h, gap, top, left = 18, 8, 56, 230
    plot_w = WIDTH - left - 90
    height = top + len(rows) * (bar_h + gap) + 30
    worst = max((abs(_rel_delta(row)) for row in rows), default=0.0)
    scale = max(worst, 0.10) or 1.0
    mid = left + plot_w / 2.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" viewBox="0 0 {WIDTH} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-size="15" font-weight="bold">'
        f'{_esc(title)}</text>',
        f'<text x="{mid:.1f}" y="{top - 16}" text-anchor="middle">'
        f'&#8592; better    worse &#8594;</text>',
        f'<line x1="{mid:.1f}" y1="{top - 8}" x2="{mid:.1f}" '
        f'y2="{height - 24}" stroke="#333"/>',
    ]
    for i, row in enumerate(rows):
        y = top + i * (bar_h + gap)
        rel = _rel_delta(row)
        w = plot_w / 2.0 * min(abs(rel) / scale, 1.0)
        color = "#D55E00" if row["regressed"] else "#009E73"
        x = mid if rel >= 0 else mid - w
        label = f"{row['group']} {row['metric']}"
        parts.append(f'<text x="{left - 8}" y="{y + bar_h - 4}" '
                     f'text-anchor="end">{_esc(label)}</text>')
        parts.append(f'<rect x="{x:.1f}" y="{y}" width="{max(w, 1.0):.1f}" '
                     f'height="{bar_h}" fill="{color}"/>')
        tx = mid + (w + 6 if rel >= 0 else -w - 6)
        anchor = "start" if rel >= 0 else "end"
        parts.append(f'<text x="{tx:.1f}" y="{y + bar_h - 4}" '
                     f'text-anchor="{anchor}">{100 * rel:+.1f}%</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _rel_delta(row: Dict) -> float:
    """Direction-aware relative delta: positive = worse."""
    base = row["baseline"]
    raw = (row["delta"] / abs(base)) if base else (1.0 if row["delta"] else 0.0)
    return raw if row["direction"] == "lower" else -raw


def _load_repro():
    """Import the repro package, bootstrapping src/ onto sys.path."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, os.path.join(os.path.dirname(
            os.path.abspath(__file__)), os.pardir, "src"))
    import repro.warehouse as warehouse

    return warehouse


def build_fleet_views(sweep_path: str, baseline_path: Optional[str],
                      out_dir: str) -> Tuple[List[str], List[str]]:
    """Render the sweep-grid heatmaps + regression deltas.

    Returns ``(written_paths, markdown_lines)`` for the index.
    """
    warehouse = _load_repro()
    with warehouse.Warehouse.open(sweep_path) as wh:
        workload, cells = wh.workload, wh.read_cells()
    written: List[str] = []
    lines: List[str] = ["## Fleet sweep", "",
                        f"Grid of {len(cells)} cells from `{sweep_path}` "
                        f"(mean across seeds).", ""]

    def write(name: str, content: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(content)
        written.append(path)

    scenarios = sorted({c["scenario"] for c in cells.values()})
    schedulers = sorted({c["scheduler"] for c in cells.values()})
    stats = warehouse.group_stats(cells.values())
    for metric in warehouse.REGRESS_METRICS:
        values = {}
        for scenario in scenarios:
            for scheduler in schedulers:
                entry = stats.get(f"{scenario}/{scheduler}", {})
                m = entry.get("metrics", {}).get(metric)
                if m is not None:
                    values[(scenario, scheduler)] = m["mean"]
        if not values:
            continue
        name = f"fleet_heatmap_{metric}.svg"
        write(name, heatmap(
            scenarios, schedulers, values,
            title=f"{metric} by scenario x scheduler (mean across seeds)"))
        lines += [f"![{metric} heatmap]({name})", ""]

    if baseline_path and os.path.exists(baseline_path):
        baseline = warehouse.load_baseline(baseline_path)
        rows = warehouse.compare(
            warehouse.build_baseline(workload, cells.values()), baseline,
            check_workload=False)
        if rows:
            n_reg = len(warehouse.regressions(rows))
            write("fleet_regression.svg", delta_bars(
                rows, title=f"Deltas vs {os.path.basename(baseline_path)} "
                            f"({n_reg} regressed)"))
            lines += ["![regression deltas](fleet_regression.svg)", "",
                      f"{n_reg} of {len(rows)} gated group-metrics regressed "
                      f"vs `{baseline_path}` "
                      "(gate: see `repro regress --help`).", ""]
    return written, lines


def _series(entries: Sequence[Dict], *path_and_leaf) -> Dict[str, List[Optional[float]]]:
    """Per-key trajectory of ``entry[path...][key][leaf]`` across entries."""
    *path, leaf = path_and_leaf
    out: Dict[str, List[Optional[float]]] = {}
    keys: set = set()
    for entry in entries:
        node = entry
        for part in path:
            node = node.get(part, {}) if isinstance(node, dict) else {}
        if isinstance(node, dict):
            keys.update(k for k, v in node.items()
                        if isinstance(v, dict) and leaf in v)
    for key in sorted(keys):
        points: List[Optional[float]] = []
        for entry in entries:
            node = entry
            for part in path:
                node = node.get(part, {}) if isinstance(node, dict) else {}
            value = node.get(key, {}).get(leaf) if isinstance(node, dict) else None
            points.append(float(value) if value is not None else None)
        out[key] = points
    return out


def build_dashboard(entries: Sequence[Dict], out_dir: str, *,
                    sweep: Optional[str] = None,
                    sweep_baseline: Optional[str] = None) -> List[str]:
    """Write the SVG charts + index.md; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    n = len(entries)
    latest = entries[-1]

    def write(name: str, content: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(content)
        written.append(path)

    cluster = _series(entries, "cluster_stream", "requests_per_s")
    if cluster:
        write("cluster_throughput.svg", line_chart(
            cluster, title="Cluster streaming throughput by router",
            ylabel="requests / s", n_points=n))

    speedups = _series(entries, "engine_200req_rate30", "speedup")
    deep = [e.get("deep_queue_400req_rate120", {}).get("speedup")
            for e in entries]
    if any(v is not None for v in deep):
        speedups["deep_queue"] = [float(v) if v is not None else None
                                  for v in deep]
    if speedups:
        write("engine_speedup.svg", line_chart(
            speedups, title="Engine vectorization speedup by scheduler",
            ylabel="speedup (x)", n_points=n))

    profiles = {
        name: {phase: stats.get("fraction", 0.0)
               for phase, stats in prof.get("phases", {}).items()}
        for name, prof in latest.get("profile", {}).items()
    }
    profiles = {k: v for k, v in profiles.items() if v}
    if profiles:
        write("profile_phases.svg", stacked_bars(
            profiles, title="Engine wall-clock phase attribution (latest)"))

    lines = [
        "# Performance dashboard",
        "",
        f"Rendered from `BENCH_perf.json` ({n} "
        f"entr{'y' if n == 1 else 'ies'}; x-axis = entry index). "
        "Regenerate with `python tools/perf_dashboard.py`.",
        "",
    ]
    if cluster:
        lines += ["## Cluster throughput trajectory", "",
                  "![cluster throughput](cluster_throughput.svg)", ""]
        lines += ["| router | requests/s (latest) | p99 (norm) | violation rate |",
                  "|---|---|---|---|"]
        for router, stats in sorted(latest.get("cluster_stream", {}).items()):
            lines.append(
                f"| {router} | {stats.get('requests_per_s', 0.0):.0f} "
                f"| {stats.get('p99', 0.0):.0f} "
                f"| {100 * stats.get('violation_rate', 0.0):.1f}% |")
        lines.append("")
    if speedups:
        lines += ["## Engine speedup trajectory", "",
                  "![engine speedup](engine_speedup.svg)", ""]
    if sweep is not None:
        fleet_written, fleet_lines = build_fleet_views(
            sweep, sweep_baseline, out_dir)
        written.extend(fleet_written)
        lines += fleet_lines
    if profiles:
        lines += ["## Phase profile (latest entry)", "",
                  "![phase profile](profile_phases.svg)", "",
                  "| engine | wall (s) | coverage |", "|---|---|---|"]
        for name, prof in sorted(latest.get("profile", {}).items()):
            lines.append(f"| {name} | {prof.get('wall_s', 0.0):.3f} "
                         f"| {100 * prof.get('coverage', 0.0):.0f}% |")
        lines.append("")
    host = latest.get("host", {})
    if host:
        lines += [f"Latest host: `{host.get('hostname', '?')}` "
                  f"({host.get('machine', '?')}, "
                  f"python {host.get('python', '?')}, "
                  f"numpy {host.get('numpy', '?')})", ""]
    write("index.md", "\n".join(lines))
    return written


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="BENCH_perf.json",
                        help="benchmark history file to render")
    parser.add_argument("--out", default=os.path.join("docs", "_dashboard"),
                        help="output directory for SVG + markdown")
    parser.add_argument("--sweep", default=None, metavar="STORE",
                        help="also render fleet views of this sweep "
                             "warehouse directory")
    parser.add_argument("--sweep-baseline",
                        default=os.path.join("benchmarks",
                                             "sweep_baseline.json"),
                        help="committed baseline the fleet regression chart "
                             "compares against (skipped when absent)")
    args = parser.parse_args(argv)
    if not os.path.exists(args.bench):
        print(f"error: no benchmark file at {args.bench}", file=sys.stderr)
        return 1
    entries = load_entries(args.bench)
    if not entries:
        print(f"error: {args.bench} holds no entries", file=sys.stderr)
        return 1
    if args.sweep is not None and not os.path.exists(args.sweep):
        print(f"error: no sweep store at {args.sweep}", file=sys.stderr)
        return 1
    for path in build_dashboard(entries, args.out, sweep=args.sweep,
                                sweep_baseline=args.sweep_baseline):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
