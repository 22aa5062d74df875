"""Deterministic study reports: Gardner-Altman estimation plots and text summaries.

Every report is drawn from a stored record alone. The SVG is hand-rolled (no
plotting dependency) and a pure function of its comparison document and
jitter seed: fixed-format coordinates, seeded tie jitter, stable element
order. Rendering twice yields identical bytes, which is what lets
``gridbench report`` regenerate a record's reports verbatim.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import EmptySamples
from .seeding import derive_seed
from .stats import WILCOXON_METHODS
from .store import COMPARED_METRICS

SWARM_RADIUS = 4.0
PLOT_WIDTH = 640
PLOT_HEIGHT = 400


def _fmt(value: float) -> str:
    """Fixed numeric-label format shared by plot and summary."""
    return format(float(value), ".6g")


def _px(value: float) -> str:
    return format(float(value), ".2f")


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _swarm_positions(values, x_center, y_of, rng):
    """Greedy 1-D non-overlap placement with seeded jitter for exact ties."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    placed: list[tuple[float, float]] = []
    out = [None] * len(values)
    seen: dict[float, int] = {}
    step = 2.0 * SWARM_RADIUS + 1.0
    for i in order:
        y = y_of(values[i])
        ties = seen.get(values[i], 0)
        seen[values[i]] = ties + 1
        if ties:
            y += float(rng.uniform(-0.5, 0.5))
        k = 0
        while True:
            for candidate in ((k, -k) if k else (0,)):
                x = x_center + candidate * step
                if all((x - px) ** 2 + (y - py) ** 2 >= (2 * SWARM_RADIUS) ** 2
                       for px, py in placed):
                    placed.append((x, y))
                    out[i] = (x, y)
                    break
            if out[i] is not None:
                break
            k += 1
    return out


def gardner_altman_svg(comparison: dict, jitter_seed: int) -> str:
    """Render a stored comparison document (see the stats module) as both
    slots' swarms plus a difference axis with the bootstrap CI."""
    a = np.asarray(comparison["a_values"], dtype=np.float64)
    b = np.asarray(comparison["b_values"], dtype=np.float64)
    if a.size == 0 or a.size != b.size:
        raise EmptySamples("estimation plot needs paired groups of at least one value")
    ci = comparison["bootstrap_ci"]
    estimate = float(comparison["point_estimate"])

    top, bottom = 48.0, PLOT_HEIGHT - 56.0
    left_a, left_b = PLOT_WIDTH * 0.22, PLOT_WIDTH * 0.46
    diff_x = PLOT_WIDTH * 0.80

    lo_v = float(min(a.min(), b.min()))
    hi_v = float(max(a.max(), b.max()))
    if hi_v == lo_v:
        lo_v, hi_v = lo_v - 1.0, hi_v + 1.0
    pad = 0.08 * (hi_v - lo_v)
    lo_v, hi_v = lo_v - pad, hi_v + pad

    def y_of(value):
        return bottom - (value - lo_v) / (hi_v - lo_v) * (bottom - top)

    d_lo = min(0.0, float(ci["low"]))
    d_hi = max(0.0, float(ci["high"]))
    if d_hi == d_lo:
        d_lo, d_hi = d_lo - 1.0, d_hi + 1.0
    d_pad = 0.15 * (d_hi - d_lo)
    d_lo, d_hi = d_lo - d_pad, d_hi + d_pad

    def y_diff(value):
        return bottom - (value - d_lo) / (d_hi - d_lo) * (bottom - top)

    rng = np.random.default_rng(jitter_seed)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PLOT_WIDTH}" '
        f'height="{PLOT_HEIGHT}" viewBox="0 0 {PLOT_WIDTH} {PLOT_HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{_px(PLOT_WIDTH / 2)}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="monospace">{_esc(comparison["metric_name"])}</text>',
    ]

    # shared value axis with 5 ticks
    axis_x = PLOT_WIDTH * 0.08
    lines.append(f'<line x1="{_px(axis_x)}" y1="{_px(top)}" x2="{_px(axis_x)}" '
                 f'y2="{_px(bottom)}" stroke="#000000" stroke-width="1"/>')
    for i in range(5):
        tick = lo_v + (hi_v - lo_v) * i / 4
        ty = y_of(tick)
        lines.append(f'<line x1="{_px(axis_x - 4)}" y1="{_px(ty)}" x2="{_px(axis_x)}" '
                     f'y2="{_px(ty)}" stroke="#000000" stroke-width="1"/>')
        lines.append(f'<text x="{_px(axis_x - 8)}" y="{_px(ty + 4)}" text-anchor="end" '
                     f'font-size="10" font-family="monospace">{_fmt(tick)}</text>')

    for values, x_center, name, color in (
            (a, left_a, "algorithm_a", "#1f77b4"),
            (b, left_b, "algorithm_b", "#d62728")):
        for x, y in _swarm_positions(list(values), x_center, y_of, rng):
            lines.append(f'<circle class="swarm-point" cx="{_px(x)}" cy="{_px(y)}" '
                         f'r="{_px(SWARM_RADIUS)}" fill="{color}" fill-opacity="0.85"/>')
        lines.append(f'<text x="{_px(x_center)}" y="{_px(bottom + 20)}" '
                     f'text-anchor="middle" font-size="12" '
                     f'font-family="monospace">{_esc(name)}</text>')

    # difference axis: zero line, CI bar, point-estimate marker
    lines.append(f'<line x1="{_px(diff_x)}" y1="{_px(top)}" x2="{_px(diff_x)}" '
                 f'y2="{_px(bottom)}" stroke="#888888" stroke-width="1"/>')
    zero_y = y_diff(0.0)
    lines.append(f'<line class="zero-line" x1="{_px(diff_x - 30)}" y1="{_px(zero_y)}" '
                 f'x2="{_px(diff_x + 30)}" y2="{_px(zero_y)}" stroke="#000000" '
                 f'stroke-width="1" stroke-dasharray="4,3"/>')
    lines.append(f'<line class="ci-bar" x1="{_px(diff_x)}" y1="{_px(y_diff(ci["low"]))}" '
                 f'x2="{_px(diff_x)}" y2="{_px(y_diff(ci["high"]))}" '
                 f'stroke="#000000" stroke-width="3"/>')
    lines.append(f'<circle class="point-estimate" cx="{_px(diff_x)}" '
                 f'cy="{_px(y_diff(estimate))}" r="5" fill="#000000"/>')

    labels = [
        f"mean diff = {_fmt(estimate)}",
        f"{_fmt(ci['level'] * 100)}% CI [{_fmt(ci['low'])}, {_fmt(ci['high'])}] "
        f"({ci['method']})",
    ]
    if comparison.get("cohens_d") is not None:
        labels.append(f"d = {_fmt(comparison['cohens_d'])} "
                      f"({comparison['effect_label']})")
    wilcoxon = comparison.get("wilcoxon") or {}
    if wilcoxon.get("p_value") is not None:
        labels.append(f"p = {_fmt(wilcoxon['p_value'])}")
    for i, text in enumerate(labels):
        lines.append(f'<text x="{_px(diff_x + 12)}" y="{_px(top + 14 + 16 * i)}" '
                     f'text-anchor="start" font-size="11" '
                     f'font-family="monospace">{_esc(text)}</text>')

    lines.append("</svg>")
    return "\n".join(lines)


# --- plain-text study summary -------------------------------------------------

def _metric_value(entry: dict, family: str, name: str):
    value = entry.get(family, {}).get(name)
    return "-" if value is None else _fmt(value)


def text_summary(record: dict) -> str:
    """Tabulate per-dataset metrics for both algorithms plus the statistics block."""
    out = []
    out.append(f"study {record['study_id']}")
    out.append(f"created {record['created_at']}   master_seed {record['master_seed']}")
    out.append(f"reproducibility_digest {record['reproducibility_digest']}")
    out.append("")
    out.append("datasets:")
    for ds in record["datasets"]:
        out.append(f"  {ds['name']}: n={ds['n_rows']} "
                   f"(train {ds['n_train']} / test {ds['n_test']}), "
                   f"hash {ds['content_hash'][:12]}")
    out.append("")

    by_key = {(m["algorithm"], m["dataset"]): m for m in record["metrics"]}
    algorithms = sorted({m["algorithm"] for m in record["metrics"]})
    out.append("metrics (per dataset, per algorithm):")
    header = "  {:<18} {:<12}".format("dataset", "algorithm") + "".join(
        " {:>12}".format(name if len(name) <= 12 else name[:12])
        for _, name in COMPARED_METRICS)
    out.append(header)
    for ds in record["datasets"]:
        for algo in algorithms:
            entry = by_key.get((algo, ds["name"]))
            if entry is None:
                continue
            row = "  {:<18} {:<12}".format(ds["name"][:18], algo)
            row += "".join(" {:>12}".format(_metric_value(entry, fam, name))
                           for fam, name in COMPARED_METRICS)
            out.append(row)
    out.append("")

    comparisons = record.get("comparison", [])
    if comparisons:
        out.append("statistics (algorithm a - algorithm b, per metric):")
        out.extend("  " + statistics_line(comp) for comp in comparisons)
    return "\n".join(out) + "\n"


def statistics_line(comp: dict) -> str:
    """One stored comparison's statistics, as ``summary.txt`` lists them.

    An exact Wilcoxon test also shows the smallest p-value its n_effective
    allows, 2^(1 - n): with few datasets no difference can reach significance.
    """
    if comp.get("wilcoxon_incomputable"):
        w_text = f"wilcoxon incomputable ({comp['wilcoxon_incomputable']})"
    else:
        wilcoxon = comp["wilcoxon"]
        n = wilcoxon["n_effective"]
        w_text = f"W={_fmt(wilcoxon['statistic'])} p={_fmt(wilcoxon['p_value'])}"
        if wilcoxon["method"] == WILCOXON_METHODS[0]:  # the exact test
            w_text += f" min_p={_fmt(min(1.0, 2.0 ** (1 - n)))}"
        w_text += f" n_eff={n} [{wilcoxon['method']}]"
    if comp.get("cohens_d_incomputable"):
        d_text = f"d incomputable ({comp['cohens_d_incomputable']})"
    else:
        d_text = f"d={_fmt(comp['cohens_d'])} ({comp['effect_label']})"
    ci = comp["bootstrap_ci"]
    return (f"{comp['metric_name']}: diff={_fmt(comp['point_estimate'])}  "
            f"{w_text}  {d_text}  "
            f"CI[{_fmt(ci['low'])}, {_fmt(ci['high'])}] ({ci['method']})")


def comparison_text(comp: dict) -> str:
    """``gridbench compare``'s view of one stored comparison: both slots'
    per-dataset values, then the line ``summary.txt`` shows for it."""
    lines = [f"metric: {comp['metric_name']}"]
    lines += [f"  algorithm_{slot}: " + ", ".join(map(_fmt, comp[f"{slot}_values"]))
              for slot in ("a", "b")]
    return "\n".join(lines + ["  " + statistics_line(comp)])


def write_reports(record: dict, report_dir) -> list[Path]:
    """Write ``summary.txt`` and one estimation plot per compared metric
    into ``report_dir``; returns the paths written."""
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    summary_path = report_dir / "summary.txt"
    summary_path.write_text(text_summary(record), encoding="utf-8")
    written = [summary_path]
    for comp in record.get("comparison", []):
        metric = comp["metric_name"]
        path = report_dir / f"gardner_altman_{metric}.svg"
        svg = gardner_altman_svg(comp, derive_seed(record["master_seed"], f"plot:{metric}"))
        path.write_text(svg, encoding="utf-8")
        written.append(path)
    return written
