"""Minimal self-contained SVG charts for sweep outputs.

No plotting library: each figure is a single hand-assembled SVG string with
axes, ticks, polylines, point markers and a legend.  Deterministic output for
identical inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 48, 56
TICK_COUNT = 5       # most ticks on a linear axis

METHOD_COLORS = {
    "full": "#1f77b4",
    "random_trunc": "#d62728",
    "lie_trunc": "#2ca02c",
}
_FALLBACK_COLORS = ["#9467bd", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22"]


def _color_for(label: str, index: int) -> str:
    for key, color in METHOD_COLORS.items():
        if label.startswith(key):
            return color
    return _FALLBACK_COLORS[index % len(_FALLBACK_COLORS)]


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """At most ``TICK_COUNT`` ticks at a 1, 2, 2.5 or 5 step over [lo, hi]."""
    if hi <= lo:
        hi = lo + max(1.0, math.ulp(lo))  # lo + 1.0 == lo once |lo| passes 2**53
    span = hi - lo
    raw = span / (TICK_COUNT - 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if span / step <= TICK_COUNT:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        if t + step == t:  # step below one ulp of t: no later tick is representable
            break
        t += step
    return ticks or [lo, hi]


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_exp, hi_exp + 1)]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    logy: bool = False,
    annotations: list[str] | None = None,
) -> str:
    """Assemble one SVG line chart; series = [(label, xs, ys), ...].

    Only finite points are drawn, and on a log axis only those with y > 0:
    a NaN loss after an overflowing descent, say, is left out.
    """

    def drawn(x: float, y: float) -> bool:
        return math.isfinite(x) and math.isfinite(y) and (not logy or y > 0)

    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys) if drawn(x, y)]
    if not pts:
        pts = [(0.0, 1.0), (1.0, 1.0)]
    xs_all = [p[0] for p in pts]
    ys_all = [p[1] for p in pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if logy:
        y_lo = max(y_lo, 1e-300)
        if y_lo == y_hi:
            y_lo, y_hi = y_lo / 10, y_hi * 10
    elif y_lo == y_hi:
        pad = max(0.5, math.ulp(y_lo))  # y +- 0.5 == y once |y| passes 2**53
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.06 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        if logy:
            frac = (math.log10(y) - math.log10(y_lo)) / (
                math.log10(y_hi) - math.log10(y_lo)
            )
        else:
            frac = (y - y_lo) / (y_hi - y_lo)
        return MARGIN_T + plot_h * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15" font-weight="bold">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]

    for t in _nice_ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    y_ticks = _log_ticks(y_lo, y_hi) if logy else _nice_ticks(y_lo, y_hi)
    for t in y_ticks:
        if not y_lo <= t <= y_hi:
            continue
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{MARGIN_L + plot_w}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )

    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {MARGIN_T + plot_h / 2})">{ylabel}</text>'
    )

    for i, (label, xs, ys) in enumerate(series):
        color = _color_for(label, i)
        coords = [(px(x), py(y)) for x, y in zip(xs, ys) if drawn(x, y)]
        if len(coords) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
        for x, y in coords:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>')
        ly = MARGIN_T + 14 + 18 * i
        lx = WIDTH - MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 27}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )

    for j, note in enumerate(annotations or []):
        parts.append(
            f'<text x="{MARGIN_L + 8}" y="{MARGIN_T + 16 + 15 * j}" '
            f'font-family="sans-serif" font-size="11" fill="#444">{note}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Figure set for sweep records
# ---------------------------------------------------------------------------


# one figure per row: file, the record field drawn against n for each method,
# title, y label, log scale
METHOD_FIGURES = (
    ("variance_vs_n.svg", "var_grad_mean", "Gradient variance vs qubit number",
     "mean component variance", True),
    ("deff_vs_n.svg", "d_eff", "Effective dimension vs qubit number", "d_eff", False),
    ("var_deff_product.svg", "product_var_deff", "Variance x effective dimension product",
     "Var * d_eff", False),
    ("loss_vs_n.svg", "loss_final", "Final task loss vs qubit number", "loss after descent",
     False),
)


def _series_by_method(records, field: str) -> list[tuple[str, list[float], list[float]]]:
    methods: dict[str, list] = {}
    for rec in records:
        methods.setdefault(rec.method, []).append(rec)
    series = []
    for method, recs in methods.items():
        recs = sorted(recs, key=lambda r: r.n)
        series.append((method, [r.n for r in recs], [getattr(r, field) for r in recs]))
    return series


def emit_plots(records, out_dir: str | Path, spectra: dict | None = None) -> list[Path]:
    """Write the figure set, :data:`METHOD_FIGURES` then the metric spectra;
    returns the created paths."""
    if not records:
        raise ValueError("no records to plot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    prods = [r.product_var_deff for r in records
             if r.method == "lie_trunc" and r.product_var_deff > 0]
    notes = [f"lie_trunc max/min = {max(prods) / min(prods):.2f}"] if prods else []
    created = []
    for name, field, title, ylabel, logy in METHOD_FIGURES:
        fig = line_chart(
            _series_by_method(records, field), title, "qubits n", ylabel, logy=logy,
            annotations=notes if field == "product_var_deff" else None,
        )
        created.append(_write(out / name, fig))

    spec_series = [
        (f"{method} n={n}", list(range(len(eigenvalues))), [float(v) for v in eigenvalues])
        for (method, n), eigenvalues in sorted((spectra or {}).items())
    ]
    fig = line_chart(
        spec_series or [("empty", [0], [1.0])],
        "Metric eigenvalue spectra",
        "eigenvalue index",
        "eigenvalue",
        logy=True,
    )
    created.append(_write(out / "metric_spectra.svg", fig))
    return created


def _write(path: Path, content: str) -> Path:
    path.write_text(content)
    return path
