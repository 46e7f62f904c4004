"""Serialization for experiment reports and the minimal data-only figure
writers behind the command line: JSON, flat CSV, gnuplot .dat blocks, and
an SVG polyline chart with no external renderer."""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from typing import Sequence

from .experiments import ExperimentReport, ReportRow

_SERIES_RE = re.compile(r"^(?P<prefix>[^\[\]]+)\[(?P<key>.+)\]$")

# fixed palette; charts must render identically on every run
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _json_value(v: float):
    # strict JSON has no Infinity/NaN literals; encode them as strings so
    # reports stay loadable by any parser
    if isinstance(v, float) and not math.isfinite(v):
        if math.isnan(v):
            return "nan"
        return "inf" if v > 0 else "-inf"
    return v


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        return _json_value(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def _restore_value(v) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if v == "nan":
        return math.nan
    return float(v)


def report_to_dict(report: ExperimentReport, config: dict | None = None) -> dict:
    out = {
        "name": report.name,
        "parameters": _sanitize(report.parameters),
        "rows": [
            {
                "index": r.index,
                "quantity": r.quantity,
                "value": _json_value(r.value),
                "formula": r.formula,
            }
            for r in report.rows
        ],
        "verdicts": _sanitize(report.verdicts),
        "environment": _sanitize(report.environment),
    }
    if config is not None:
        out["config"] = _sanitize(config)
    return out


def report_from_dict(obj: dict) -> ExperimentReport:
    rows = tuple(
        ReportRow(int(r["index"]), r["quantity"], _restore_value(r["value"]), r["formula"])
        for r in obj["rows"]
    )
    return ExperimentReport(
        name=obj["name"],
        parameters=obj.get("parameters", {}),
        rows=rows,
        verdicts=obj.get("verdicts", {}),
        environment=obj.get("environment", {}),
    )


def write_report_json(report: ExperimentReport, path, config: dict | None = None) -> None:
    text = json.dumps(report_to_dict(report, config), indent=2)
    Path(path).write_text(text + "\n")


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(header))
        for row in rows:
            w.writerow(list(row))


def write_report_csv(report: ExperimentReport, path) -> None:
    write_csv(
        path,
        ("index", "quantity", "value", "formula"),
        [(r.index, r.quantity, repr(r.value), r.formula) for r in report.rows],
    )


def _key_abscissa(key: str, position: int) -> float:
    """Numeric x for a series key: the value after its last '=', else the
    row's position within the series."""
    tail = key.rsplit("=", 1)[-1]
    try:
        return float(tail)
    except ValueError:
        return float(position)


def report_series_points(report: ExperimentReport) -> dict[str, list[tuple[float, float, str]]]:
    """All bracketed rows grouped by prefix as (x, value, key) triples,
    prefixes and points in row order."""
    out: dict[str, list[tuple[float, float, str]]] = {}
    for r in report.rows:
        m = _SERIES_RE.match(r.quantity)
        if not m:
            continue
        prefix = m.group("prefix")
        pts = out.setdefault(prefix, [])
        pts.append((_key_abscissa(m.group("key"), len(pts)), r.value, m.group("key")))
    return out


def write_report_dat(report: ExperimentReport, path) -> None:
    """Gnuplot-ready blocks: one block per series (columns: x value),
    scalar rows in a final block, blocks separated by two blank lines."""
    blocks: list[str] = [f"# pdlab report: {report.name}"]
    series = report_series_points(report)
    for prefix, pts in series.items():
        lines = [f"# series: {prefix}", "# x value  (x parsed from the bracketed key)"]
        for x, v, key in pts:
            lines.append(f"{x:.17g} {v:.17g}  # {key}")
        blocks.append("\n".join(lines))
    scalars = [r for r in report.rows if not _SERIES_RE.match(r.quantity)]
    if scalars:
        lines = ["# scalars", "# index value  (quantity in the comment)"]
        for r in scalars:
            lines.append(f"{r.index} {r.value:.17g}  # {r.quantity}")
        blocks.append("\n".join(lines))
    Path(path).write_text("\n\n\n".join(blocks) + "\n")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def svg_line_chart(
    series: dict[str, list[tuple[float, float]]],
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
) -> None:
    """Data-only SVG, 720 x 460: axes, tick labels, one polyline per series, legend.

    With log_y the y coordinates are mapped through log10; every y must
    then be positive.
    """
    if not series or all(len(pts) == 0 for pts in series.values()):
        raise ValueError("nothing to plot")

    def ymap(v: float) -> float:
        if log_y:
            if v <= 0.0:
                raise ValueError("log_y needs positive values")
            return math.log10(v)
        return v

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [ymap(y) for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    width, height = 720, 460
    left, right, top, bottom = 70, 20, 40, 50
    pw, ph = width - left - right, height - top - bottom

    def px(x: float) -> float:
        return left + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return top + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{top + ph}" x2="{px(t):.2f}" '
            f'y2="{top + ph + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{top + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        label = f"1e{_fmt(t)}" if log_y else _fmt(t)
        parts.append(
            f'<line x1="{left - 5}" y1="{py(t):.2f}" x2="{left}" y2="{py(t):.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py(t) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{left + pw / 2:.1f}" y="{height - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{top + ph / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {top + ph / 2:.1f})">{y_label}</text>'
        )
    for i, (name, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        if len(pts) == 1:
            (x, y), = pts
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(ymap(y)):.2f}" r="3" fill="{color}"/>'
            )
        else:
            coords = " ".join(f"{px(x):.2f},{py(ymap(y)):.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{left + pw - 6}" y="{top + 14 + 14 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_report_svg(report: ExperimentReport, path) -> None:
    """Chart every multi-point series of the report, titled "pdlab <name>";
    falls back to scalar rows over their index when the report has no
    series.  Switches to a log10 y axis when all values are positive and
    span three decades."""
    series = {
        prefix: [(x, v) for x, v, _ in pts]
        for prefix, pts in report_series_points(report).items()
        if len(pts) >= 2
    }
    if not series:
        pts = [(float(r.index), r.value) for r in report.rows if math.isfinite(r.value)]
        if not pts:
            raise ValueError("report has no finite values to plot")
        series = {"rows": pts}
    finite = {
        name: [(x, v) for x, v in pts if math.isfinite(v)] for name, pts in series.items()
    }
    finite = {name: pts for name, pts in finite.items() if pts}
    if not finite:
        raise ValueError("report has no finite values to plot")
    values = [v for pts in finite.values() for _, v in pts]
    log_y = min(values) > 0.0 and max(values) / min(values) > 1e3
    svg_line_chart(
        finite,
        path,
        title=f"pdlab {report.name}",
        x_label="series key",
        y_label="log10(value)" if log_y else "value",
        log_y=log_y,
    )
