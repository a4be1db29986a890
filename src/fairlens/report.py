"""Deterministic SVG figures and the serialized audit bundle.

Every renderer is a pure function of bundle records: the clustermap and
matrix.csv read a cell record, the scatter its pca record and the
robustness heatmap the robustness record, as load_bundle returns them or
as fairlens.pipeline builds them. No timestamps, no generated ids, stable
float formatting: rendering the same bundle twice yields byte-identical
files, which is what the determinism contract and the tests rely on.
load_bundle checks every record a renderer reads, so a figure is drawn
only from records whose types and shapes agree.

Heatmap color scale (fixed, documented): piecewise-linear interpolation
through the anchors 0.00 #0d0887, 0.25 #7e03a8, 0.50 #cc4778,
0.75 #f89540, 1.00 #f0f921, over the value range [0, 1]. Correlation
heatmaps map [-1, 1] onto the same scale via (rho + 1) / 2. Cells whose
value was imputed (flagged) carry a hatched overlay.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from . import METRIC_NAMES
from .cluster import leaf_order
from .fairmatrix import kind_sort_key, matrix_csv_text
from .ingest import is_path_component

_HEAT_ANCHORS = (
    (0.00, (13, 8, 135)),
    (0.25, (126, 3, 168)),
    (0.50, (204, 71, 120)),
    (0.75, (248, 149, 64)),
    (1.00, (240, 249, 33)),
)

# Okabe-Ito palette; cycles if a feature has more than eight groups.
GROUP_COLORS = ("#0072b2", "#d55e00", "#009e73", "#cc79a7",
                "#e69f00", "#56b4e9", "#f0e442", "#999999")

MARKER_SHAPES = ("circle", "square", "triangle", "diamond", "cross", "plus")


def heat_color(value: float) -> str:
    """Hex color for a value in [0,1] on the documented fixed scale."""
    v = min(1.0, max(0.0, float(value)))
    for (p0, c0), (p1, c1) in zip(_HEAT_ANCHORS, _HEAT_ANCHORS[1:]):
        if v <= p1:
            t = 0.0 if p1 == p0 else (v - p0) / (p1 - p0)
            rgb = tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _HEAT_ANCHORS[-1][1]


def _luma(hex_color: str) -> float:
    r, g, b = (int(hex_color[i:i + 2], 16) for i in (1, 3, 5))
    return 0.299 * r + 0.587 * g + 0.114 * b


def _fmt(x: float) -> str:
    # stable short coordinate format, no trailing zeros
    s = "%.2f" % float(x)
    return s.rstrip("0").rstrip(".") if "." in s else s


def _esc(s: str) -> str:
    # & first, so the entities added after it are not escaped again
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _dendrogram_paths(merges: list, positions: dict[int, float],
                      span: float, horizontal: bool,
                      base: float, sign: float) -> list[str]:
    """One bracket path per merge of a merge list.

    positions maps leaf id -> center coordinate along the leaf axis;
    heights are scaled into `span` pixels away from `base` along the
    other axis (direction `sign`).
    """
    hmax = max((m[2] for m in merges), default=0.0)
    if hmax <= 0.0:
        hmax = 1.0
    pos = dict(positions)
    depth = {i: base for i in positions}
    paths = []
    n = len(merges) + 1
    for s, (a, b, h, _size) in enumerate(merges):
        y = base + sign * (4.0 + (h / hmax) * (span - 8.0))
        xa, xb = pos[a], pos[b]
        ya, yb = depth[a], depth[b]
        if horizontal:  # leaf axis is x, heights go vertical
            d = (f"M {_fmt(xa)} {_fmt(ya)} L {_fmt(xa)} {_fmt(y)} "
                 f"L {_fmt(xb)} {_fmt(y)} L {_fmt(xb)} {_fmt(yb)}")
        else:  # leaf axis is y, heights go horizontal
            d = (f"M {_fmt(ya)} {_fmt(xa)} L {_fmt(y)} {_fmt(xa)} "
                 f"L {_fmt(y)} {_fmt(xb)} L {_fmt(yb)} {_fmt(xb)}")
        paths.append(f'<path class="merge" d="{d}" fill="none" '
                     f'stroke="#333" stroke-width="1"/>')
        pos[n + s] = (xa + xb) / 2.0
        depth[n + s] = y
    return paths


def render_clustermap_svg(rec: dict, title: str) -> str:
    """Heatmap of a cell record's M_p with dendrograms, per-metric
    variances in the labels.

    Cell order follows the deterministic leaf order of both linkages.
    Flagged (imputed) cells get a hatched overlay.
    """
    rows, values, flags = rec["rows"], rec["values"], rec["flags"]
    col_linkage, row_linkage = rec["col_linkage"], rec["row_linkage"]
    n_rows, n_cols = len(rows), len(METRIC_NAMES)
    if len(col_linkage) != n_cols - 1 or len(row_linkage) != n_rows - 1:
        raise ValueError("linkage sizes do not match the matrix")

    cw, ch = 34, 22
    dend = 78
    margin = 10
    title_h = 20
    label_bottom = 118
    label_right = 8 + 7 * max(len(r) for r in rows)
    x0 = margin + dend
    y0 = margin + title_h + dend
    width = x0 + n_cols * cw + label_right + margin
    height = y0 + n_rows * ch + label_bottom + margin

    col_order = leaf_order(col_linkage)
    row_order = leaf_order(row_linkage)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" font-family="sans-serif" font-size="11">',
        "<defs>",
        '<pattern id="hatch" width="5" height="5" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">'
        '<line x1="0" y1="0" x2="0" y2="5" stroke="#ffffff" stroke-width="1.4" '
        'stroke-opacity="0.85"/></pattern>',
        "</defs>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{margin}" y="{margin + 12}" font-size="12" fill="#222">{_esc(title)}</text>',
    ]

    # dendrograms
    col_pos = {leaf: x0 + (i + 0.5) * cw for i, leaf in enumerate(col_order)}
    row_pos = {leaf: y0 + (i + 0.5) * ch for i, leaf in enumerate(row_order)}
    out.append('<g id="col-dendrogram">')
    out.extend(_dendrogram_paths(col_linkage, col_pos, dend - 6,
                                 horizontal=True, base=y0 - 2, sign=-1.0))
    out.append("</g>")
    out.append('<g id="row-dendrogram">')
    out.extend(_dendrogram_paths(row_linkage, row_pos, dend - 6,
                                 horizontal=False, base=x0 - 2, sign=-1.0))
    out.append("</g>")

    # heatmap cells, hatched when flagged
    out.append('<g id="cells">')
    for di, ri in enumerate(row_order):
        for dj, cj in enumerate(col_order):
            x = x0 + dj * cw
            y = y0 + di * ch
            v = float(values[ri][cj])
            tip = f"{rows[ri]} {METRIC_NAMES[cj]}={v:.6g}"
            out.append(
                f'<rect class="cell" x="{_fmt(x)}" y="{_fmt(y)}" width="{cw}" '
                f'height="{ch}" fill="{heat_color(v)}" stroke="#ffffff" '
                f'stroke-width="0.5"><title>{_esc(tip)}</title></rect>')
            if flags[ri][cj]:
                out.append(
                    f'<rect class="flag" x="{_fmt(x)}" y="{_fmt(y)}" width="{cw}" '
                    f'height="{ch}" fill="url(#hatch)"/>')
    out.append("</g>")

    # column labels: metric name with its variance, 3 decimals
    out.append('<g id="col-labels">')
    yl = y0 + n_rows * ch + 14
    for dj, cj in enumerate(col_order):
        x = x0 + (dj + 0.5) * cw
        text = f"{METRIC_NAMES[cj]} ({float(rec['column_variances'][cj]):.3f})"
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(yl)}" text-anchor="end" '
                   f'transform="rotate(-55 {_fmt(x)} {_fmt(yl)})">{_esc(text)}</text>')
    out.append("</g>")

    # row labels: "model:group"
    out.append('<g id="row-labels">')
    xl = x0 + n_cols * cw + 6
    for di, ri in enumerate(row_order):
        y = y0 + (di + 0.5) * ch + 4
        out.append(f'<text x="{_fmt(xl)}" y="{_fmt(y)}">{_esc(rows[ri])}</text>')
    out.append("</g>")

    # color scale strip
    out.append('<g id="scale">')
    sy = y0 + n_rows * ch + label_bottom - 26
    for i in range(12):
        v = i / 11.0
        out.append(f'<rect x="{_fmt(margin + i * 14)}" y="{_fmt(sy)}" width="14" '
                   f'height="10" fill="{heat_color(v)}"/>')
    out.append(f'<text x="{margin}" y="{_fmt(sy - 3)}" font-size="10">0</text>')
    out.append(f'<text x="{_fmt(margin + 12 * 14)}" y="{_fmt(sy - 3)}" '
               f'font-size="10" text-anchor="end">1</text>')
    out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _marker(shape: str, x: float, y: float, color: str, tip: str) -> str:
    r = 5.0
    t = f"<title>{_esc(tip)}</title>"
    if shape == "circle":
        return (f'<circle class="pt" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
                f'fill="{color}" stroke="#333" stroke-width="0.8">{t}</circle>')
    if shape == "square":
        return (f'<rect class="pt" x="{_fmt(x - r + 0.5)}" y="{_fmt(y - r + 0.5)}" '
                f'width="{_fmt(2 * r - 1)}" height="{_fmt(2 * r - 1)}" '
                f'fill="{color}" stroke="#333" stroke-width="0.8">{t}</rect>')
    if shape == "triangle":
        pts = f"{_fmt(x)},{_fmt(y - r)} {_fmt(x - r)},{_fmt(y + r - 1)} {_fmt(x + r)},{_fmt(y + r - 1)}"
        return (f'<polygon class="pt" points="{pts}" fill="{color}" '
                f'stroke="#333" stroke-width="0.8">{t}</polygon>')
    if shape == "diamond":
        pts = f"{_fmt(x)},{_fmt(y - r - 1)} {_fmt(x + r + 1)},{_fmt(y)} {_fmt(x)},{_fmt(y + r + 1)} {_fmt(x - r - 1)},{_fmt(y)}"
        return (f'<polygon class="pt" points="{pts}" fill="{color}" '
                f'stroke="#333" stroke-width="0.8">{t}</polygon>')
    if shape == "cross":
        d = (f"M {_fmt(x - r)} {_fmt(y - r)} L {_fmt(x + r)} {_fmt(y + r)} "
             f"M {_fmt(x - r)} {_fmt(y + r)} L {_fmt(x + r)} {_fmt(y - r)}")
        return (f'<path class="pt" d="{d}" stroke="{color}" '
                f'stroke-width="2.4" fill="none">{t}</path>')
    if shape == "plus":
        d = (f"M {_fmt(x - r)} {_fmt(y)} L {_fmt(x + r)} {_fmt(y)} "
             f"M {_fmt(x)} {_fmt(y - r)} L {_fmt(x)} {_fmt(y + r)}")
        return (f'<path class="pt" d="{d}" stroke="{color}" '
                f'stroke-width="2.4" fill="none">{t}</path>')
    raise ValueError(f"unknown marker shape {shape!r}")


def render_pca_scatter_svg(pca: dict, title: str = "") -> str:
    """Scatter of a pca record's first two aligned components: marker per
    model, color per group.

    The reference group sits at the origin crosshair for every model by
    construction. Axis labels carry the explained-variance fractions.
    """
    if pca["k"] < 2:
        raise ValueError(f"scatter needs at least 2 components, got {pca['k']}")
    ratios = pca["ratios"]
    # canonical model order keeps marker shapes stable however the
    # coords dict was built (fresh run vs loaded bundle)
    models = sorted(pca["coords"], key=kind_sort_key)
    groups = pca["group_labels"]
    coords = {m: np.asarray(pca["coords"][m], dtype=np.float64)[:, :2]
              for m in models}

    width, height = 640, 470
    ml, mr, mt, mb = 70, 190, 18, 52
    pw, ph = width - ml - mr, height - mt - mb

    pts = np.vstack([coords[m] for m in models])
    lo = np.minimum(pts.min(axis=0), 0.0)
    hi = np.maximum(pts.max(axis=0), 0.0)
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - 0.08 * span
    hi = hi + 0.08 * span

    def sx(v: float) -> float:
        return ml + (v - lo[0]) / (hi[0] - lo[0]) * pw

    def sy(v: float) -> float:
        return mt + (hi[1] - v) / (hi[1] - lo[1]) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#888"/>',
    ]
    if title:
        out.append(f'<text x="{ml}" y="{mt - 5}" font-size="12" fill="#222">{_esc(title)}</text>')

    # origin crosshair: the reference group's position in every model
    out.append(f'<line class="crosshair" x1="{_fmt(sx(0))}" y1="{_fmt(mt)}" '
               f'x2="{_fmt(sx(0))}" y2="{_fmt(mt + ph)}" stroke="#aaaaaa" '
               f'stroke-dasharray="4 3"/>')
    out.append(f'<line class="crosshair" x1="{_fmt(ml)}" y1="{_fmt(sy(0))}" '
               f'x2="{_fmt(ml + pw)}" y2="{_fmt(sy(0))}" stroke="#aaaaaa" '
               f'stroke-dasharray="4 3"/>')

    # ticks
    for i in range(5):
        vx = lo[0] + i * (hi[0] - lo[0]) / 4
        vy = lo[1] + i * (hi[1] - lo[1]) / 4
        out.append(f'<text x="{_fmt(sx(vx))}" y="{_fmt(mt + ph + 14)}" '
                   f'text-anchor="middle" font-size="10">{"%.2g" % vx}</text>')
        out.append(f'<text x="{_fmt(ml - 6)}" y="{_fmt(sy(vy) + 3)}" '
                   f'text-anchor="end" font-size="10">{"%.2g" % vy}</text>')

    # axis labels with explained-variance fractions
    out.append(f'<text x="{_fmt(ml + pw / 2)}" y="{_fmt(height - 14)}" text-anchor="middle">'
               f'component 1 ({float(ratios[0]):.2f} of variance)</text>')
    out.append(f'<text x="14" y="{_fmt(mt + ph / 2)}" text-anchor="middle" '
               f'transform="rotate(-90 14 {_fmt(mt + ph / 2)})">'
               f'component 2 ({float(ratios[1]):.2f} of variance)</text>')

    out.append('<g id="points">')
    for mi, model in enumerate(models):
        shape = MARKER_SHAPES[mi % len(MARKER_SHAPES)]
        for gi, group in enumerate(groups):
            color = GROUP_COLORS[gi % len(GROUP_COLORS)]
            x, y = float(coords[model][gi, 0]), float(coords[model][gi, 1])
            out.append(_marker(shape, sx(x), sy(y), color,
                               f"{model}:{group} ({x:.4g}, {y:.4g})"))
    out.append("</g>")

    # legend: groups (colors), then models (shapes)
    lx = width - mr + 16
    ly = mt + 8
    out.append('<g id="legend">')
    out.append(f'<text x="{lx}" y="{ly}" font-weight="bold">groups</text>')
    for gi, group in enumerate(groups):
        ly += 17
        color = GROUP_COLORS[gi % len(GROUP_COLORS)]
        mark = " (reference)" if group == pca["reference_group"] else ""
        out.append(f'<rect x="{lx}" y="{ly - 9}" width="11" height="11" fill="{color}"/>')
        out.append(f'<text x="{lx + 16}" y="{ly}">{_esc(group + mark)}</text>')
    ly += 26
    out.append(f'<text x="{lx}" y="{ly}" font-weight="bold">models</text>')
    for mi, model in enumerate(models):
        ly += 17
        shape = MARKER_SHAPES[mi % len(MARKER_SHAPES)]
        out.append(_marker(shape, lx + 5, ly - 4, "#666666", model))
        out.append(f'<text x="{lx + 16}" y="{ly}">{_esc(model)}</text>')
    out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_robustness_heatmap_svg(rob: dict) -> str:
    """Mean +/- std of cross-condition distance-vector correlations, from
    the bundle's robustness record."""
    labels = [f"{d}/{f}" for d, f in rob["conditions"]]
    n = len(labels)
    cw, ch = 104, 34
    label_w = 10 + 7 * max(len(l) for l in labels)
    top = 16 + 7 * max(len(l) for l in labels)
    margin = 10
    title_h = 18
    x0 = margin + label_w
    y0 = margin + title_h + top
    width = x0 + n * cw + margin
    height = y0 + n * ch + margin + 16

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{margin}" y="{margin + 11}" font-size="12" fill="#222">'
        f'distance-vector correlation across {rob["n_seeds"]} seed(s), mean &#177; std</text>',
    ]
    for i in range(n):
        for j in range(n):
            x = x0 + j * cw
            y = y0 + i * ch
            m = float(rob["mean"][i][j])
            s = float(rob["std"][i][j])
            fill = heat_color((m + 1.0) / 2.0)
            text_fill = "#ffffff" if _luma(fill) < 140 else "#111111"
            out.append(f'<rect class="cell" x="{x}" y="{y}" width="{cw}" height="{ch}" '
                       f'fill="{fill}" stroke="#ffffff" stroke-width="0.5"/>')
            out.append(f'<text x="{_fmt(x + cw / 2)}" y="{_fmt(y + ch / 2 + 4)}" '
                       f'text-anchor="middle" fill="{text_fill}">'
                       f'{m:.2f} &#177; {s:.2f}</text>')
    for i, label in enumerate(labels):
        out.append(f'<text x="{_fmt(x0 - 6)}" y="{_fmt(y0 + (i + 0.5) * ch + 4)}" '
                   f'text-anchor="end">{_esc(label)}</text>')
        x = x0 + (i + 0.5) * cw
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(y0 - 8)}" text-anchor="start" '
                   f'transform="rotate(-55 {_fmt(x)} {_fmt(y0 - 8)})">{_esc(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# audit bundle

def _array(items: dict, **limits) -> dict:
    return {"type": "array", "items": items, **limits}


def _object(nullable: bool = False, **properties) -> dict:
    """An object schema that requires every named property; a property
    given as {} may hold any value."""
    return {"type": ["object", "null"] if nullable else "object",
            "required": list(properties), "properties": properties}


_TYPES = {"array": list, "object": dict, "string": str, "boolean": bool,
          "null": type(None)}


def _is_type(value, types) -> bool:
    # a float with no fraction is an integer; a bool is no number
    if isinstance(types, list):
        return any(_is_type(value, name) for name in types)
    if isinstance(value, bool) or types not in ("number", "integer"):
        return isinstance(value, _TYPES.get(types, ()))
    return isinstance(value, int) or (isinstance(value, float) and (
        types == "number" or value.is_integer()))


def _fault(where: tuple, message: str) -> str:
    return f"{'/'.join(map(str, where)) or 'top level'}: {message}"


def schema_error(schema: dict, value, where: tuple = ()) -> str | None:
    """The first entry, in walk order, where value fails schema, as
    "<json/path>: <message>"; None when it passes. Checks, with Draft
    2020-12's meaning, the keywords BUNDLE_SCHEMA and RUN_CONFIG_SCHEMA
    use: type, const, enum, items, prefixItems, minItems, maxItems,
    required, properties and additionalProperties."""
    if "type" in schema and not _is_type(value, schema["type"]):
        return _fault(where, f"{value!r:.40} is not of type {schema['type']}")
    allowed = [schema["const"]] if "const" in schema else schema.get("enum")
    # JSON keeps booleans apart from numbers, but 1.0 equals 1
    if allowed is not None and not any(
            isinstance(v, bool) == isinstance(value, bool) and v == value
            for v in allowed):
        return _fault(where, f"{value!r:.40} is not one of {allowed}")
    children = ()
    if isinstance(value, list):
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not lo <= len(value) <= hi:
            return _fault(where, f"{len(value)} items, not {lo} to {hi}")
        prefix, rest = schema.get("prefixItems", []), schema.get("items", {})
        children = ((i, prefix[i] if i < len(prefix) else rest, item)
                    for i, item in enumerate(value))
    elif isinstance(value, dict):
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            return _fault(where, f"missing keys {missing}")
        known = schema.get("properties", {})
        extra = schema.get("additionalProperties", {})
        if extra is False and not known.keys() >= value.keys():
            unknown = sorted(value.keys() - known.keys())
            return _fault(where, f"unknown keys {unknown}")
        children = ((key, known.get(key, extra), item)
                    for key, item in value.items())
    for key, sub, item in children:
        # {} holds any value
        error = sub and schema_error(sub, item, where + (key,))
        if error:
            return error
    return None


_STRING, _INTEGER, _NUMBER = ({"type": "string"}, {"type": "integer"},
                              {"type": "number"})
_STRINGS, _NUMBERS = _array(_STRING), _array(_NUMBER)
_TABLE = _array(_NUMBERS)
# (left, right, height, size); a height of 0.0 is written as 0, an integer
_MERGES = _array({"type": "array", "minItems": 4, "maxItems": 4,
                  "prefixItems": [_INTEGER, _INTEGER, _NUMBER, _INTEGER]})
_PCA = _object(
    nullable=True, reference_model=_STRING, reference_group=_STRING,
    k=_INTEGER, eigenvectors=_TABLE, column_means=_NUMBERS, ratios=_NUMBERS,
    group_labels=_STRINGS,
    coords={"type": "object", "additionalProperties": _TABLE})
_CELL = _object(
    seed=_INTEGER, rows=_STRINGS, values=_TABLE,
    flags=_array(_array({"type": "boolean"})), column_variances=_NUMBERS,
    col_linkage=_MERGES, row_linkage=_MERGES, col_distance={},
    row_distance={}, pca=_PCA,
    full_pca_ratios={"type": ["array", "null"], "items": _NUMBER})
_FEATURE = _object(name=_STRING, reference=_STRING,
                   groups=_array(_object(label={}, size={})),
                   results=_array(_CELL, minItems=1))
_DATASET = _object(name=_STRING, source_path={}, kept_rows=_INTEGER,
                   dropped_rows=_INTEGER,
                   features=_array(_FEATURE, minItems=1))
_TRAINING = _object(
    dataset=_STRING, seed=_INTEGER, kind=_STRING, params={"type": "object"},
    mean_validation_auc=_NUMBER, pooled_test_auc=_NUMBER,
    fold_thresholds=_array(_object(fold={}, t_max={}, achieved_ba={},
                                   degenerate={})))
BUNDLE_SCHEMA = _object(
    schema_version={"const": 1}, mode={"enum": ["full", "audit"]},
    run=_object(seeds=_array(_INTEGER, minItems=1), n_folds=_INTEGER,
                validation_fraction=_NUMBER, search_draws=_INTEGER,
                model_kinds=_STRINGS),
    metric_names=_array(_STRING, minItems=13, maxItems=13),
    datasets=_array(_DATASET, minItems=1), training=_array(_TRAINING),
    robustness=_object(
        nullable=True,
        conditions=_array(_array(_STRING, minItems=2, maxItems=2), minItems=1),
        n_seeds=_INTEGER, mean=_TABLE, std=_TABLE))


def _jsonify(obj, out: list[str], indent: int) -> None:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r} in bundle")
            out.append(f'{pad}  {json.dumps(key)}: ')
            _jsonify(obj[key], out, indent + 2)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        # scalar-only lists stay on one line; nested ones get one item per line
        if all(not isinstance(v, (dict, list, tuple)) for v in seq):
            out.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _jsonify(v, out, indent + 2)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(v) -> str:
    if isinstance(v, bool) or v is None:
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not np.isfinite(f):
            raise ValueError(f"non-finite float {f!r} in bundle")
        return format(f, ".17g")  # bit-faithful round-trip
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(v).__name__} in bundle")


def bundle_json_text(bundle: dict) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats."""
    error = schema_error(BUNDLE_SCHEMA, bundle)
    if error:
        raise ValueError(f"bundle fails the bundle schema at {error}")
    out: list[str] = []
    _jsonify(bundle, out, 0)
    return "".join(out) + "\n"


def write_atomic(path: str | Path, text: str) -> Path:
    """Write text to a temporary file beside path, then rename it onto path.

    A crash or a failed write leaves path as it was, never half written,
    and removes the temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def export_bundle(bundle: dict, path: str | Path) -> Path:
    return write_atomic(path, bundle_json_text(bundle))


class BundleError(ValueError):
    """A bundle file that cannot be read, validated or rendered safely."""


def load_bundle(path: str | Path) -> dict:
    """Read and validate a bundle.

    A file that is not JSON or fails BUNDLE_SCHEMA raises BundleError,
    and so does one holding a number that is not finite: the tokens NaN,
    Infinity and -Infinity, or a literal such as 1e999 or a 400-digit
    integer that overflows a float. bundle_json_text never writes one.
    Dataset and feature names become directories under the output
    directory of report, cluster and pca, so a name that is not a single
    directory name raises BundleError too, and so does a result record
    whose parts disagree (_cell_fault) or a robustness summary that is
    not n x n for its n conditions. The renderers and the cluster and pca
    commands read the records as returned, so these checks are their
    only guard.
    """
    def refuse(token: str):
        shown = token if len(token) <= 24 else token[:21] + "..."
        raise BundleError(f"{path}: non-finite number {shown} in bundle")

    def finite(parse):
        def checked(token: str):
            if not math.isfinite(float(token)):
                refuse(token)
            return parse(token)
        return checked

    try:
        with open(path, encoding="utf-8") as fh:
            bundle = json.load(fh, parse_constant=refuse,
                               parse_float=finite(float),
                               parse_int=finite(int))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BundleError(f"{path}: not a JSON bundle ({exc})") from exc
    error = schema_error(BUNDLE_SCHEMA, bundle)
    if error:
        raise BundleError(f"{path}: fails the bundle schema at {error}")
    for ds in bundle["datasets"]:
        for name in [ds["name"]] + [feat["name"] for feat in ds["features"]]:
            if not is_path_component(name):
                raise BundleError(f"{path}: name {name!r} cannot be a "
                                  f"directory name")
        for feat in ds["features"]:
            for rec in feat["results"]:
                fault = _cell_fault(rec)
                if fault:
                    raise BundleError(f"{path}: {ds['name']}/{feat['name']}/"
                                      f"seed{rec['seed']}: {fault}")
    rob = bundle["robustness"]
    if rob is not None:
        n = len(rob["conditions"])
        for part in ("mean", "std"):
            if not _is_table(rob[part], n, n):
                raise BundleError(f"{path}: robustness {part} is not "
                                  f"{n} x {n}")
    return bundle


def _is_table(rows: list, n: int, m: int) -> bool:
    return len(rows) == n and all(len(row) == m for row in rows)


def _cell_fault(rec: dict) -> str | None:
    """How a result record's parts disagree with each other, or None.

    Row keys are "model:group"; values and flags have one 13-entry row
    per row key and column_variances one entry per metric; each linkage
    over n leaves has n - 1 merges, and merge s joins ids below n + s. A
    pca record of k components has k ratios, k x 13 eigenvectors, 13
    column means and, per model, one k-entry row per group label; its
    reference group is a group label and its reference model one of its
    models.
    """
    n, j = len(rec["rows"]), len(METRIC_NAMES)
    if not all(":" in key for key in rec["rows"]):
        return 'a row key is not "model:group"'
    for part in ("values", "flags"):
        if not _is_table(rec[part], n, j):
            return f"{part} is not {n} x {j}"
    if len(rec["column_variances"]) != j:
        return f"column_variances does not have {j} entries"
    for part, leaves in (("col_linkage", j), ("row_linkage", n)):
        merges = rec[part]
        if len(merges) != leaves - 1 or not all(
                0 <= i < leaves + s for s, m in enumerate(merges)
                for i in m[:2]):
            return f"{part} is not a tree over {leaves} leaves"
    pca = rec["pca"]
    if pca is None:
        return None
    k, g = pca["k"], len(pca["group_labels"])
    if len(pca["ratios"]) != k:
        return f"pca ratios does not have k = {k} entries"
    if not _is_table(pca["eigenvectors"], k, j):
        return f"pca eigenvectors is not {k} x {j}"
    if len(pca["column_means"]) != j:
        return f"pca column_means does not have {j} entries"
    for model, coords in pca["coords"].items():
        if not _is_table(coords, g, k):
            return f"pca coords of {model!r} is not {g} x {k}"
    if pca["reference_group"] not in pca["group_labels"]:
        return "pca reference_group is not one of its group_labels"
    if pca["reference_model"] not in pca["coords"]:
        return "pca reference_model is not one of its coords models"
    return None


# ---------------------------------------------------------------------------
# full rendering pass

def render_all(bundle: dict, out_dir: str | Path) -> list[Path]:
    """Write every figure and CSV sidecar for a bundle.

    Layout: <out>/<dataset>/<feature>/seed<k>/{clustermap.svg, pca.svg,
    matrix.csv} plus <out>/robustness/{means.csv, stds.csv, heatmap.svg}.
    pca.svg is only written when the stored projection has two or more
    components (a two-group feature yields a single component).
    """
    out_dir = Path(out_dir)
    written: list[Path] = []
    for ds in bundle["datasets"]:
        for feat in ds["features"]:
            for rec in feat["results"]:
                cell = out_dir / ds["name"] / feat["name"] / f"seed{rec['seed']}"
                where = f"{ds['name']} / {feat['name']} / seed {rec['seed']}"
                written.append(write_atomic(
                    cell / "clustermap.svg",
                    render_clustermap_svg(rec, f"{where} (micro-averaged)")))
                written.append(write_atomic(cell / "matrix.csv",
                                            matrix_csv_text(rec)))
                pca = rec["pca"]
                if pca is not None and pca["k"] >= 2:
                    title = f"{where} (axes from {pca['reference_model']})"
                    written.append(write_atomic(
                        cell / "pca.svg", render_pca_scatter_svg(pca, title)))
    rob = bundle["robustness"]
    if rob is not None:
        labels = [f"{d}/{f}" for d, f in rob["conditions"]]
        rd = out_dir / "robustness"
        for name, mat in (("means.csv", rob["mean"]), ("stds.csv", rob["std"])):
            lines = ["condition," + ",".join(labels)]
            for label, row in zip(labels, mat):
                lines.append(label + "," + ",".join("%.17g" % v for v in row))
            written.append(write_atomic(rd / name, "\n".join(lines) + "\n"))
        written.append(write_atomic(rd / "heatmap.svg",
                                    render_robustness_heatmap_svg(rob)))
    return written
