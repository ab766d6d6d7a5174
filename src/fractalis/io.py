"""Deterministic writers for the CLI artifacts.

CSV is UTF-8, LF, no header.  JSON reports use sorted keys.  PGM is
binary P5 with 16-bit big-endian samples; heights are normalized with
the min/max recorded in the run report.  OBJ is ASCII with one vertex
per grid node (x, height, y) and two counter-clockwise triangles per
cell.

Numbers in CSV and OBJ are shortest round-trip decimals (`repr`), with
integral values written without their '.0'.  Those rows are formatted
and written ROWS at a time, so memory stays bounded for any row count.
"""
from __future__ import annotations

import json

import numpy as np

__all__ = [
    "write_curve_csv",
    "write_box_csv",
    "write_json",
    "write_pgm",
    "write_obj",
]

ROWS = 1 << 12   # rows per % and fh.write; 1 << 14 adds ~0.6 MB peak RSS on a 262 k-row curve


def _write_rows(fh, template, columns):
    """Write row i of the equal-length 1-D arrays `columns` as `template`.

    Each block of ROWS rows is taken with `tolist()`, interleaved and
    filled by one % over the repeated template.  `repr` prints no
    trailing zero other than an integral value's '.0' (1e+16, not
    1.0e+16), so dropping '.0' before a separator strips exactly those.
    """
    k = len(columns)
    for lo in range(0, len(columns[0]), ROWS):
        block = [c[lo:lo + ROWS].tolist() for c in columns]
        flat = [None] * (k * len(block[0]))
        for j, values in enumerate(block):
            flat[j::k] = values
        text = (template * len(block[0])) % tuple(flat)
        fh.write(text.replace(".0,", ",").replace(".0 ", " ").replace(".0\n", "\n"))


def write_curve_csv(path, xs, ys):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_rows(fh, "%r,%r\n", (np.asarray(xs, dtype=np.float64),
                                    np.asarray(ys, dtype=np.float64)))


def write_box_csv(path, series):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_rows(fh, "%r,%d\n", (np.asarray(series.deltas, dtype=np.float64),
                                    np.asarray(series.counts, dtype=np.int64)))


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_pgm(path, heights):
    """P5/65535 heightmap; returns the (min, max) used for normalization.

    Row iy of the image is the grid row y = iy/m; the first pixel is the
    value at (0, 0).
    """
    H = np.asarray(heights, dtype=np.float64)
    lo, hi = float(H.min()), float(H.max())
    if hi > lo:
        norm = H - lo
        norm /= hi - lo
    else:
        norm = np.zeros_like(H)
    norm *= 65535.0
    px = np.rint(norm, out=norm).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{H.shape[1]} {H.shape[0]}\n65535\n".encode("ascii"))
        fh.write(px.tobytes())
    return lo, hi


def write_obj(path, field):
    """Grid mesh: vertices 'v x height y', faces counter-clockwise.

    Written one grid row at a time; x and y come from one array of axis
    strings, which equal repr(ix / m).
    """
    H = np.asarray(field.heights, dtype=np.float64)
    m = field.resolution
    axis = np.array([repr(v) for v in (np.arange(m + 1) / m).tolist()])
    stride = m + 1
    a = np.arange(1, m + 1)   # 1-based index of each cell's lower-left vertex in grid row 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for iy in range(m + 1):
            _write_rows(fh, "v %s %r %s\n", (axis, H[iy], np.full(m + 1, axis[iy])))
        for iy in range(m):
            row = a + iy * stride
            _write_rows(fh, "f %d %d %d\nf %d %d %d\n",
                        (row, row + 1, row + stride + 1, row, row + stride + 1, row + stride))
