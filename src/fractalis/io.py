"""Deterministic writers for the CLI artifacts.

CSV is UTF-8, LF, no header.  JSON reports use sorted keys.  PGM is
binary P5 with 16-bit big-endian samples; heights are normalized with
the min/max recorded in the run report.  OBJ is ASCII with one vertex
per grid node (x, height, y) and two counter-clockwise triangles per
cell.

Numbers in CSV and OBJ are shortest round-trip decimals (`repr`), with
integral values written without their '.0'.  Those files are written as
a sequence of parts (ROWS rows of a CSV, one grid row of OBJ vertices or
faces), each formatted by one % over a repeated row template, so memory
stays bounded for any row count.  The parts are cut into one contiguous
share per usable CPU: the calling process formats the first share
straight into the file, and a forked child formats each later share into
an unnamed spool file in the artifact's own directory, which the parent
appends in order.  The bytes are those of a one-process write.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np

from . import shares

__all__ = [
    "write_curve_csv",
    "write_box_csv",
    "write_json",
    "write_pgm",
    "write_obj",
]

ROWS = 1 << 12   # rows per CSV part; 1 << 14 adds ~0.6 MB peak RSS on a 262 k-row curve


def _text(template, columns):
    """Row i of the equal-length 1-D arrays `columns` as `template`, in ASCII.

    The columns are taken with `tolist()`, interleaved and filled by one
    % over the repeated template.  `repr` prints no trailing zero other
    than an integral value's '.0' (1e+16, not 1.0e+16), so dropping '.0'
    before a separator strips exactly those.
    """
    k = len(columns)
    values = [c.tolist() for c in columns]
    flat = [None] * (k * len(values[0]))
    for j, column in enumerate(values):
        flat[j::k] = column
    text = (template * len(values[0])) % tuple(flat)
    return text.replace(".0,", ",").replace(".0 ", " ").replace(".0\n", "\n").encode("ascii")


def _write_share(out, lo, hi, part):
    for i in range(lo, hi):
        out.write(_text(*part(i)))


def _write_parts(fh, count, part):
    """Write parts 0..count-1 to the binary file `fh` in order; part(i)
    returns that part's (template, columns).

    Shares are cut as the module docstring says (`shares.cuts`), with one
    share where os.fork does not exist.  A child touches only its parts
    and its spool, never `fh`, and always leaves by os._exit.  A child
    that fails makes this raise, and every child is reaped however this
    returns.
    """
    cuts = shares.cuts(count) if hasattr(os, "fork") else [0, count]
    later = list(zip(cuts[1:-1], cuts[2:]))
    spools, pids = [], []
    try:
        for lo, hi in later:
            spools.append(tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(fh.name))))
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _write_share(spools[-1], lo, hi, part)
                    spools[-1].flush()
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        _write_share(fh, 0, cuts[1], part)
        for spool, (lo, hi) in zip(spools, later):
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status:
                raise RuntimeError(f"the forked writer of parts {lo}..{hi - 1} failed "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
            spool.seek(0)
            shutil.copyfileobj(spool, fh)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for spool in spools:
            spool.close()


def _write_csv(path, template, *columns):
    with open(path, "wb") as fh:
        _write_parts(fh, -(-len(columns[0]) // ROWS),
                     lambda i: (template, [c[i * ROWS:(i + 1) * ROWS] for c in columns]))


def write_curve_csv(path, xs, ys):
    _write_csv(path, "%r,%r\n", np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))


def write_box_csv(path, series):
    _write_csv(path, "%r,%d\n", np.asarray(series.deltas, dtype=np.float64),
               np.asarray(series.counts, dtype=np.int64))


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

    One vertex part per grid row, with that row's y string in its
    template, then one face part per grid row of cells, whose vertex
    indices are built when the part is formatted; parts are split among
    the usable CPUs like every CSV (module docstring), with the same
    bytes as a one-process write.  x and y come from one array of axis
    strings, which equal repr(ix / m).
    """
    H = np.asarray(field.heights, dtype=np.float64)
    m = field.resolution
    axis = np.array([repr(v) for v in (np.arange(m + 1) / m).tolist()])
    stride = m + 1
    a = np.arange(1, m + 1)   # 1-based index of each cell's lower-left vertex in grid row 0

    def faces(iy):
        row = a + iy * stride
        return "f %d %d %d\nf %d %d %d\n", (row, row + 1, row + stride + 1,
                                             row, row + stride + 1, row + stride)

    with open(path, "wb") as fh:
        _write_parts(fh, m + 1, lambda iy: ("v %s %r " + axis[iy] + "\n", (axis, H[iy])))
        _write_parts(fh, m, faces)
