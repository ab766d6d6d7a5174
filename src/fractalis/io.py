"""Deterministic writers for the CLI artifacts.

CSV is UTF-8, LF, no header.  JSON reports use sorted keys.  PGM is
binary P5 with 16-bit big-endian samples; heights are normalized with
the field's min/max, which the run report records.  OBJ is ASCII with
one vertex per grid node (x, height, y) and two counter-clockwise
triangles per cell.

Numbers in CSV and OBJ are shortest round-trip decimals (`repr`), with
integral values written without their '.0'.  Those files are written as
a sequence of parts (ROWS rows of a CSV, one grid row of OBJ vertices or
faces), each given by a row template and its columns and formatted by
one join of the template's pieces and the columns' text tokens, then one
encode, with no pass over the text after it, so memory stays bounded for
any row count.  A float's token is its `repr`, already stripped of '.0'
where it ends in one (`_tokens`).  The parts are cut into one contiguous
share per usable CPU: the calling process formats the first share
straight into the file, and a forked child formats each later share into
an unnamed spool file in the artifact's own directory, which the parent
appends in order.  The bytes are those of a one-process write.
"""
from __future__ import annotations

import functools
import json
import os
import re
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


def _tokens(column):
    """A column as a list of text tokens: a list is taken as it is, an
    integer array by str, and a float array by repr, less the '.0' where
    repr ends in it (exactly the finite integral values below 1e16 in
    magnitude, -0.0 included)."""
    if isinstance(column, list):
        return column
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    tokens = list(map(repr, column.tolist()))
    for i in np.flatnonzero((np.abs(column) < 1e16) & (np.trunc(column) == column)).tolist():
        tokens[i] = tokens[i][:-2]
    return tokens


def _text(template, columns):
    """Row i of the equal-length columns as `template`, in ASCII.

    The template's k fields (%s or %d) take the k columns' `_tokens` in
    turn.  The tokens and the template's literal pieces are interleaved
    into one list, joined once and encoded once; a join only copies each
    piece, where % would also parse one field per token.
    """
    pieces = re.split("%[sd]", template)
    k, n = len(columns), len(columns[0])
    # after each field its literal; the row's last one runs into the next row's first
    seps = pieces[1:-1] + [pieces[-1] + pieces[0]]
    flat = [None] * (2 * k * n + 1)
    flat[0] = pieces[0]
    for j, (column, sep) in enumerate(zip(columns, seps)):
        flat[2 * j + 1::2 * k] = _tokens(column)
        flat[2 * j + 2::2 * k] = [sep] * n
    flat[-1] = pieces[-1]
    return "".join(flat).encode("ascii")


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
    _write_csv(path, "%s,%s\n", np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))


def write_box_csv(path, series):
    _write_csv(path, "%s,%d\n", np.asarray(series.deltas, dtype=np.float64),
               np.asarray(series.counts, dtype=np.int64))


def write_json(path, payload):
    """`payload` as indented JSON with sorted keys and a final newline,
    formatted whole and written in one call.  A NaN or infinite float
    raises ValueError before the file is opened: strict JSON has no
    token for it."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _pwrite(fd, data, offset):
    """All of the array `data` at `offset` in the file `fd` (os.pwrite may write less)."""
    view = memoryview(data.reshape(-1).view(np.uint8))
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def write_pgm(path, field):
    """P5/65535 heightmap of a `surface.HeightField`.

    Row iy of the image is the grid row y = iy/m; the first pixel is the
    value at (0, 0).  Pixels are rint((h - min) / (max - min) * 65535),
    or 0 on a flat field, with the field's own height_min/height_max (no
    sweep here).  The file is first sized to its header and pixels, all
    zero; the rows are then normalized in row blocks on up to one thread
    per usable CPU (`shares.run_blocks`), each block cast into a
    block-sized big-endian 16-bit buffer that is written at its rows' file
    offset (`os.pwrite`).  A flat field runs no block.  No field-sized
    array is made, and the bytes are those of one whole-array pass.
    """
    H, lo, hi = field.heights, field.height_min, field.height_max
    header = f"P5\n{H.shape[1]} {H.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(len(header) + 2 * H.size)   # flushes the header first
        if hi > lo:
            def block(a, b, scratch):
                norm = np.subtract(H[a:b], lo, out=scratch[:b - a])
                norm /= hi - lo
                norm *= 65535.0
                _pwrite(fh.fileno(), np.rint(norm, out=norm).astype(">u2"),
                        len(header) + 2 * H.shape[1] * a)

            shares.run_blocks(H.shape[0], H.shape[1], block)


def write_obj(path, field):
    """Grid mesh: vertices 'v x height y', faces counter-clockwise.

    One vertex part per grid row, with that row's y token in its
    template, then one face part per grid row of cells; parts are split
    among the usable CPUs like every CSV (module docstring), with the same
    bytes as a one-process write.  x and y come from one list of axis
    tokens, the `_tokens` of ix / m.  A face part takes its vertex indices
    from the index strings of its two grid rows, each built once per
    process and kept for the next row's part.
    """
    H = np.asarray(field.heights, dtype=np.float64)
    m = field.resolution
    axis = _tokens(np.arange(m + 1) / m)
    stride = m + 1

    @functools.lru_cache(maxsize=2)
    def indices(iy):   # 1-based indices of grid row iy's vertices, as strings
        return list(map(str, range(iy * stride + 1, (iy + 1) * stride + 1)))

    def faces(iy):
        low, up = indices(iy), indices(iy + 1)
        return "f %s %s %s\nf %s %s %s\n", (low[:-1], low[1:], up[1:], low[:-1], up[1:], up[:-1])

    with open(path, "wb") as fh:
        _write_parts(fh, m + 1, lambda iy: ("v %s %s " + axis[iy] + "\n", (axis, H[iy])))
        _write_parts(fh, m, faces)
