"""CSV and JSON tables of named columns, written a block of rows at a time.

A CSV cell is exactly Python's '%.12g' % cell and a JSON document exactly
what json.dumps writes; both are laid out as uint8 cells by numpy.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

#: Rows of a table formatted per block: enough to amortise the numpy and
#: json.dumps calls, few enough that a block's buffers stay small.
_BLOCK_ROWS = 4096

#: 10**k for k in [0, 15], exact floats.
_POW10 = np.array([float(10**k) for k in range(16)])


@functools.cache
def _quad_table() -> np.ndarray:
    # Each of 0..9999 as four ASCII digits, little-endian in one uint32: as
    # they are, with the leading zeros padded, and with the trailing zeros
    # padded; the pad byte is NUL, numpy's own.  No cell holds NUL, so a block
    # of CSV rows is laid out in fixed-width cells filled with pads, and the
    # pads deleted at once.  Built at the first CSV table, not at import.
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    lead, trail = digits == 0, digits == 0
    for j in range(1, 4):
        lead[j] &= lead[j - 1]
        trail[3 - j] &= trail[4 - j]
    pads = np.stack([np.zeros_like(lead), lead, trail], axis=1).reshape(4, -1)
    places = np.where(pads, 0, np.tile(digits + ord("0"), 3)).astype("<u4")
    table = (places << np.array([[0], [8], [16], [24]], "<u4")).sum(axis=0, dtype="<u4")
    table.flags.writeable = False
    return table


#: Offsets into _quad_table() of the tables with leading and with trailing zeros
#: padded; either holds four pads at 0.
_LEAD, _TRAIL = 10000, 20000


def _g12_cells(v: np.ndarray) -> np.ndarray:
    """Cells of '%.12g' % v for a 1-D float array, as pad-filled uint8 rows.

    A cell in fixed notation, 0 or -0 is formatted in numpy.  With X the
    decimal exponent, |v| * 10**(11 - X) is formed exactly as hi + lo
    (Dekker's TwoProduct) and rounded half to even to the 12-digit integer
    N, or N = 0 at X = 0 for 0.  X is estimated by log10 and checked against
    hi.  The integer part of N / 10**(11 - X) fills 12 digit columns and
    its fraction, times 1e15, the 15 columns after the point, which
    therefore has a fixed column; the integer part's leading zeros and the
    fraction's trailing zeros are pads.  Every other cell (nan, +-inf,
    0 < |v| < 1e-4, exponential notation, a wrong estimate) is Python's
    '%.12g', the reference.  Temporaries are dropped once used, so that a
    call peaks at about 92 bytes a cell.
    """
    a = np.abs(v)
    candidate = (a >= 1e-4) & (a < 1e12)
    a[~candidate] = 1.0
    x = np.log10(a)
    x = np.clip(np.floor(x, out=x), -4, 11, out=x).astype(np.intp)
    hi, lo = _two_product(a, _POW10[11 - x])
    del a
    # X is right where 1e11 <= hi + lo < 1e12.  Where hi is 1e11 or 1e12 but
    # hi + lo is not, |v| is within half an ulp of a power of ten, which it
    # rounds to under X as under the true exponent.
    fast = candidate & (hi >= 1e11) & (hi <= 1e12)
    n = np.floor(hi)
    f = np.subtract(hi, n, out=hi)
    # hi is a multiple of its ulp (< 1/2) and |lo| <= ulp/2, so only f == 0.5
    # needs lo, and only lo == 0 is a tie.
    half = 0.5 * n
    n += (f > 0.5) | ((f == 0.5) & ((lo > 0.0) | ((lo == 0.0) & (half != np.floor(half)))))
    del f, lo, half
    # Rounding up to 1e12 adds a digit: 1e11 at exponent X + 1.
    carry = n == 1e12
    x += carry
    fast &= x <= 11
    n[~fast | carry] = 1e11
    zero = v == 0.0
    n[zero] = 0.0
    fast |= zero
    x[~fast] = 0
    scale = _POW10[11 - x]
    whole = np.floor(n / scale)
    frac = (n - whole * scale) * _POW10[4 + x]
    del n, scale
    # Columns: 4 pads, 12 integer digits, then the fraction's 16 digits, of
    # which the first, always 0, is the point's.  The integer part's groups
    # drop leading zeros up to its first nonzero one, the fraction's drop
    # trailing zeros from its last nonzero one.
    groups = [*_quad_split(whole, 3), *_quad_split(frac, 4)]
    unit, point = whole == 0, frac != 0
    del whole, frac
    table = _quad_table()
    cells = np.empty((v.size, 8), table.dtype)
    cells[:, 0] = table[_LEAD]
    for places, offset in ((range(1, 4), _LEAD), (range(7, 3, -1), _TRAIL)):
        pad = np.full(v.size, offset, np.intp)
        for k in places:
            group = groups[k - 1]
            cells[:, k] = table[pad + group]
            pad *= group == 0
    del groups
    cells = cells.view(np.uint8)
    cells[:, 15][unit] = ord("0")
    cells[:, 16][point] = ord(".")
    negative = np.flatnonzero(np.signbit(v))
    cells[negative, 14 - np.maximum(x[negative], 0)] = ord("-")
    slow = np.flatnonzero(~fast)
    if slow.size:
        # '%.12g' of a float takes at most 19 bytes, within a cell's 32 columns.
        text = _text_cells(["%.12g" % cell for cell in v[slow].tolist()])
        cells[slow] = 0
        cells[slow, : text.shape[1]] = text
    return cells


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # hi + lo == a * b exactly, with hi = fl(a * b) (Dekker), for products
    # that neither overflow nor underflow.
    hi = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Veltkamp's split of a into two 26-bit halves.
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _quad_split(value: np.ndarray, count: int) -> list[np.ndarray]:
    # The count 4-digit groups of integer-valued floats below 1e4**count
    # (at most 1e16), most significant first, as uint16; every step is exact.
    groups = []
    for _ in range(count - 1):
        quotient = np.floor(value / 1e4)
        groups.append((value - quotient * 1e4).astype(np.uint16))
        value = quotient
    return [value.astype(np.uint16), *groups[::-1]]


def _text_cells(text: list[str]) -> np.ndarray:
    # Each str's UTF-8 bytes as a uint8 row of numpy's NUL-padded fixed width.
    cells = np.array("\0".join(text).encode("utf-8").split(b"\0"), "S")
    return cells.view(np.uint8).reshape(len(text), -1)


def _repr_cells(v: np.ndarray) -> np.ndarray:
    # The json module's cells of a nonempty float array: repr, NaN or
    # +-Infinity, from the C encoder with "\0", which no cell holds, between them.
    return _text_cells(json.dumps(v.tolist(), separators=("\0", ":"))[1:-1].split("\0"))


def _write_table(
    output: str,
    fmt: str,
    columns: dict[str, Sequence | np.ndarray] | Iterable[dict[str, Sequence | np.ndarray]],
    metadata: dict,
    trailer: Optional[Callable[[], str]] = None,
    labels: Optional[dict[str, Sequence]] = None,
) -> None:
    """Write equal-length named columns as a CSV or JSON table, in key order.

    columns is one dict of them, or an iterable of such dicts with the same
    keys, runs of the table's rows that are written as they come.  A column
    holds floats or, where labels has its key, integer codes into that short
    sequence of str, float or None labels.  A CSV cell is written as
    '%.12g' % cell, a str as it is and None as empty; what trailer returns
    once the rows are written ends it as a '# ' line.  The JSON document is
    the one json.dumps writes with indent=2 and sorted keys, each code
    replaced by its label.  Either is written a block of rows at a time.
    No key, label or cell holds NUL: it is the pad byte of a block's cells.
    """
    labels = labels or {}
    runs = iter([columns] if isinstance(columns, dict) else columns)
    first_run = next(runs, {})
    runs = itertools.chain([first_run], runs)
    if fmt == "csv":
        keys = list(first_run)
        head = ",".join(keys) + "\n"
        fragments = ["", *[","] * (len(keys) - 1), "\n"]
        text = {
            key: ["" if v is None else v if isinstance(v, str) else "%.12g" % v for v in values]
            for key, values in labels.items()
        }
        blocks = _table_lines(runs, keys, text, _g12_cells, fragments)
    else:
        # Each row starts with ",", its separator from the row before; the first drops it.
        keys = sorted(first_run)
        head = json.dumps({"metadata": metadata}, indent=2, sort_keys=True)[:-2] + ',\n  "rows": ['
        fragments = [",\n      " + json.dumps(key) + ": " for key in keys] + ["\n    }"]
        fragments[0] = ",\n    {" + fragments[0][1:]
        text = {key: [json.dumps(v) for v in values] for key, values in labels.items()}
        blocks = _table_lines(runs, keys, text, _repr_cells, fragments)
        first = next(blocks, "")
        blocks = itertools.chain([first[1:]], blocks)

    def lines() -> Iterator[str]:
        yield head
        yield from blocks
        if fmt != "csv":
            yield "\n  ]\n}\n" if first else "]\n}\n"
        elif trailer:
            yield "# " + trailer() + "\n"

    if output == "-":
        sys.stdout.writelines(lines())
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines())


def _table_lines(
    runs: Iterable[dict], keys: list[str], label_text: dict[str, list[str]], float_cells: Callable,
    fragments: list[str],
) -> Iterator[str]:
    # A block's rows go into one uint8 array, fragments[j] before cell j and
    # the last after the last cell, and its pad bytes are deleted.  A float
    # column's block is formatted in one call; a label column gathers cells,
    # rendered once per table, by code.
    coded = {key: _text_cells(text) for key, text in label_text.items()}
    marks = [np.frombuffer(f.encode("utf-8"), np.uint8) for f in fragments]
    for run in runs:
        columns = [(key, np.asarray(run[key], None if key in coded else float)) for key in keys]
        for first in range(0, len(columns[0][1]) if columns else 0, _BLOCK_ROWS):
            block = slice(first, first + _BLOCK_ROWS)
            cells = [coded[k][c[block]] if k in coded else float_cells(c[block]) for k, c in columns]
            parts = [np.broadcast_to(mark, (len(cells[0]), mark.size)) for mark in marks]
            line = np.concatenate([*itertools.chain(*zip(parts, cells)), parts[-1]], axis=1)
            yield line.tobytes().translate(None, b"\0").decode()
