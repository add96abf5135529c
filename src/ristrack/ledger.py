"""Slot-ledger CSV text, formatted by numpy with the bytes of ``%d`` and ``%.12g``.

`write_ledgers` writes the ledgers of one trajectory's runs, one file each,
together block by block of rows. Each simulated run hands out a block's
columns from its ``block`` method, deriving them from its status table and
carrying its running rate sum on to the next block. The slot index and the
true angle are the same for every tracker of a seed, so their cells are
formatted once per block and written to every file.

Each cell of a block is a few rows of indices into a table of uint32 words,
pieces of four ASCII bytes: a separator (which also carries a minus sign),
then digits with leading and trailing zeros as NUL bytes. A float in fixed
notation puts its integer digits right-aligned before a fixed point position
and its fraction digits after it, so every cell is built without per-cell
branches. A cell keeps only the words its block can use: the integer words
the block's largest integer part fills and the fraction words its largest
point position reaches; a comma and an integer part below 1000 share a word
when no cell of the block is negative. One gather of the word table per
block turns the index rows into text, and the NUL padding is stripped before
the block is written.

Python formats the few cells the word table cannot express: exponent
notation, non-finite values, and mantissas that the scaled double cannot
round for certain. Their text replaces the cell's words, which are widened
in that block if it does not fit. Slot kinds other than DATA, which are rare,
are written as one placeholder byte and named once the NULs are stripped.
"""

from __future__ import annotations

import contextlib
import functools
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .simengine import SlotKind, StatusTimeline

LEDGER_HEADER = ("slot_index,kind,rss,rss_normalized,inst_rate,cum_rate,"
                 "status_id,config_id,theta2_true_deg")
# Ledger rows formatted at a time. A row takes at most 54 words (216 bytes)
# before its NUL padding is stripped, about 29 on the default scenario, so a
# block's text and its index rows stay a few MB.
LEDGER_BLOCK_ROWS = 8192

_KIND_TEXT = [b",DATA" if k is SlotKind.DATA else b",%c" % k for k in SlotKind]
_KIND_PLACEHOLDERS = {bytes([k]): k.name.encode() for k in SlotKind if k is not SlotKind.DATA}
_KIND_WIDTH = 2  # words of a kind cell


@functools.cache  # built on first use: runs that write no ledger never need it
def _words() -> np.ndarray:
    """Pieces of ledger text as little-endian uint32 words of four ASCII bytes.

    From _FULL, every 0 <= g < 10000 as four digits; from _LEAD, the same
    with leading zeros as NUL (0 is all NUL); from _LEAD_KEEP_LAST, the same
    but 0 keeps its last digit; from _TRAIL, with trailing zeros as NUL. From
    _POINT, every g < 1000 as a point and three digits; from _POINT_TRAIL,
    the same with trailing zeros as NUL (0 is all NUL); from _COMMA_DIGITS, a
    comma and three digits as from _LEAD_KEEP_LAST. Then the separators, then
    from _KIND each slot kind's cell in _KIND_WIDTH words.
    """
    g = np.arange(10000, dtype=np.uint16)[:, None]
    text = 48 + np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    lead = g < np.array([1000, 100, 10, 1], np.uint16)
    keep_last = lead.copy()
    keep_last[0, 3] = False
    trail = g % np.array([10000, 1000, 100, 10], np.uint16) == 0
    point = text[:1000].copy()
    point[:, 0] = ord(".")
    comma_digits = (text * ~keep_last)[:1000]
    comma_digits[:, 0] = ord(",")
    kinds = np.array(_KIND_TEXT, dtype=f"S{4 * _KIND_WIDTH}").view(np.uint8).reshape(-1, 4)
    words = np.concatenate((
        text, text * ~lead, text * ~keep_last, text * ~trail, point, point * ~trail[:1000],
        comma_digits, np.frombuffer(b"\n\0\0\0\n\0\0-,\0\0\0,\0\0-", np.uint8).reshape(4, 4),
        kinds,
    )).view("<u4").ravel()
    words.flags.writeable = False
    return words


_FULL, _LEAD, _LEAD_KEEP_LAST, _TRAIL = 0, 10000, 20000, 30000
_POINT, _POINT_TRAIL, _COMMA_DIGITS = 40000, 41000, 42000
# each separator word is followed by the same separator with a minus sign
_NEWLINE, _COMMA = 43000, 43002
_KIND = 43004
_POW10F = (10 ** np.arange(16)).astype(float)


class _Cell(NamedTuple):
    """One column of a block: rows of word indices, and what they leave out.

    ``python`` holds the positions of the rows Python formats and their text,
    a comma and ``%.12g``, in as many words as the cell has rows. ``names``
    are the placeholder bytes the rows hold, to be replaced by their text.
    """

    rows: list
    python: tuple | None = None
    names: tuple = ()


def _int_words(top: float, negative: np.ndarray, separator: int) -> int:
    """Integer words for integer parts up to top; 0 when each shares its comma's."""
    if separator == _COMMA and top < 1000 and not negative.any():
        return 0
    return 1 + (top >= 1e4) + (top >= 1e8)


def _head_rows(negative: np.ndarray, i: np.ndarray, n: int, separator: int) -> list:
    """The separator, then n rows: integer-valued 0 <= i < 10**(4n) right-aligned.

    Leading zeros are NUL, except the last digit of 0. For n = 0, one row of
    a comma and i < 1000.
    """
    if not n:
        return [i + float(_COMMA_DIGITS)]
    rows = [negative + float(separator)]
    higher = None  # the digits left of the word being built
    for k in range(n - 1, -1, -1):
        q = np.floor(i / _POW10F[4 * k]) if k else i  # exact: i < 2**53
        base = float(_LEAD if k else _LEAD_KEEP_LAST)
        rows.append(q + base if higher is None else
                    q - higher * 1e4 + np.where(higher == 0, base, float(_FULL)))
        higher = q
    return rows


def _fraction_rows(f: np.ndarray, n: int) -> list:
    """n rows: the 4n - 1 fraction digits of integer-valued f, behind a point.

    Trailing zeros are NUL; a fraction of 0 is all NUL, point included.
    """
    rows = []
    for k in range(n):
        full, trail = (_POINT, _POINT_TRAIL) if k == 0 else (_FULL, _TRAIL)
        if k == n - 1:
            rows.append(f + float(trail))
            break
        unit = _POW10F[4 * (n - 1 - k)]
        q = np.floor(f / unit)
        f = f - q * unit
        # a word drops its trailing zeros when every later word is zero
        rows.append(q + np.where(f == 0, float(trail), float(full)))
    return rows


def _int_cell(v: np.ndarray, separator: int = _COMMA) -> _Cell:
    """``%d`` text of integers |v| < 10**12, in as many words as the block needs."""
    a = np.abs(v).astype(float)
    negative = v < 0
    n = _int_words(a.max(initial=0.0), negative, separator)
    return _Cell(_head_rows(negative, a, n, separator))


def _kind_cell(kind: np.ndarray) -> _Cell:
    """The slot kinds' names: DATA, and placeholders for the kinds present."""
    base = _KIND + _KIND_WIDTH * kind.astype(np.intp)
    present = np.flatnonzero(np.bincount(kind, minlength=len(SlotKind))).tolist()
    return _Cell([base, base + 1], names=tuple(bytes([k]) for k in present if k != SlotKind.DATA))


def _float_cell(v: np.ndarray) -> _Cell:
    """``%.12g`` text of float64 values, in as many words as the block needs.

    A cell in fixed notation is its 12-digit mantissa m = rint(|v| * 10**k),
    split into 12 right-aligned integer digits, a point and 15 fraction
    digits, with leading and trailing zeros as NUL. Python formats the rest:
    non-finite values, exponent notation (rounded magnitude below 1e-4 or
    from 1e12), and mantissas the scaled double cannot round for certain:
    half-units, a log10 one off next to a power of ten, and carries to 13
    digits.
    """
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        # fmax/fmin map NaN and log10(0) to -4 as well
        point = (11 - np.fmin(np.fmax(np.floor(np.log10(a)), -4), 11)).astype(np.intp)
        # p is |v| * 10**point rounded once (10**point is exact for point <= 15),
        # so rint(p) rounds like |v|'s exact decimal unless p is a half-unit
        unit = _POW10F[point]
        p = a * unit
        m = np.rint(p)
        ok = (p >= 1e11) & (m < 1e12) & (np.abs(p - m) < 0.5)
    python = ()
    if not ok.all():
        # zero and Python-formatted cells get m = 0 and no fraction digits: "0"
        other = np.flatnonzero(~ok)
        m[other], unit[other], point[other] = 0.0, 1.0, 0
        python = other[a[other] != 0]
    # exact: m / unit errs by under 1e-4 / unit, and is an integer or at least
    # 1 / unit below the next one
    i = np.floor(m / unit)
    negative = np.signbit(v)
    last = point.max(initial=0)
    n_int, n_fraction = _int_words(i.max(initial=0.0), negative, _COMMA), (last > 0) + last // 4
    if len(python):
        text = [b",%.12g" % x for x in v[python].tolist()]
        if 4 * (1 + n_int + n_fraction) < max(map(len, text)):
            n_int, n_fraction = 3, 4  # room for any %.12g text
    rows = _head_rows(negative, i, n_int, _COMMA)
    if n_fraction:
        # the fraction in 4 * n_fraction - 1 >= point digits: an integer below 2**53
        scale = _POW10F[4 * n_fraction - 1] / unit
        rows += _fraction_rows((m - i * unit) * scale, n_fraction)
    if not len(python):
        return _Cell(rows)
    text = b"".join(t.ljust(4 * len(rows), b"\0") for t in text)
    return _Cell(rows, (python, np.frombuffer(text, "<u4").reshape(-1, len(rows))))


def _block_text(cells: Sequence[_Cell]) -> bytes:
    """The text of a block's cells, row by row, from one gather of the word table."""
    n = cells[0].rows[0].shape[0]
    idx = np.empty((sum(len(c.rows) for c in cells), n), np.intp)
    python = []
    r = 0
    for cell in cells:
        if cell.python is not None:
            python.append((r, cell.python))
        for row in cell.rows:
            idx[r] = row
            r += 1
    block = _words()[idx.T]
    for r, (positions, text) in python:
        block[positions, r:r + text.shape[1]] = text
    text = block.tobytes().translate(None, b"\0")
    for cell in cells:
        for placeholder in cell.names:
            text = text.replace(placeholder, _KIND_PLACEHOLDERS[placeholder])
    return text


def write_ledgers(paths: Sequence[str], timelines: Sequence[StatusTimeline]) -> None:
    """Write the slot ledger CSV of each timeline of one trajectory to its path.

    Raises ValueError before any file is opened if there are not as many paths
    as timelines, or if the timelines differ in length or in ``theta2_true``,
    whose cells they share. Then writes each header, each LEDGER_BLOCK_ROWS-row
    block to each file in turn as soon as it is formatted, and each closing
    newline.
    """
    if len(paths) != len(timelines):
        raise ValueError(f"{len(paths)} paths for {len(timelines)} timelines")
    if not timelines:
        return
    first = timelines[0]
    theta = np.asarray(first.theta2_true, float)
    for tl in timelines[1:]:
        if len(tl) != len(first):
            raise ValueError(f"{tl.policy_name}: {len(tl)} slots, "
                             f"{first.policy_name} has {len(first)}")
        # bit patterns: -0.0 and 0.0 print differently, and NaN equals itself
        if tl.theta2_true is not first.theta2_true and not np.array_equal(
                np.asarray(tl.theta2_true, float).view(np.uint64), theta.view(np.uint64)):
            raise ValueError(f"{tl.policy_name}: theta2_true differs from "
                             f"{first.policy_name}'s")
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for fh in files:
            fh.write(LEDGER_HEADER.encode())
        carries = [0.0] * len(files)  # each timeline's running inst_rate sum
        for start in range(0, len(theta), LEDGER_BLOCK_ROWS):
            stop = min(start + LEDGER_BLOCK_ROWS, len(theta))
            # each cell starts with its separator, so each row starts with a newline
            index = _int_cell(np.arange(start + 1, stop + 1), _NEWLINE)
            angle = _float_cell(np.rad2deg(theta[start:stop]))
            for i, (fh, tl) in enumerate(zip(files, timelines)):
                columns, carries[i] = tl.block(start, stop, carries[i])
                kind, *floats, status_id, config_id = columns
                fh.write(_block_text((index, _kind_cell(kind), *map(_float_cell, floats),
                                      _int_cell(status_id), _int_cell(config_id), angle)))
        for fh in files:
            fh.write(b"\n")
