"""Slot-ledger CSV text, formatted by numpy with the bytes of ``%d`` and ``%.12g``.

Rows are formatted in blocks. Each cell of a block is a fixed number of
uint32 words taken from a table of four-character pieces: its separator
(which also carries a minus sign), then digits with leading and trailing
zeros as NUL bytes. A float in fixed notation puts its integer digits
right-aligned before a fixed point position and its fraction digits after
it, so every cell is built without per-cell branches. The NUL padding is
stripped from the block before it is written. Python formats the few cells
the word table cannot express: exponent notation, non-finite values, and
mantissas that the scaled double cannot round for certain.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .simengine import SlotKind, Timeline

LEDGER_HEADER = ("slot_index,kind,rss,rss_normalized,inst_rate,cum_rate,"
                 "status_id,config_id,theta2_true_deg")
# Ledger rows formatted at a time: a block's NUL-padded text (232 bytes a
# row) and its int64 temporaries stay a few MB.
LEDGER_BLOCK_ROWS = 8192


@functools.cache  # built on first use: runs that write no ledger never need it
def _words() -> np.ndarray:
    """Pieces of ledger text as little-endian uint32 words of four ASCII bytes.

    From _FULL, every 0 <= g < 10000 as four digits; from _LEAD, the same
    with leading zeros as NUL (0 is all NUL); from _LEAD_KEEP_LAST, the same
    but 0 keeps its last digit; from _TRAIL, with trailing zeros as NUL. From
    _POINT, every g < 1000 as a point and three digits; from _POINT_TRAIL,
    the same with trailing zeros as NUL (0 is all NUL). Then the separators.
    """
    g = np.arange(10000, dtype=np.uint16)[:, None]
    text = 48 + np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    lead = g < np.array([1000, 100, 10, 1], np.uint16)
    keep_last = lead.copy()
    keep_last[0, 3] = False
    trail = g % np.array([10000, 1000, 100, 10], np.uint16) == 0
    point = text[:1000].copy()
    point[:, 0] = ord(".")
    words = np.concatenate((
        text, text * ~lead, text * ~keep_last, text * ~trail, point, point * ~trail[:1000],
        np.frombuffer(b"\n\0\0\0\n\0\0-,\0\0\0,\0\0-", np.uint8).reshape(4, 4),
    )).view("<u4").ravel()
    words.flags.writeable = False
    return words


_FULL, _LEAD, _LEAD_KEEP_LAST, _TRAIL, _POINT, _POINT_TRAIL = 0, 10000, 20000, 30000, 40000, 41000
# each separator word is followed by the same separator with a minus sign
_NEWLINE, _COMMA = 42000, 42002
_POW10F = (10 ** np.arange(16)).astype(float)
# SlotKind values are 0, 1, 2, 3 in declaration order
_KIND_WORDS = np.array([("," + k.name).encode() for k in SlotKind],
                       dtype="S24").view("<u4").reshape(len(SlotKind), 6)
_FLOAT_WORDS = 8


def _put_int_words(idx: np.ndarray, i: np.ndarray) -> None:
    """Fill idx's three rows with 0 <= i < 10**12 as 12 right-aligned characters."""
    q8, q4 = i // 10**8, i // 10**4
    idx[0] = q8 + _LEAD
    idx[1] = q4 - q8 * 10**4 + (q8 == 0) * _LEAD
    idx[2] = i - q4 * 10**4 + (q4 == 0) * _LEAD_KEEP_LAST


def _int_words(v: np.ndarray, separator: int = _COMMA) -> np.ndarray:
    """(n, 4) words: a separator, then ``%d`` text of integers |v| < 10**12."""
    idx = np.empty((4, v.shape[0]), np.intp)
    idx[0] = separator + (v < 0)
    _put_int_words(idx[1:], np.abs(v.astype(np.int64)))
    return _words()[idx.T]


def _float_words(v: np.ndarray) -> np.ndarray:
    """(n, 8) words: a comma, then ``%.12g`` text of float64 values.

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
        p = a * _POW10F[point]
        m = np.rint(p)
        ok = (p >= 1e11) & (m < 1e12) & (np.abs(p - m) < 0.5)
    # zero and Python-formatted cells get m = 0 and no fraction digits: "0"
    m = np.where(ok, m, 0.0)
    point *= ok
    unit = _POW10F[point]
    # exact: m / unit errs by under 1e-4 / unit, and is an integer or at least
    # 1 / unit below the next one
    i = np.floor(m / unit)
    f = ((m - i * unit) * _POW10F[15 - point]).astype(np.int64)  # fraction, 15 digits
    q8 = f // 10**8
    lo = f - q8 * 10**8
    g0 = q8 // 10**4
    g1 = q8 - g0 * 10**4
    g2 = lo // 10**4
    g3 = lo - g2 * 10**4
    idx = np.empty((_FLOAT_WORDS, v.shape[0]), np.intp)
    idx[0] = _COMMA + np.signbit(v)
    _put_int_words(idx[1:4], i.astype(np.int64))
    # a group drops its trailing zeros when every later group is zero
    idx[4] = g0 + np.where((lo == 0) & (g1 == 0), _POINT_TRAIL, _POINT)
    idx[5] = g1 + (lo == 0) * _TRAIL
    idx[6] = g2 + (g3 == 0) * _TRAIL
    idx[7] = g3 + _TRAIL
    words = _words()[idx.T]
    python = np.flatnonzero(~ok & (a != 0))
    if python.size:
        width = 4 * (_FLOAT_WORDS - 1)
        text = b"".join((b"%.12g" % x).ljust(width, b"\0") for x in v[python].tolist())
        words[python, 0] = _words()[_COMMA]
        words[python, 1:] = np.frombuffer(text, "<u4").reshape(-1, _FLOAT_WORDS - 1)
    return words


def ledger_text(tl: Timeline) -> Iterator[bytes]:
    """The ledger CSV: its header, then one chunk per LEDGER_BLOCK_ROWS rows."""
    # each cell starts with its separator, so each row starts with a newline
    cells = ((lambda v: _int_words(v, _NEWLINE), np.arange(1, len(tl) + 1)),
             (_KIND_WORDS.__getitem__, tl.kind),
             (_float_words, tl.rss), (_float_words, tl.rss_normalized),
             (_float_words, tl.inst_rate), (_float_words, tl.cum_rate),
             (_int_words, tl.status_id), (_int_words, tl.config_id),
             (_float_words, np.rad2deg(tl.theta2_true)))
    yield LEDGER_HEADER.encode()
    for start in range(0, len(tl), LEDGER_BLOCK_ROWS):
        block = np.concatenate([words(values[start:start + LEDGER_BLOCK_ROWS])
                                for words, values in cells], axis=1)
        yield block.tobytes().translate(None, b"\0")
    yield b"\n"
