"""Crowdsourced cell-tower CSV ingestion.

The expected layout is the public cell-tower export format:

    radio,mcc,net,area,cell,unit,lon,lat,range,samples,changeable,created,updated,averageSignal

``unit`` and ``changeable`` are ignored. Crowdsourced rows are dirty by
nature, so a bad row is counted and skipped, never fatal. Only a missing
or garbled header aborts the ingest; no field is too long. Fields are
checked left to right in column order and the first failure decides the
reject reason.

A row's operator is its PLMN: the 3-digit MCC followed by the 2- or
3-digit MNC, kept as that digit string. Digits stay strings throughout:
"01" and "1" are distinct network codes, and an integer round-trip would
lose the leading zero. A single-digit ``net`` column is zero-padded to the
2-digit minimum MNC width (exports strip leading zeros); wider values are
kept verbatim.

Kept rows land in a columnar :class:`Cells` table of numpy arrays, one
per field, with no per-row object: ``radio`` int8, ``plmn`` object (the
digit strings), the decimals float64 and the integers int64. An integer
past int64 is a BadNumeric reject, and so is a ``samples`` count of 2**53
or more. It is the one representation of tower rows.

A file is read as bytes, :data:`READ_SIZE` at a time, in pieces of whole
lines, each checked as UTF-8 and each CR-LF pair and lone CR in it made a
newline; a leading BOM is left out, and an undecodable byte aborts the
read. So a line ends at a newline, a CR-LF pair or a lone CR, as text
mode with newline="" cuts it; inside a quoted field that changes only
whitespace at the end of a value, which every check ignores, or a field
that no check accepts. A second thread reads, inflates, cuts and checks
the next piece while the decoder works on this one, so one piece of
READ_SIZE and a line is held ahead; results and errors are as on one
thread. The header is the first csv row. Up to the first piece with a
quote, each piece splits at every comma and newline of its bytes, as
csv.reader splits it, with no limit on a line's length. From that piece
to the end of the file, one csv.reader splits the decoded lines, with
its field limit lifted only while it splits, and the fields of each
block of rows are joined by commas into one such buffer. Each non-empty
piece, or each block of csv rows, is decoded on its own into its kept
rows, as a :class:`Cells` with its final dtypes, and its reject counts;
those are concatenated into one table and one report.
Either way one decoder reads the fields column by column in numpy:
integers of up to 18 digits; decimals whose digits, point left out, form
an integer up to 2**53 with at most 22 of them after the point, whose
quotient by the exact power of ten is correctly rounded (Clinger, "How to
Read Floating Point Numbers Accurately", PLDI 1990) as float() is; and
radio and PLMN once per distinct spelling. Any other field goes through
int() or float() on its own text.
"""

from __future__ import annotations

import codecs
import csv
import gzip
import io
import struct
import sys
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import GnbdimError

EXPECTED_HEADER = (
    "radio", "mcc", "net", "area", "cell", "unit", "lon", "lat",
    "range", "samples", "changeable", "created", "updated", "averageSignal",
)

LTE_CELL_LIMIT = 1 << 28

# Reject reason keys, as they appear in the IngestReport histogram.
BAD_SHAPE = "BadShape"
BAD_RADIO = "BadRadio"
BAD_NUMERIC = "BadNumeric"
BAD_COORDINATE = "BadCoordinate"


# The radio technologies, by name; a radio's code in the Cells.radio column
# is its position here.
RADIOS = ("GSM", "UMTS", "LTE", "NR", "CDMA")
_RADIO_CODE = {radio: code for code, radio in enumerate(RADIOS)}
_LTE = _RADIO_CODE["LTE"]

_FLOAT_MAX = sys.float_info.max
_NAN = float("nan")


@dataclass(frozen=True, eq=False, repr=False)
class Cells:
    """Kept tower rows as numpy columns, in input order, typed as the module
    docstring says.

    ``radio`` holds each row's position in :data:`RADIOS`, ``plmn`` the
    MCC+MNC digit string (the MCC is always 3 digits), and ``avg_signal``
    NaN where the export left the field empty.
    """

    radio: np.ndarray
    plmn: np.ndarray
    area: np.ndarray
    cell: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    range_m: np.ndarray
    samples: np.ndarray
    created: np.ndarray
    updated: np.ndarray
    avg_signal: np.ndarray

    def __len__(self) -> int:
        return len(self.plmn)

    def __eq__(self, other: object) -> bool:
        """Column-wise equality; absent signals (NaN) compare equal."""
        if not isinstance(other, Cells):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f")
            for mine, theirs in zip(vars(self).values(), vars(other).values())
        )

    def __repr__(self) -> str:
        return f"Cells({len(self)} rows)"

    def take(self, keep: np.ndarray) -> Cells:
        """The rows where the boolean mask ``keep`` is true, in order."""
        return Cells(**{name: column[keep] for name, column in vars(self).items()})


@dataclass(frozen=True)
class IngestReport:
    rows_read: int
    rows_kept: int
    rows_rejected: int
    reject_reasons: dict[str, int]

    def to_dict(self) -> dict:
        """The report's fields, reject reasons sorted by name."""
        return {**vars(self), "reject_reasons": dict(sorted(self.reject_reasons.items()))}


def is_plmn(text: str) -> bool:
    """Whether ``text`` is a PLMN: 5 or 6 ASCII digits, the first 3 the MCC."""
    return len(text) in (5, 6) and text.isascii() and text.isdigit()


def _plmn_digits(mcc_text: str, net_text: str) -> str | None:
    """MCC+MNC digit string of a row's raw fields, None if either is invalid."""
    mcc = mcc_text.strip()
    mnc = net_text.strip()
    if len(mnc) == 1:
        mnc = "0" + mnc
    plmn = mcc + mnc
    return plmn if len(mcc) == 3 and is_plmn(plmn) else None


BLOCK_LINES = 1024  # rows _parse decodes from csv.reader at a time

_INTS = (3, 4, 9, 11, 12)  # area, cell, samples, created, updated
_DECIMALS = (6, 7, 8, 13)  # lon, lat, range, averageSignal
_MAX_WIDTH = 24  # widest number the decoder reads: "-." and 22 fraction digits
_PAD = _MAX_WIDTH  # bytes of padding before a decoder's buffer, so every window fits
_PLACES = np.arange(_MAX_WIDTH - 1, -1, -1, dtype=np.uint8)[:, None]
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_MANTISSA_MAX = 2**53
_SAMPLES_LIMIT = 2**53  # samples below it, where sums of counts are exact floats
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(8)], dtype=np.uint64)


# The dtype of each Cells column.
_DTYPES = dict(
    radio=np.int8, plmn=object, area=np.int64, cell=np.int64, lon=np.float64, lat=np.float64,
    range_m=np.float64, samples=np.int64, created=np.int64, updated=np.int64,
    avg_signal=np.float64,
)
_INT_NAMES = ("area", "cell", "samples", "created", "updated")  # the columns of _INTS
_EMPTY = Cells(**{name: np.empty(0, dtype) for name, dtype in _DTYPES.items()})


def _csv_block(rows: list[list[str]]) -> tuple[Cells, Counter]:
    """The block of csv rows: the fields of each row of 14 are joined by
    commas into one UTF-8 buffer for :func:`_decode`."""
    n_fields = len(EXPECTED_HEADER)
    fields, misshapen = [], 0
    for row in rows:
        if len(row) == n_fields:
            fields += row
        elif row:  # a blank line is not a data row
            misshapen += 1
    joined = ",".join(fields)
    length = map(len, fields) if joined.isascii() else (len(f.encode()) for f in fields)
    length = np.fromiter(length, dtype=np.intp, count=len(fields))
    raw = joined.encode()
    end = (np.cumsum(length + 1) + (_PAD - 1)).reshape(-1, n_fields).T
    start = end - length.reshape(-1, n_fields).T
    data = np.frombuffer(bytes(_PAD) + raw + bytes(8), dtype=np.uint8)
    return _decode(data, start, end, misshapen)


def _decode(
    data: np.ndarray, start: np.ndarray, end: np.ndarray, misshapen: int
) -> tuple[Cells, Counter]:
    """The kept rows of those whose 14 fields are the spans [start, end) of
    the UTF-8 buffer ``data``, row r's field c at ``[c, r]``, and the reject
    counts of them and of ``misshapen`` rows without 14 fields.

    Fields of the common shapes are decoded in numpy, every other field
    by int() or float() on its own text, and each row's reject reason is
    its first failed check, left to right.
    """
    n = start.shape[1]
    if not n:
        return _EMPTY, Counter({BAD_SHAPE: misshapen})
    texts, inverse = _spellings(data, start[0], end[0])
    code = np.array([_RADIO_CODE.get(t.strip(), -1) for t in texts], dtype=np.int8)[inverse]
    texts, inverse = _spellings(data, start[1], end[2])  # "mcc,net"
    # A comma in either field leaves one in the net part, which no PLMN holds.
    digits = [_plmn_digits(*t.split(",", 1)) for t in texts]
    plmn = np.array(digits, dtype=object)[inverse]
    plmn_ok = np.array([d is not None for d in digits])[inverse]

    numbers = list(_INTS + _DECIMALS)
    start, end = start[numbers].ravel(), end[numbers].ravel()
    mantissa, frac, neg, shaped, dotted = (
        a.reshape(len(numbers), n) for a in _numbers(data, start, end)
    )

    # Integer columns; a field int() reads within int64 is put in as read.
    n_ints = len(_INTS)
    ints = np.where(neg, -mantissa, mantissa)[:n_ints]
    parsed = shaped[:n_ints] & ~dotted[:n_ints]
    for c, r in zip(*np.nonzero(~parsed)):
        i = c * n + r
        try:
            value = int(_text(data, start[i], end[i]))
        except ValueError:
            continue
        if -(1 << 63) <= value < 1 << 63:
            parsed[c, r] = True
            ints[c, r] = value
    area, cell = ints[:2]
    radio_ok = code >= 0
    ids_ok = (
        radio_ok & plmn_ok & (parsed[:2] & (ints[:2] >= 0)).all(axis=0)
        & (area <= 0xFFFF) & ~((code == _LTE) & (cell >= LTE_CELL_LIMIT))
    )

    # Decimal columns: a mantissa up to 2**53 over 10**k with k <= 22 is
    # correctly rounded (Clinger's fast path), as float() is. An empty
    # averageSignal is absent.
    mantissa, frac, neg, shaped = (a[n_ints:] for a in (mantissa, frac, neg, shaped))
    fast = shaped & (mantissa <= _MANTISSA_MAX) & (frac < len(_POW10))
    decimals = mantissa / _POW10[np.where(fast, frac, 0)]
    decimals = np.where(neg, -decimals, decimals)
    absent = (end - start)[-n:] == 0
    fast[-1] |= absent
    decimals[-1, absent] = _NAN
    for c, r in zip(*np.nonzero(~fast)):
        i = (n_ints + c) * n + r
        field = _text(data, start[i], end[i])
        if c == len(_DECIMALS) - 1:  # averageSignal is stripped first
            field = field.strip()
            absent[r] = not field
        try:
            decimals[c, r] = float(field)
        except ValueError:
            decimals[c, r] = _NAN  # fails every check below, unless absent
    lon, lat, range_m, signal = decimals
    place_ok = (-180.0 <= lon) & (lon <= 180.0) & (-90.0 <= lat) & (lat <= 90.0)
    rest_ok = (
        (0.0 <= range_m) & (range_m <= _FLOAT_MAX) & (absent | np.isfinite(signal))
        & (parsed[2:] & (ints[2:] >= 0)).all(axis=0)
        & (ints[2] < _SAMPLES_LIMIT)
    )
    keep = place_ok & ids_ok & rest_ok
    rejects = Counter({
        BAD_SHAPE: misshapen,
        BAD_RADIO: int(np.count_nonzero(~radio_ok)),
        BAD_NUMERIC: int(np.count_nonzero(radio_ok & ~ids_ok | ids_ok & place_ok & ~rest_ok)),
        BAD_COORDINATE: int(np.count_nonzero(ids_ok & ~place_ok)),
    })

    columns = dict(radio=code, plmn=plmn, lon=lon, lat=lat, range_m=range_m, avg_signal=signal)
    columns.update(zip(_INT_NAMES, ints))
    return Cells(**{name: values[keep] for name, values in columns.items()}), rejects


def _text(data: np.ndarray, start: int, end: int) -> str:
    return data[start:end].tobytes().decode()


def _spellings(
    data: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """The distinct texts of the spans [start, end) of ``data``, and each
    span's index among them."""
    length = end - start
    # A span of up to 7 bytes is keyed by those bytes, the rest zeroed, and
    # by its length in the top byte, read as one integer: a text may hold
    # NUL bytes. A longer span gets a key of its own, with 8 in the top byte.
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    key = words[start] & _LOW_BYTES[np.minimum(length, 7)]
    key |= length.astype(np.uint64) << np.uint64(56)
    long = np.flatnonzero(length > 7)
    key[long] = long.astype(np.uint64) | np.uint64(8 << 56)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return [_text(data, start[i], end[i]) for i in first.tolist()], inverse.ravel()


def _numbers(data: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Decode each span [start, end) of ``data`` as ``-?[0-9]*.?[0-9]*``.

    Returns the digits, point left out, as one integer ``mantissa``; the
    count of digits after the point ``frac``; the sign ``neg``; whether
    the span has that shape with a digit and an exact mantissa below
    10**18 (``shaped``); and whether it holds a point (``dotted``).
    Spans are at most ``_MAX_WIDTH`` bytes wide, or not ``shaped``.
    """
    length = end - start
    width = -(-max(1, min(int(length.max()), _MAX_WIDTH)) // 4) * 4
    # Row p holds each span's byte at place width-1-p: right-aligned, so
    # the last byte is place 0, and one place is one contiguous row.
    windows = np.ndarray((len(data) - width + 1, width), np.uint8, data, strides=(1, 1))
    digit = windows[end - width].T.copy()
    digit -= ord("0")
    place = _PLACES[-width:]
    digit *= place < np.minimum(length, 255).astype(np.uint8)  # bytes left of a span read as 0
    is_digit = digit <= 9
    is_dot = digit == (ord(".") - ord("0")) % 256
    is_minus = digit == (ord("-") - ord("0")) % 256
    n_dots = is_dot.sum(axis=0, dtype=np.uint8)
    neg = data[start] == ord("-")  # an empty span starts at its delimiter
    shaped = (
        (length <= width) & (n_dots <= 1) & (length > n_dots + neg)
        & (is_minus.sum(axis=0, dtype=np.uint8) == neg)
        & (is_digit | is_dot | is_minus).all(axis=0)
    )
    dotted = n_dots > 0
    frac = (is_dot * place).sum(axis=0, dtype=np.uint8)  # the point's place
    # The mantissa's digits by place: the point and sign read as 0, and
    # each place from the point's up takes the digit one place above.
    digit *= is_digit
    above = np.zeros_like(digit)
    above[1:] = digit[:-1]
    np.copyto(digit, above, where=(place >= frac) & dotted)
    if width > 18:
        shaped &= ~digit[:width - 18].any(axis=0)  # no digit but 0 at 10**18 or above
    pairs = 10 * digit[0::2] + digit[1::2]
    quads = 100 * pairs[0::2].astype(np.uint16) + pairs[1::2]
    mantissa = quads[0].astype(np.int64)
    for quad in quads[1:]:
        mantissa *= 10_000
        mantissa += quad
    return mantissa, frac.astype(np.intp), neg, shaped, dotted


def _split_block(raw: bytes) -> tuple[Cells, Counter]:
    """The block of ``raw``, whole lines with no quote or CR (the last may
    lack its newline), split at every comma and newline of its bytes as
    csv.reader splits such lines."""
    if not raw.endswith(b"\n"):
        raw += b"\n"
    data = np.frombuffer(bytes(_PAD) + raw + bytes(8), dtype=np.uint8)
    delim = np.flatnonzero((data == ord("\n")) | (data == ord(",")))
    last = np.flatnonzero(data[delim] == ord("\n"))  # each line's end, as an index into delim
    n_fields = len(EXPECTED_HEADER)
    blank = np.diff(delim[last], prepend=_PAD - 1) == 1
    shaped = np.diff(last, prepend=-1) == n_fields
    # A row's field c lies between its delimiters c and c + 1, counting the
    # newline before the row, or a virtual one before the block, as its 0th.
    bounds = np.concatenate(([_PAD - 1], delim))
    around = bounds[last[shaped] + np.arange(1 - n_fields, 2)[:, None]]
    return _decode(data, around[:-1] + 1, around[1:], int(np.count_nonzero(~blank & ~shaped)))


def _text_lines(raw: bytes) -> list[str]:
    """The lines of ``raw``, whose line ends are newlines, as text, each
    cut after its newline."""
    return io.StringIO(raw.decode(), newline="").readlines()


READ_SIZE = 1 << 17  # bytes read at a time: a piece is at most this and one line
_LONG_MAX = (1 << 8 * struct.calcsize("l") - 1) - 1  # the largest csv.field_size_limit()


def _whole_lines(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """What ``read`` gives, in pieces cut after its last newline, or its
    last CR where it has no newline; the last piece may lack a line end."""
    head = []  # bytes read since the last cut
    while chunk := read(READ_SIZE):
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r") + 1
        if cut:
            yield b"".join([*head, chunk[:cut]])
            head.clear()
        head.append(chunk[cut:])
    yield b"".join(head)


def _checked(pieces: Iterator[bytes]) -> Iterator[bytes]:
    """``pieces`` of UTF-8 text, a leading BOM left out, each checked, and
    then each CR-LF pair and each lone CR in it made a newline: an
    undecodable byte raises UnicodeDecodeError. A piece ends at the end of
    a character, as a piece of whole lines does."""
    first = next(pieces).removeprefix(codecs.BOM_UTF8)
    for piece in chain((first,), pieces):
        if not piece.isascii():
            piece.decode("utf-8")
        if b"\r" in piece:
            piece = piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield piece


def _read_ahead(pieces: Iterator[bytes]) -> Iterator[bytes]:
    """``pieces``, the next one read on a worker thread while the caller
    works on this one, and the reader's exception where it meets one;
    ending or closing the generator joins the worker."""
    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(next, pieces, None)
        while (piece := ahead.result()) is not None:
            ahead = pool.submit(next, pieces, None)
            yield piece


def _csv_rows(reader: Iterator[list[str]], n: int) -> list[list[str]]:
    """The next ``n`` rows of ``reader``, split with no field limit, as the
    byte splitter has none; the caller's limit holds again on return."""
    limit = csv.field_size_limit(_LONG_MAX)
    try:
        return list(islice(reader, n))
    finally:
        csv.field_size_limit(limit)


def _parse(fh: BinaryIO) -> Iterator[tuple[Cells, Counter]]:
    """The blocks of tower records of the open binary file ``fh``: one per
    non-empty piece by the byte splitter up to the first piece with a
    quote, which csv.reader may split otherwise than at commas and
    newlines, and from that piece to the end of the file one per
    BLOCK_LINES rows of one csv.reader. The header is the first piece's
    first line, split at commas, or where that piece goes to csv.reader,
    the reader's first row. Closing the generator early joins the reader
    thread."""
    # glibc returns a freed heap top over twice the largest block it has
    # unmapped to the OS, so each block's decoder scratch would be faulted
    # in anew; unmapping one untouched 4 MiB block keeps it in the heap.
    np.empty(1 << 22, dtype=np.uint8)
    pieces = _read_ahead(_checked(_whole_lines(fh.read)))
    header, reader = None, iter(())
    try:
        for piece in pieces:
            if b'"' in piece:
                reader = csv.reader(chain.from_iterable(map(_text_lines, chain([piece], pieces))))
                break
            if header is None:
                line, _, rest = piece.partition(b"\n")  # an empty first piece is an empty file
                header = _checked_header([line.decode().split(",")] if piece else [])
                piece = rest
            if piece:
                yield _split_block(piece)
        if header is None:
            _checked_header(_csv_rows(reader, 1))
        while rows := _csv_rows(reader, BLOCK_LINES):
            yield _csv_block(rows)
    finally:
        pieces.close()  # before the caller closes fh


def _joined(blocks: Iterable[tuple[Cells, Counter]]) -> tuple[Cells, IngestReport]:
    """The rows of ``blocks`` as one table, and their report."""
    tables, rejects = [_EMPTY], Counter()
    for cells, counts in blocks:
        tables.append(cells)
        rejects += counts  # keeps the reasons with a reject
    table = Cells(**{name: np.concatenate([vars(t)[name] for t in tables]) for name in _DTYPES})
    kept, rejected = len(table), rejects.total()
    return table, IngestReport(kept + rejected, kept, rejected, dict(rejects))


def _checked_header(rows: list[list[str]]) -> list[list[str]]:
    """``rows``, a file's first csv row or none, if that row names the
    columns of EXPECTED_HEADER."""
    if not rows:
        raise GnbdimError("input has no header row")
    if tuple(h.strip() for h in rows[0]) != EXPECTED_HEADER:
        raise GnbdimError(f"header mismatch: expected {','.join(EXPECTED_HEADER)}")
    return rows


def read_cells(path: str | Path) -> tuple[Cells, IngestReport]:
    """Read a tower CSV file; names ending in .gz are decompressed.

    Every way the file can fail raises :class:`GnbdimError` naming ``path``.
    """
    opener = gzip.open if Path(path).name.endswith(".gz") else open
    try:
        with opener(path, "rb") as fh, closing(_parse(fh)) as blocks:  # closed before fh
            return _joined(blocks)
    except FileNotFoundError:
        raise GnbdimError(f"input file not found: {path}") from None
    except GnbdimError as exc:
        raise GnbdimError(f"{path}: {exc}") from None
    except (OSError, EOFError, UnicodeDecodeError, zlib.error, csv.Error) as exc:
        # Undecodable text, a corrupt or truncated .gz, a path that is not a
        # readable file, or a row csv.reader refuses.
        raise GnbdimError(f"cannot read input {path}: {exc}") from None


WRITE_LINES = 1 << 14  # rows write_cells formats at a time
_POW10_INT = 10 ** np.arange(20, dtype=np.uint64)
_RADIO_TEXT = np.array(RADIOS, "S").view(np.uint8).reshape(len(RADIOS), -1).T

# The writer's fields are byte matrices with a column per row, NUL where the
# field has no byte.


def _ascii(texts: list[str]) -> np.ndarray:
    return np.array(texts, "S").view(np.uint8).reshape(len(texts), -1).T


def _digits(values: np.ndarray, width: int, lead: bool) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 ``values`` as ``width`` ASCII digits, highest place first,
    NUL for the zeros before the first non-zero digit (``lead``) or after
    the last, but one; and each column's count of digits."""
    digits = np.empty((width, len(values)), np.uint8)
    for place in range(width - 1, -1, -1):
        quotient = values // 10
        digits[place] = values - quotient * 10
        values = quotient
    rank = np.arange(1, width + 1, dtype=np.uint8)[::-1 if lead else 1, None]
    count = np.maximum(((digits > 0) * rank).max(axis=0), 1)
    digits += ord("0")
    digits *= rank <= count
    return digits, count


def _signed(neg: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    digits, _ = _digits(magnitude, len(str(magnitude.max())), lead=True)
    return np.concatenate([(neg * np.uint8(ord("-")))[None], digits]) if neg.any() else digits


def _int_text(values: np.ndarray) -> np.ndarray:
    return _signed(values < 0, np.abs(values).view(np.uint64))  # -2**63 stays, read as 2**63


def _float_text(x: np.ndarray) -> np.ndarray:
    """float.__repr__ of each value of ``x``.

    A decimal of at most 15 significant digits survives the round trip
    through a double (DBL_DIG), so no other such decimal reads back as the
    same x: without its trailing zeros it is repr's shortest (Steele &
    White; Gay, 1990). Where x has one, it is m = rint(|x| * 10**k) over
    10**k, k the places that give m 15 digits, as |x| * 10**k is within a
    relative 2**-53 of m, under 0.23 from it; the decoder's Clinger
    division m / 10**k checks it. A value of 16 or 17 digits or in exponent
    notation, and 0, inf and NaN, go to float.__repr__.
    """
    a = np.abs(x)
    # repr's fixed notation; elsewhere 1.0, whose m checks against no x there
    safe = np.where((1e-4 <= a) & (a < 1e16), a, 1.0)
    k = 14 - np.floor(np.log10(safe)).astype(np.intp)  # places after the point
    up, down = _POW10[np.maximum(k, 0)], _POW10[np.maximum(-k, 0)]
    m = np.rint(safe * up / down)
    m = np.where((m < 1e15) & (m / up * down == a), m, 0).astype(np.uint64)
    places = np.maximum(k, 0)
    width = max(int(places.max()), 1)
    frac, count = _digits(m % _POW10_INT[places] * _POW10_INT[width - places], width, lead=False)
    whole = _signed(np.signbit(x), m // _POW10_INT[places] * _POW10_INT[places - k])
    text = np.concatenate([whole, np.full((1, len(x)), ord("."), np.uint8), frac[:count.max()]])
    if len(slow := np.flatnonzero(m == 0)):
        texts = _ascii(list(map(float.__repr__, x[slow].tolist())))
        text = np.pad(text, ((0, max(len(texts) - len(text), 0)), (0, 0)))
        text[:, slow] = 0
        text[:len(texts), slow] = texts
    return text


def _distinct_float_text(x: np.ndarray) -> np.ndarray:
    values, inverse = np.unique(x.view(np.int64), return_inverse=True)  # keeps -0.0 apart
    return _float_text(values.view(np.float64)).take(inverse, axis=1)


def _lines(radio, plmn, area, cell, lon, lat, range_m, samples, created, updated, signal) -> bytes:
    """The records.csv lines of a block: its fields, commas and line ends
    stacked, and read row by row with the NULs left out."""
    n = len(plmn)
    plmn = plmn.astype("S6").view(np.uint8).reshape(n, 6).T  # 5 or 6 digits
    signal_text = _distinct_float_text(signal)
    signal_text[:, np.isnan(signal)] = 0  # an absent signal is empty
    empty = np.empty((0, n), np.uint8)
    fields = (
        _RADIO_TEXT.take(radio, axis=1), plmn[:3], plmn[3:], _int_text(area), _int_text(cell),
        empty, _float_text(lon), _float_text(lat), _distinct_float_text(range_m),
        _int_text(samples), empty, _int_text(created), _int_text(updated), signal_text,
    )
    comma = np.full((1, n), ord(","), np.uint8)
    parts = [part for field in fields for part in (field, comma)]
    parts[-1] = np.broadcast_to(np.array([[ord("\r")], [ord("\n")]], np.uint8), (2, n))
    return np.concatenate(parts).T.tobytes().translate(None, b"\0")


def write_cells(path: str | Path, records: Cells) -> None:
    """Write records back out in the canonical 14-column layout, with the
    bytes csv.writer writes: floats by repr, so values round-trip exactly,
    and CR-LF line ends; no field needs quoting. :func:`_lines` formats
    WRITE_LINES rows at a time in numpy."""
    columns = vars(records).values()
    with open(path, "wb") as fh:
        fh.write(",".join(EXPECTED_HEADER).encode() + b"\r\n")
        for start in range(0, len(records), WRITE_LINES):
            fh.write(_lines(*(column[start:start + WRITE_LINES] for column in columns)))


Bbox = tuple[float, float, float, float]  # (min_lon, min_lat, max_lon, max_lat)


def filter_records(
    records: Cells,
    radio: str | None = None,
    plmn: str | None = None,
    bbox: Bbox | None = None,
) -> Cells:
    """Keep records matching every present predicate, in input order.

    ``radio`` is a name in :data:`RADIOS` and ``plmn`` an MCC+MNC digit
    string. When every row matches, the input table itself is returned.
    """
    keep = np.ones(len(records), dtype=bool)
    if bbox is not None:
        min_lon, min_lat, max_lon, max_lat = bbox
        if min_lon > max_lon or min_lat > max_lat:
            raise GnbdimError(f"bbox min exceeds max: {bbox}")
        keep &= (min_lon <= records.lon) & (records.lon <= max_lon)
        keep &= (min_lat <= records.lat) & (records.lat <= max_lat)
    if radio is not None:
        keep &= records.radio == _RADIO_CODE[radio]
    if plmn is not None:
        keep &= records.plmn == plmn
    return records if keep.all() else records.take(keep)
