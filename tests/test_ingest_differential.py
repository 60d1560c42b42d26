"""Differential test: the columnar parse loop against a per-row reference.

``reference_parse`` is the row-at-a-time parser the columnar loop in
``gnbdim.ingest`` replaced: it checks every field itself, with no
validator of the package, returns each kept row as a plain tuple and
names the first failing field, left to right. Over fuzzed exports both
must keep the same rows, field for field, and give the same
reject-reason histogram.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Iterable
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnbdim import ingest
from gnbdim.errors import GnbdimError
from gnbdim.ingest import (
    BAD_COORDINATE,
    BAD_NUMERIC,
    BAD_RADIO,
    BAD_SHAPE,
    EXPECTED_HEADER,
    LTE_CELL_LIMIT,
    RADIOS,
    Cells,
    int_column,
    read_cells,
    write_cells,
)

# A kept row: radio name, MCC+MNC, area, cell, lon, lat, range, samples,
# created, updated, averageSignal (NaN when absent).
Row = tuple[str, str, int, int, float, float, float, int, int, int, float]


class _RowError(GnbdimError):
    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason


def _parse_int(value: str, what: str, minimum: int = 0) -> int:
    try:
        n = int(value)
    except ValueError:
        raise _RowError(BAD_NUMERIC, f"{what}: not an integer: {value!r}") from None
    if n < minimum:
        raise _RowError(BAD_NUMERIC, f"{what}: {n} below {minimum}")
    return n


def _parse_float(value: str, what: str, reason: str = BAD_NUMERIC) -> float:
    try:
        x = float(value)
    except ValueError:
        raise _RowError(reason, f"{what}: not a number: {value!r}") from None
    if not math.isfinite(x):
        raise _RowError(reason, f"{what}: not finite: {value!r}")
    return x


def _parse_digits(text: str, what: str, lengths: tuple[int, ...]) -> str:
    if len(text) not in lengths:
        raise _RowError(BAD_NUMERIC, f"{what}: {text!r} is not {lengths} digits long")
    if not all("0" <= ch <= "9" for ch in text):
        raise _RowError(BAD_NUMERIC, f"{what}: {text!r} is not ASCII digits")
    return text


def _parse_mnc(value: str) -> str:
    text = value.strip()
    if len(text) == 1 and text.isdigit():
        text = "0" + text
    return _parse_digits(text, "net", (2, 3))


def _parse_row(row: list[str]) -> Row:
    if len(row) != len(EXPECTED_HEADER):
        raise _RowError(BAD_SHAPE, f"expected {len(EXPECTED_HEADER)} fields, got {len(row)}")

    radio = row[0].strip()
    if radio not in RADIOS:
        raise _RowError(BAD_RADIO, f"unknown radio {radio!r}")

    mcc = _parse_digits(row[1].strip(), "mcc", (3,))
    mnc = _parse_mnc(row[2])

    area = _parse_int(row[3].strip(), "area")
    if area > 0xFFFF:
        raise _RowError(BAD_NUMERIC, f"area: {area} exceeds 16-bit range")
    cell = _parse_int(row[4].strip(), "cell")
    if radio == "LTE" and cell >= LTE_CELL_LIMIT:
        raise _RowError(BAD_NUMERIC, f"cell: {cell} exceeds the 28-bit LTE cell identity")

    lon = _parse_float(row[6].strip(), "lon", BAD_COORDINATE)
    lat = _parse_float(row[7].strip(), "lat", BAD_COORDINATE)
    if not -180.0 <= lon <= 180.0:
        raise _RowError(BAD_COORDINATE, f"lon: {lon} outside [-180, 180]")
    if not -90.0 <= lat <= 90.0:
        raise _RowError(BAD_COORDINATE, f"lat: {lat} outside [-90, 90]")

    range_m = _parse_float(row[8].strip(), "range")
    if range_m < 0:
        raise _RowError(BAD_NUMERIC, f"range: {range_m} below 0")
    samples = _parse_int(row[9].strip(), "samples")
    if samples > sys.float_info.max:
        raise _RowError(BAD_NUMERIC, f"samples: {samples} beyond the float range")
    created = _parse_int(row[11].strip(), "created")
    updated = _parse_int(row[12].strip(), "updated")

    signal_text = row[13].strip()
    avg_signal = math.nan if signal_text == "" else _parse_float(signal_text, "averageSignal")

    return (radio, mcc + mnc, area, cell, lon, lat, range_m, samples, created,
            updated, avg_signal)


def reference_parse(text: str | Iterable[str]) -> tuple[list[Row], Counter]:
    """Row-at-a-time parse of an export, or of its lines, with a valid
    header row."""
    records, reasons = [], Counter()
    reader = csv.reader(io.StringIO(text) if isinstance(text, str) else text)
    next(reader)
    for row in reader:
        if not row:
            continue
        try:
            records.append(_parse_row(row))
        except _RowError as exc:
            reasons[exc.reason] += 1
    return records, reasons


# --- fuzzed exports ----------------------------------------------------------

SPACE = st.sampled_from(["", "", "", " ", "\t", "\u00a0", "\u2003", "\x85", "  "])
TEXT = st.sampled_from(["", "x", "1", "a,b", 'say "hi"', "two\nlines", "\r", "é"])


def ints(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


ODD_INTS = st.sampled_from([
    "+5", "-0", "1_000", "1__0", "_1", "٥", "١٢", "१२३", "５", "0x1F", "1e3",
    "5.0", "", " ", "nan", "abc", "-1", str(10**20), str(2**63), str(-(2**63)),
    str(LTE_CELL_LIMIT - 1), str(LTE_CELL_LIMIT), str(0xFFFF), str(0x10000),
])
ODD_FLOATS = st.sampled_from([
    "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e3", "1E-3", "+5", "1_0.5",
    "٣.٥", "-0", "-0.0", "0", "", " ", "abc", "1e400", "-1e400", "180.0000001",
    "-90", "90", "-180", "180", "0x1p3",
])
ODD_MCC = st.sampled_from(["", "31", "3100", "٣١٠", "31a", "+31", "3 1", "310"])
ODD_MNC = st.sampled_from(["", "1", "01", "001", "2600", "٥", "0٥", "a", "+1", "1 ", "²"])
ODD_RADIO = st.sampled_from(["lte", "Lte", "WIMAX", "", "LTE5", "5G", "L TE"])

VALID = [
    st.sampled_from(RADIOS),                                           # radio
    st.sampled_from(["310", "208", "001", "999"]),                     # mcc
    st.one_of(ints(0, 9), st.sampled_from(["01", "260", "026", "410"])),  # net
    ints(0, 0xFFFF),                                                   # area
    st.one_of(ints(0, 2**30), st.sampled_from(                         # cell
        [str(LTE_CELL_LIMIT - 1), str(LTE_CELL_LIMIT), str(10**20)])),
    TEXT,                                                              # unit
    st.floats(-180, 180).map(repr),                                    # lon
    st.floats(-90, 90).map(repr),                                      # lat
    st.one_of(st.floats(0, 1e6).map(repr), ints(0, 10**4)),            # range
    st.one_of(ints(0, 10**6), st.sampled_from([str(10**20), str(10**400)])),  # samples
    TEXT,                                                              # changeable
    ints(0, 2_000_000_000),                                            # created
    ints(0, 2_000_000_000),                                            # updated
    st.one_of(st.just(""), st.floats(-150, 0).map(repr), ints(-150, 0)),  # averageSignal
]
ODD = [
    ODD_RADIO, ODD_MCC, ODD_MNC, ODD_INTS, ODD_INTS, TEXT, ODD_FLOATS, ODD_FLOATS,
    ODD_FLOATS, ODD_INTS, TEXT, ODD_INTS, ODD_INTS,
    st.one_of(ODD_FLOATS, st.sampled_from(["   ", "\t"])),
]


@st.composite
def export_rows(draw):
    """A valid row with up to four fields padded, half of them also made odd."""
    row = [draw(field) for field in VALID]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(row) - 1))
        if draw(st.booleans()):
            row[i] = draw(ODD[i])
        row[i] = draw(SPACE) + row[i] + draw(SPACE)
    width = draw(st.sampled_from([14] * 8 + [13, 15]))
    return (row + ["extra"])[:width]


GOOD_ROW = ["LTE", "310", "260", "6699", "12345678", "", "-87.6", "41.8", "1000", "57", "1",
            "1600000000", "1700000000", "-95"]


def edited(i: int, value: str) -> list[str]:
    """GOOD_ROW with field ``i`` set to ``value``."""
    return GOOD_ROW[:i] + [value] + GOOD_ROW[i + 1:]


def render(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(EXPECTED_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.lists(export_rows(), max_size=12))
# Each identifier field at and one past its limits; the fuzz draws these rarely.
@example([
    GOOD_ROW, edited(1, "31"), edited(1, "3100"), edited(2, "1"), edited(2, "001"),
    edited(2, "2600"), edited(3, "65535"), edited(3, "65536"),
])
def test_columnar_parse_matches_reference(rows):
    text = render(rows)
    want_records, want_reasons = reference_parse(text)
    cells, report = parse_bytes(text.encode())

    assert cell_rows(cells) == [repr(r) for r in want_records]
    assert report.reject_reasons == dict(want_reasons)
    assert report.rows_kept == len(cells) == len(want_records)
    assert report.rows_read == len(want_records) + sum(want_reasons.values())


# --- the numpy block decoder -------------------------------------------------
#
# The parser splits a piece with no quote at its bytes' commas and
# line ends, each CR-LF pair and lone CR a newline, and hands the first other
# piece, and every piece after it, to csv.reader; both splits go to the one
# numpy decoder, ``_decode``, which makes a block of each.
# The exports below are written line by line with no csv quoting, so every
# piece reaches the decoder, and ``READ_SIZE`` is patched small so each
# export spans several pieces.

def number_texts(max_digits: int = 26):
    """Digit runs with an optional sign and point: every shape the decoder
    reads, and the shapes around it."""
    return st.one_of(
        st.builds(
            lambda sign, digits, point: sign + (
                digits if point is None else digits[:point] + "." + digits[point:]
            ),
            st.sampled_from(["", "", "-", "+"]),
            st.text("0123456789", max_size=max_digits),
            st.none() | st.integers(0, max_digits),
        ),
        st.text("0123456789.-+e _", max_size=max_digits),
    )


# Fields at the decoder's edges; none holds a quote, CR, comma or newline.
EDGE_NUMBERS = st.sampled_from([
    "123456789012345", "1234567890123456", "12345678901234567",        # 15-17 digits
    "0.123456789012345", "0.1234567890123456", "0.12345678901234567",
    "9007199254740992", "9007199254740993", "900719925474099.3",         # 2**53, 2**53 + 1
    "9007199254740.993", "41.83920384729384", "-87.59594560000001",
    "7.3785690282684228", "850466103.52879495",  # 17 digits: mantissa / 10**k rounds twice
    "0." + "0" * 21 + "1", "0." + "0" * 22 + "1", "." + "0" * 21 + "5",   # 22/23 fraction digits
    "." + "0" * 22 + "1", "." + "0" * 20 + "123",
    "-." + "0" * 21 + "5", "1" + "0" * 17, "9" * 18, "0" * 30 + "7",
    "-0", "-0.0", "0.0", ".5", "5.", "-.5", "+5", "-", ".", "-.", "--1", "1-", "1.2.3",
    "1_000", "1_0.5", " 5", "5 ", "\u00a05", "5\u00a0", "\t-3\t", "٣", "٣.٥", "５", "²",
    "1e3", "1E-3", "-1e400", "nan", "-nan", "inf", "Infinity", "0x10",
    str(2**63 - 1), str(2**63), str(10**19), str(10**20 - 1), "-" + str(2**63),
    str(LTE_CELL_LIMIT - 1), str(LTE_CELL_LIMIT), "65535", "65536", "180", "-180.0",
    "180.0000001", "90", "-90.00000000000001", "", " ",
])
PLAIN_TEXT = st.sampled_from(["", "x", "1", "é", " ", "x y", "nul\x00", "\x00"])
NUMBER_COLUMNS = {3, 4, 6, 7, 8, 9, 11, 12, 13}


@st.composite
def unquoted_rows(draw):
    """A row of fields for a line written with no quoting: valid fields,
    up to five of them replaced by edge or odd ones and padded."""
    row = [draw(field) for field in VALID]
    row[5] = row[10] = draw(PLAIN_TEXT)
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(row) - 1))
        if i in NUMBER_COLUMNS:
            row[i] = draw(st.one_of(EDGE_NUMBERS, number_texts()))
        else:
            row[i] = draw(ODD[i] if i not in (5, 10) else PLAIN_TEXT)
        if draw(st.integers(0, 3)) == 0:
            row[i] = draw(SPACE) + row[i] + draw(SPACE)
    width = draw(st.sampled_from([14] * 8 + [13, 15]))
    return (row + ["extra"])[:width]


@st.composite
def unquoted_exports(draw):
    """Export text with blank lines between rows, each line ended by LF,
    CR-LF or a lone CR, and maybe no final line end."""
    lines = [",".join(EXPECTED_HEADER)]
    for row in draw(st.lists(unquoted_rows(), max_size=40)):
        lines += [""] * draw(st.sampled_from([0] * 6 + [1, 2]))
        lines.append(",".join(row))
    text = "".join(line + draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])) for line in lines)
    return text if draw(st.integers(0, 2)) else text.rstrip("\r\n")


def cell_rows(cells) -> list[str]:
    """``repr`` of each kept row, in the reference's tuple layout: the
    columns' Python values, in field order, the radio by name."""
    radio, *columns = (column.tolist() for column in vars(cells).values())
    return [repr(row) for row in zip([RADIOS[code] for code in radio], *columns)]


def parse_bytes(data: bytes):
    """The parse ``read_cells`` makes of a file that holds ``data``."""
    return ingest._joined(ingest._parse(io.BytesIO(data)))


READ_SIZES = st.integers(1, 64) | st.integers(65, 1024)


def parse_in_pieces(text: str, read_size: int, csv_split):
    """The parse of ``text`` read ``read_size`` bytes at a time, with
    ``csv_split`` in place of ``_csv_block``, which decodes the rows
    csv.reader split."""
    with patch.object(ingest, "READ_SIZE", read_size), \
            patch.object(ingest, "_csv_block", csv_split):
        return parse_bytes(text.encode())


def no_csv_split(rows):
    raise AssertionError("a piece without a quote went to csv.reader")


@settings(max_examples=100, deadline=None)
@given(unquoted_exports(), READ_SIZES)
@example(
    "\n".join(map(",".join, [EXPECTED_HEADER, *(edited(i, value) for i, value in [
        (6, "-0"), (7, "-0.0"), (8, ".5"), (8, "5."), (9, "+5"), (3, "1_000"), (3, "1-"),
        (6, "4-1.5"), (13, " -95 "), (13, " "), (13, "\t"), (13, "\u00a0"), (13, "٣"),
        (12, "1e3"), (6, "nan"), (4, str(2**63)), (4, str(10**19)), (9, "9" * 20),
        (11, "-0"), (8, "0." + "0" * 21 + "1"), (8, "0." + "0" * 22 + "1"),
        (8, "." + "0" * 22 + "1"), (6, "41.83920384729384"), (7, "9.007199254740993"),
        (6, "7.3785690282684228"), (8, "850466103.52879495"),
        # Radio and "mcc,net" spellings over 8 bytes that share their first 8.
        (0, "LTE" + " " * 6), (0, "LTE" + " " * 5 + "x"),
    ])])) + "\n\n" + "\n".join(
        ",".join(edited(2, net)).replace("310,", " 310,", 1) for net in (" 260", " 261", " 26")
    ) + "\n",
    300,
)
def test_block_decoder_matches_reference(text, read_size):
    want_records, want_reasons = reference_parse(io.StringIO(text, newline=""))
    cells, report = parse_in_pieces(text, read_size, csv_split=no_csv_split)
    assert cell_rows(cells) == [repr(r) for r in want_records]
    assert report.reject_reasons == dict(want_reasons)
    assert report.rows_kept == len(cells) == len(want_records)
    assert report.rows_read == len(want_records) + sum(want_reasons.values())


@settings(max_examples=300, deadline=None)
@given(number_texts(30), st.sampled_from(sorted(NUMBER_COLUMNS)), READ_SIZES)
def test_each_number_decodes_as_int_or_float_reads_it(number, column, read_size):
    """One number field in an otherwise valid row."""
    text = ",".join(EXPECTED_HEADER) + "\n" + ",".join(edited(column, number)) + "\n"
    want_records, want_reasons = reference_parse(text)
    cells, report = parse_in_pieces(text, read_size, csv_split=no_csv_split)
    assert cell_rows(cells) == [repr(r) for r in want_records]
    assert report.reject_reasons == dict(want_reasons)


def test_only_a_block_with_a_quote_goes_to_the_row_loop():
    """The pieces before the first quote are byte split; from the piece
    that holds it to the end of the file, every row goes to csv.reader."""
    rows = [GOOD_ROW, edited(3, "70000"), edited(6, "far"), ["WIFI", "x"], []] * 3
    rows += [edited(5, '"a,b"'), GOOD_ROW, GOOD_ROW]
    text = "\n".join(map(",".join, [EXPECTED_HEADER, *rows])) + "\n"
    csv_block = ingest._csv_block
    seen = []

    def csv_split(rows):
        seen.append(list(rows))
        return csv_block(seen[-1])

    cells, report = parse_in_pieces(text, 300, csv_split=csv_split)
    # Read 300 bytes at a time, the file is cut into pieces of 3, 8, 6 and 2
    # lines; the third holds the one quoted field, in its last line. No row
    # of the first two reaches _csv_block, and every row of the last two does.
    assert len(seen) == 1
    assert [len(row) for row in seen[0]] == [14, 14, 14, 2, 0, 14, 14, 14]
    assert seen[0][5][5] == "a,b"
    want_records, want_reasons = reference_parse(text)
    assert cell_rows(cells) == [repr(r) for r in want_records]
    assert report.reject_reasons == dict(want_reasons)


QUOTED_FIELDS = st.sampled_from(['"a,b"', '"say ""hi"""', '"two\nlines"', '"cr\r\nlf"', '""'])


@st.composite
def quoted_exports(draw):
    """An unquoted export with a quote in one line: the header's first
    field quoted, or a row with a quoted ``unit`` put before a line or at
    the end."""
    lines = io.StringIO(draw(unquoted_exports()), newline="").readlines()
    at = draw(st.integers(0, len(lines)))
    if at == 0:
        lines[0] = '"radio"' + lines[0][len("radio"):]
    else:
        if not lines[at - 1].endswith(("\n", "\r")):
            lines[at - 1] += "\n"
        lines.insert(at, ",".join(edited(5, draw(QUOTED_FIELDS))) + "\n")
    return "".join(lines)


@settings(max_examples=100, deadline=None)
@given(unquoted_exports() | quoted_exports(), READ_SIZES)
def test_the_blocks_make_the_table(text, read_size):
    """The blocks ``_parse`` yields, on the byte splitter's route and on
    csv.reader's, are typed as Cells columns, and joined they give the
    table and report of ``read_cells``."""
    data = text.encode()
    with tempfile.TemporaryDirectory() as tmp, patch.object(ingest, "READ_SIZE", read_size):
        path = Path(tmp) / "export.csv"
        path.write_bytes(data)
        cells, report = read_cells(path)
        blocks = list(ingest._parse(io.BytesIO(data)))
    for block, _ in blocks:
        for name, column in vars(block).items():
            assert column.dtype == ingest._DTYPES[name] or (
                name in ingest._INT_NAMES and column.dtype == object
            ), name
    joined = Cells(**{
        name: np.concatenate([np.empty(0, dtype), *(vars(block)[name] for block, _ in blocks)])
        for name, dtype in ingest._DTYPES.items()
    })
    assert cell_rows(joined) == cell_rows(cells)
    rejects = sum((counts for _, counts in blocks), Counter())
    assert rejects == Counter(report.reject_reasons)
    assert report.rows_read == len(cells) + rejects.total()


# --- the csv split -------------------------------------------------------------
#
# From the first piece with a quote on, csv.reader splits the file, and its
# rows of 14 fields are joined by commas into one buffer for the decoder.
# The fields then hold what the byte split never meets: commas, quotes, CRs
# and newlines.

def parse_and_reference(lines: list[str]):
    """Kept rows and reject reasons of the parse of a file that holds
    ``lines`` and of ``reference_parse`` on them."""
    cells, report = parse_bytes("".join(lines).encode())
    rows, reasons = reference_parse(iter(lines))
    return (cell_rows(cells), report.reject_reasons), ([repr(r) for r in rows], dict(reasons))


def lines_of(rows: list[list[str]], quote: str = "") -> list[str]:
    """Export lines of ``rows``, each field wrapped in ``quote``."""
    comma = f"{quote},{quote}"
    return [quote + comma.join(row) + quote + "\n" for row in [EXPECTED_HEADER, *rows]]


@pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "unquoted"])
def test_nul_in_radio_mcc_and_net_is_read_as_the_reference_reads_it(quote):
    """A text that ends in NUL is another spelling than the text without it."""
    rows = [GOOD_ROW, edited(0, "LTE\x00"), edited(0, "\x00LTE"), edited(1, "310\x00"),
            edited(2, "26\x00"), edited(2, "26"), edited(2, "260\x00"), edited(1, "\x00310")]
    got, want = parse_and_reference(lines_of(rows, quote))
    assert got == want
    assert want[1] == {BAD_RADIO: 2, BAD_NUMERIC: 4}


def test_a_comma_in_a_quoted_mcc_or_net_is_a_bad_plmn():
    rows = [GOOD_ROW, edited(1, "3,10"), edited(1, "310,"), edited(1, ",310"), edited(1, "31,0"),
            edited(2, "2,6"), edited(2, ",26"), edited(2, "26,"), edited(2, ",")]
    got, want = parse_and_reference(render(rows).splitlines(keepends=True))
    assert got == want
    assert want[1] == {BAD_NUMERIC: 8}


# --- the byte reader -------------------------------------------------------------
#
# ``read_cells`` reads a file as bytes, ``READ_SIZE`` at a time, cuts it into
# pieces of whole lines, checks them as UTF-8 and parses each piece as a
# block. The reference is ``reference_parse`` over the same file opened in
# text mode. The read size is patched small, so piece edges fall inside
# multi-byte characters, CR-LF pairs, the BOM and quoted fields that hold
# newlines, or to a few hundred bytes, so a piece holds several lines.

RAW_TEXT = st.sampled_from([
    "", "x", "é", "€uro", "\U0001d11e", "a,b", 'say "hi"', "two\nlines", "two\r\nlines",
    "lone\rcr", "\n", "nul\x00", "\x00", "\ufeff",
])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
BAD_BYTES = st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"])


def csv_field(text: str) -> str:
    """``text`` as csv.writer's minimal quoting writes it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def raw_exports(draw) -> bytes:
    """Export bytes: rows with multi-byte, quoted and NUL texts, each line
    ended by LF, CR-LF or a lone CR, blank lines, maybe a BOM, no final
    line end or an undecodable byte."""
    lines = [",".join(EXPECTED_HEADER)]
    for row in draw(st.lists(export_rows(), max_size=12)):
        lines += [""] * draw(st.sampled_from([0] * 6 + [1]))
        for i in draw(st.lists(st.sampled_from([0, 5, 10, 13]), max_size=2)):
            if i < len(row):
                row[i] = draw(RAW_TEXT) if i in (5, 10) else row[i] + draw(RAW_TEXT)
        lines.append(",".join(map(csv_field, row)))
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(BAD_BYTES) + data[at:]
    return b"\xef\xbb\xbf" + data if draw(st.booleans()) else data


def read_outcome(path: Path):
    """Kept rows and reasons of ``read_cells``, or its error text."""
    try:
        cells, report = read_cells(path)
    except GnbdimError as exc:
        return str(exc)
    assert report.rows_kept == len(cells)
    return cell_rows(cells), report.reject_reasons


def reference_read_outcome(path: Path):
    """Kept rows and reasons of ``reference_parse`` over the file in text
    mode, or the error it raises."""
    opener = gzip.open if path.name.endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8-sig", newline="") as fh:
            records, reasons = reference_parse(fh)
    except UnicodeDecodeError as exc:
        return exc
    return [repr(r) for r in records], dict(reasons)


@settings(max_examples=150, deadline=None)
@given(raw_exports(), st.integers(1, 64) | st.integers(65, 1024))
# A BOM split over pieces, a header ended by a lone CR, a quoted field of a
# 3-byte character and newlines run past a piece, no final newline.
@example(b"\xef\xbb\xbf" + ",".join(EXPECTED_HEADER).encode() + b"\r" + ",".join(GOOD_ROW).encode()
         + b"\r\n" + ",".join(edited(5, '"\xe2\x82\xac\n\n"')).encode(), 2)
# A lone CR and a CR-LF pair between unquoted rows of one piece.
@example((",".join(EXPECTED_HEADER) + "\n" + "\r".join([",".join(GOOD_ROW)] * 2) + "\r\n"
          + ",".join(GOOD_ROW) + "\n").encode(), 1024)
# A header whose first field is quoted across a line, read 3 bytes at a
# time: the header's csv row spans several pieces.
@example(b'"radio\n",' + ",".join(EXPECTED_HEADER[1:]).encode() + b"\n"
         + ",".join(GOOD_ROW).encode() + b"\n", 3)
# An undecodable byte in a column the parser ignores.
@example((",".join(EXPECTED_HEADER) + "\n" + ",".join(GOOD_ROW) + "\n").encode()
         + ",".join(edited(5, "\udcff")).encode("utf-8", "surrogateescape") + b"\n", 64)
# A surrogate in lon, UTF-8-encoded (ED A0 80): strict UTF-8 rejects it, so
# no surrogate reaches the parser.
@example((",".join(EXPECTED_HEADER) + "\n").encode()
         + ",".join(edited(6, "-87.6\ud800")).encode("utf-8", "surrogatepass") + b"\n", 64)
def test_byte_reader_matches_text_mode_reference(data, read_size):
    with tempfile.TemporaryDirectory() as tmp:
        for path, payload in [
            (Path(tmp) / "export.csv", data),
            (Path(tmp) / "export.csv.gz", gzip.compress(data)),
        ]:
            path.write_bytes(payload)
            with patch.object(ingest, "READ_SIZE", read_size):
                got = read_outcome(path)
            want = reference_read_outcome(path)
            if isinstance(want, UnicodeDecodeError):
                assert got.startswith(f"cannot read input {path}: 'utf-8' codec ")
            else:
                assert got == want


# --- the records.csv writer --------------------------------------------------------

def csv_writer_cells(path: Path, records: Cells) -> None:
    """``write_cells`` as csv.writer wrote it, a row at a time."""
    rows = zip(*(column.tolist() for column in vars(records).values()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXPECTED_HEADER)
        writer.writerows(
            (RADIOS[code], plmn[:3], plmn[3:], area, cell, "", lon, lat, range_m,
             samples, "", created, updated, "" if signal != signal else signal)
            for code, plmn, area, cell, lon, lat, range_m, samples, created,
            updated, signal in rows
        )


BIG_INTS = st.one_of(
    st.integers(0, 2**70),
    st.sampled_from([0, 2**63 - 1, 2**63, 2**64 + 1, 10**30, 10**100]),
)
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        0.30000000000000004, 41.83920384729384, -87.59594560000001, 1e308,
        1.7976931348623157e308, 1e16, 1e-5, 123456789012345680.0,
    ]),
)


@st.composite
def cells_tables(draw) -> Cells:
    n = draw(st.integers(0, 20))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return Cells(
        radio=np.array(column(st.integers(0, len(RADIOS) - 1)), dtype=np.int8),
        plmn=np.array(column(st.text("0123456789", min_size=5, max_size=6)), dtype=object),
        area=int_column(column(BIG_INTS)),
        cell=int_column(column(BIG_INTS)),
        lon=np.array(column(EDGE_FLOATS), dtype=np.float64),
        lat=np.array(column(EDGE_FLOATS), dtype=np.float64),
        range_m=np.array(column(EDGE_FLOATS), dtype=np.float64),
        samples=int_column(column(BIG_INTS)),
        created=int_column(column(BIG_INTS)),
        updated=int_column(column(BIG_INTS)),
        avg_signal=np.array(column(st.one_of(st.just(math.nan), EDGE_FLOATS)), dtype=np.float64),
    )


@settings(max_examples=100, deadline=None)
@given(cells_tables(), st.integers(1, 9))
def test_write_cells_writes_the_bytes_csv_writer_wrote(records, block_lines):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with patch.object(ingest, "BLOCK_LINES", block_lines):
            write_cells(got, records)
        csv_writer_cells(want, records)
        assert got.read_bytes() == want.read_bytes()
