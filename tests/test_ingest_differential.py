"""Differential test: the columnar parse loop against a per-row reference.

``reference_parse``, in ``reference.py``, is the row-at-a-time parser the
columnar loop in ``gnbdim.ingest`` replaced: it checks every field
itself, with no validator of the package, gives each kept row as a
plain tuple and names the first failing field, left to right. Over fuzzed
exports both must keep the same rows, field for field, and give the same
reject-reason histogram.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import struct
import tempfile
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnbdim import ingest
from gnbdim.ingest import (
    BAD_NUMERIC,
    BAD_RADIO,
    EXPECTED_HEADER,
    LTE_CELL_LIMIT,
    RADIOS,
    Cells,
    read_cells,
    write_cells,
)

from conftest import GOOD_ROW, HEADER, edited, parse_bytes
from reference import (
    csv_writer_cells,
    kept_and_reasons,
    read_outcome,
    reference_parse,
    reference_read_outcome,
)

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
    st.one_of(ints(0, 10**6), st.sampled_from(                         # samples
        [str(2**53 - 1), str(2**53), str(10**20), str(10**400)])),
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
    GOOD_ROW.split(","), edited(1, "31"), edited(1, "3100"), edited(2, "1"), edited(2, "001"),
    edited(2, "2600"), edited(3, "65535"), edited(3, "65536"),
])
def test_columnar_parse_matches_reference(rows):
    text = render(rows)
    assert kept_and_reasons(*parse_bytes(text.encode())) == reference_parse(text)


# --- the numpy block decoder -------------------------------------------------
#
# The reader makes each CR-LF pair and lone CR a newline. The parser splits a
# piece with no quote at its bytes' commas and newlines, and hands the first
# other piece, and every piece after it, to csv.reader; both splits go to the one
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
    lines = [HEADER]
    for row in draw(st.lists(unquoted_rows(), max_size=40)):
        lines += [""] * draw(st.sampled_from([0] * 6 + [1, 2]))
        lines.append(",".join(row))
    text = "".join(line + draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])) for line in lines)
    return text if draw(st.integers(0, 2)) else text.rstrip("\r\n")


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
    got = kept_and_reasons(*parse_in_pieces(text, read_size, csv_split=no_csv_split))
    assert got == reference_parse(io.StringIO(text, newline=""))


@settings(max_examples=300, deadline=None)
@given(number_texts(30), st.sampled_from(sorted(NUMBER_COLUMNS)), READ_SIZES)
def test_each_number_decodes_as_int_or_float_reads_it(number, column, read_size):
    """One number field in an otherwise valid row."""
    text = HEADER + "\n" + ",".join(edited(column, number)) + "\n"
    got = kept_and_reasons(*parse_in_pieces(text, read_size, csv_split=no_csv_split))
    assert got == reference_parse(text)


def test_only_a_block_with_a_quote_goes_to_the_row_loop():
    """The pieces before the first quote are byte split; from the piece
    that holds it to the end of the file, every row goes to csv.reader."""
    rows = [GOOD_ROW.split(","), edited(3, "70000"), edited(6, "far"), ["WIFI", "x"], []] * 3
    rows += [edited(5, '"a,b"'), GOOD_ROW.split(","), GOOD_ROW.split(",")]
    text = "\n".join(map(",".join, [EXPECTED_HEADER, *rows])) + "\n"
    csv_block = ingest._csv_block
    seen = []

    def csv_split(rows):
        seen.append(list(rows))
        return csv_block(seen[-1])

    got = kept_and_reasons(*parse_in_pieces(text, 300, csv_split=csv_split))
    # Read 300 bytes at a time, the file is cut into pieces of 3, 8, 6 and 2
    # lines; the third holds the one quoted field, in its last line. No row
    # of the first two reaches _csv_block, and every row of the last two does.
    assert len(seen) == 1
    assert [len(row) for row in seen[0]] == [14, 14, 14, 2, 0, 14, 14, 14]
    assert seen[0][5][5] == "a,b"
    assert got == reference_parse(text)


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


INT_READ = [edited(3, " 5"), edited(9, "+7"), edited(11, "1_000")]  # kept; int() reads them
GSM_WIDE_CELL = ["GSM", *edited(4, str(10**20))[1:]]  # rejected: past int64
LTE_WIDE_CELL = [edited(4, str(2**64))]  # rejected: past the LTE cell limit


@settings(max_examples=100, deadline=None)
@given(unquoted_exports() | quoted_exports(), READ_SIZES)
@example(render(INT_READ), 1024)
@example(render([GSM_WIDE_CELL]), 1024)
@example(render(LTE_WIDE_CELL), 1024)
# The same rows on csv.reader's route, from a piece that holds a quote.
@example(render([edited(5, "a,b"), *INT_READ, GSM_WIDE_CELL, *LTE_WIDE_CELL]), 1024)
def test_the_blocks_make_the_table(text, read_size):
    """The blocks ``_parse`` yields, on the byte splitter's route and on
    csv.reader's, are typed as Cells columns. Joined, they give the table
    and report of ``read_cells``."""
    data = text.encode()
    with tempfile.TemporaryDirectory() as tmp, patch.object(ingest, "READ_SIZE", read_size):
        path = Path(tmp) / "export.csv"
        path.write_bytes(data)
        cells, report = read_cells(path)
        blocks = list(ingest._parse(io.BytesIO(data)))
    for block, _ in blocks:
        for name, column in vars(block).items():
            assert column.dtype == ingest._DTYPES[name], name
    joined = Cells(**{
        name: np.concatenate([np.empty(0, dtype), *(vars(block)[name] for block, _ in blocks)])
        for name, dtype in ingest._DTYPES.items()
    })
    assert kept_and_reasons(joined, report) == kept_and_reasons(cells, report)
    assert sum((counts for _, counts in blocks), Counter()) == Counter(report.reject_reasons)


# --- the csv split -------------------------------------------------------------
#
# From the first piece with a quote on, csv.reader splits the file, and its
# rows of 14 fields are joined by commas into one buffer for the decoder.
# The fields then hold what the byte split never meets: commas, quotes, CRs
# and newlines.

def lines_of(rows: list[list[str]], quote: str = "") -> str:
    """Export lines of ``rows``, each field wrapped in ``quote``."""
    comma = f"{quote},{quote}"
    return "".join(quote + comma.join(row) + quote + "\n" for row in [EXPECTED_HEADER, *rows])


@pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "unquoted"])
def test_nul_in_radio_mcc_and_net_is_read_as_the_reference_reads_it(tmp_path, quote):
    """A text that ends in NUL is another spelling than the text without it."""
    rows = [GOOD_ROW.split(","), edited(0, "LTE\x00"), edited(0, "\x00LTE"), edited(1, "310\x00"),
            edited(2, "26\x00"), edited(2, "26"), edited(2, "260\x00"), edited(1, "\x00310")]
    path = tmp_path / "export.csv"
    path.write_bytes(lines_of(rows, quote).encode())
    got, want = read_outcome(path), reference_read_outcome(path)
    assert got == want
    assert want[1] == {BAD_RADIO: 2, BAD_NUMERIC: 4}


def test_a_comma_in_a_quoted_mcc_or_net_is_a_bad_plmn(tmp_path):
    rows = [GOOD_ROW.split(","), edited(1, "3,10"), edited(1, "310,"), edited(1, ",310"), edited(1, "31,0"),
            edited(2, "2,6"), edited(2, ",26"), edited(2, "26,"), edited(2, ",")]
    path = tmp_path / "export.csv"
    path.write_bytes(render(rows).encode())
    got, want = read_outcome(path), reference_read_outcome(path)
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
    lines = [HEADER]
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


@settings(max_examples=150, deadline=None)
@given(raw_exports(), st.integers(1, 64) | st.integers(65, 1024))
# A BOM split over pieces, a header ended by a lone CR, a quoted field of a
# 3-byte character and newlines run past a piece, no final newline.
@example(b"\xef\xbb\xbf" + ",".join(EXPECTED_HEADER).encode() + b"\r" + GOOD_ROW.encode()
         + b"\r\n" + ",".join(edited(5, '"\xe2\x82\xac\n\n"')).encode(), 2)
# A lone CR and a CR-LF pair between unquoted rows of one piece.
@example((HEADER + "\n" + "\r".join([GOOD_ROW] * 2) + "\r\n"
          + GOOD_ROW + "\n").encode(), 1024)
# A header whose first field is quoted across a line, read 3 bytes at a
# time: the header's csv row spans several pieces.
@example(b'"radio\n",' + ",".join(EXPECTED_HEADER[1:]).encode() + b"\n"
         + GOOD_ROW.encode() + b"\n", 3)
# An undecodable byte in a column the parser ignores.
@example((HEADER + "\n" + GOOD_ROW + "\n").encode()
         + ",".join(edited(5, "\udcff")).encode("utf-8", "surrogateescape") + b"\n", 64)
# A surrogate in lon, UTF-8-encoded (ED A0 80): strict UTF-8 rejects it, so
# no surrogate reaches the parser.
@example((HEADER + "\n").encode()
         + ",".join(edited(6, "-87.6\ud800")).encode("utf-8", "surrogatepass") + b"\n", 64)
# Quoted lon and averageSignal values that end in a CR-LF pair or a lone CR,
# each read as a newline, as whitespace that float() and strip() ignore. The
# read size ends a read between the CR and the LF of the pair: 6 reads of 21
# bytes end at lon's CR, 5 reads of 34 at averageSignal's.
@example((HEADER + "\n"
          + ",".join(edited(6, '"-87.6\r\n"')[:13] + ['"-95\r"']) + "\n").encode(), 21)
@example((HEADER + "\n"
          + ",".join(edited(6, '"-87.6\r"')[:13] + ['"-95\r\n"']) + "\n").encode(), 34)
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

BIG_INTS = st.one_of(
    st.integers(-2**63, 2**63 - 1),
    st.sampled_from([0, -2**63, 2**63 - 1]),
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
        area=np.array(column(BIG_INTS), dtype=np.int64),
        cell=np.array(column(BIG_INTS), dtype=np.int64),
        lon=np.array(column(EDGE_FLOATS), dtype=np.float64),
        lat=np.array(column(EDGE_FLOATS), dtype=np.float64),
        range_m=np.array(column(EDGE_FLOATS), dtype=np.float64),
        samples=np.array(column(BIG_INTS), dtype=np.int64),
        created=np.array(column(BIG_INTS), dtype=np.int64),
        updated=np.array(column(BIG_INTS), dtype=np.int64),
        avg_signal=np.array(column(st.one_of(st.just(math.nan), EDGE_FLOATS)), dtype=np.float64),
    )


@settings(max_examples=100, deadline=None)
@given(cells_tables(), st.integers(1, 9))
def test_write_cells_writes_the_bytes_csv_writer_wrote(records, block_lines):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with patch.object(ingest, "WRITE_LINES", block_lines):
            write_cells(got, records)
        csv_writer_cells(want, records)
        assert got.read_bytes() == want.read_bytes()


def column_texts(matrix: np.ndarray) -> list[str]:
    """The text of each column of one of the writer's byte matrices."""
    return [bytes(column[column > 0]).decode() for column in matrix.T]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def ulps_away(x: float, steps: int) -> float:
    """The double ``steps`` doubles above the positive ``x`` (below if negative)."""
    return from_bits(struct.unpack("<Q", struct.pack("<d", x))[0] + steps)


NEAR_POWERS_OF_TEN = st.builds(
    ulps_away, st.integers(-30, 30).map(lambda e: float(f"1e{e}")), st.integers(-40, 40)
)
REPR_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(from_bits).filter(math.isfinite),  # subnormals and both signs
    NEAR_POWERS_OF_TEN,
    st.builds(ulps_away, st.sampled_from([1e-4, 1e16]), st.integers(-10**6, 10**6)),
    st.floats(9e-5, 1.1e-4) | st.floats(9e15, 1.1e16),  # where repr's notation changes
    st.floats(-180, 180).map(lambda v: round(v, 7)),  # what exports hold
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(REPR_FLOATS | REPR_FLOATS.map(lambda v: -v), min_size=1, max_size=40))
@example([1e15, 1e14, 123456789012345.0, 0.1, 0.30000000000000004, 5e-324, 1.7976931348623157e308])
def test_float_text_is_float_repr(values):
    assert column_texts(ingest._float_text(np.array(values))) == list(map(float.__repr__, values))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40))
@example([-2**63, 2**63 - 1, 0, -1, 10, -10])
def test_int_text_is_str(values):
    texts = column_texts(ingest._int_text(np.array(values, dtype=np.int64)))
    assert texts == list(map(str, values))
