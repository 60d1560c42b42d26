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
import io
import math
import sys
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnbdim.errors import GnbdimError
from gnbdim.ingest import (
    BAD_COORDINATE,
    BAD_NUMERIC,
    BAD_RADIO,
    BAD_SHAPE,
    EXPECTED_HEADER,
    LTE_CELL_LIMIT,
    RADIOS,
    Radio,
    parse_csv,
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

    radio_text = row[0].strip()
    try:
        radio = Radio(radio_text)
    except ValueError:
        raise _RowError(BAD_RADIO, f"unknown radio {radio_text!r}") from None

    mcc = _parse_digits(row[1].strip(), "mcc", (3,))
    mnc = _parse_mnc(row[2])

    area = _parse_int(row[3].strip(), "area")
    if area > 0xFFFF:
        raise _RowError(BAD_NUMERIC, f"area: {area} exceeds 16-bit range")
    cell = _parse_int(row[4].strip(), "cell")
    if radio is Radio.LTE and cell >= LTE_CELL_LIMIT:
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

    return (radio.value, mcc + mnc, area, cell, lon, lat, range_m, samples, created,
            updated, avg_signal)


def reference_parse(text: str) -> tuple[list[Row], Counter]:
    """Row-at-a-time parse of an export with a valid header row."""
    records, reasons = [], Counter()
    reader = csv.reader(io.StringIO(text))
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
    st.sampled_from([r.value for r in Radio]),                         # radio
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
    cells, report = parse_csv(io.StringIO(text))

    rows = zip(
        [RADIOS[code].value for code in cells.radio], cells.plmn, cells.area, cells.cell,
        cells.lon.tolist(), cells.lat.tolist(), cells.range_m.tolist(), cells.samples,
        cells.created, cells.updated, cells.avg_signal.tolist(),
    )
    assert [repr(r) for r in rows] == [repr(r) for r in want_records]
    assert report.reject_reasons == dict(want_reasons)
    assert report.rows_kept == len(cells) == len(want_records)
    assert report.rows_read == len(want_records) + sum(want_reasons.values())
