"""Crowdsourced cell-tower CSV ingestion.

The expected layout is the public cell-tower export format:

    radio,mcc,net,area,cell,unit,lon,lat,range,samples,changeable,created,updated,averageSignal

``unit`` and ``changeable`` are ignored. Crowdsourced rows are dirty by
nature, so a bad row is counted and skipped, never fatal; only a missing
or garbled header aborts the ingest. Fields are checked left to right in
column order and the first failure decides the reject reason.

A single-digit ``net`` column is zero-padded to the 2-digit minimum MNC
width (exports strip leading zeros); wider values are kept verbatim.

Kept rows land in a columnar :class:`Cells` table, built in one pass over
the rows with no per-row object. It is the one representation of tower
rows.
"""

from __future__ import annotations

import csv
import functools
import gzip
import io
import sys
from array import array
from dataclasses import dataclass, fields
from enum import Enum
from itertools import compress
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import BadBboxError, GnbdimError, MissingHeaderError
from .identifiers import plmn_digits

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


class Radio(Enum):
    GSM = "GSM"
    UMTS = "UMTS"
    LTE = "LTE"
    NR = "NR"
    CDMA = "CDMA"


# A radio's code in the Cells.radio column is its position here.
RADIOS = tuple(Radio)
_RADIO_CODE = {radio.value: code for code, radio in enumerate(RADIOS)}
_LTE = _RADIO_CODE[Radio.LTE.value]

_FLOAT_MAX = sys.float_info.max
_NAN = float("nan")


@dataclass(frozen=True, eq=False, repr=False)
class Cells:
    """Kept tower rows as typed columns, in input order.

    ``radio`` holds each row's position in :data:`RADIOS`, ``plmn`` the
    MCC+MNC digit string (the MCC is always 3 digits), and ``avg_signal``
    NaN where the export left the field empty. Integer columns are Python
    ints, so values beyond 64 bits are kept exactly.
    """

    radio: np.ndarray  # int8
    plmn: list[str]
    area: list[int]
    cell: list[int]
    lon: np.ndarray  # float64
    lat: np.ndarray
    range_m: np.ndarray
    samples: list[int]
    created: list[int]
    updated: list[int]
    avg_signal: np.ndarray

    def __len__(self) -> int:
        return len(self.plmn)

    def __eq__(self, other: object) -> bool:
        """Column-wise equality; absent signals (NaN) compare equal."""
        if not isinstance(other, Cells):
            return NotImplemented
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if isinstance(mine, np.ndarray):
                same = np.array_equal(mine, theirs, equal_nan=True)
            else:
                same = mine == theirs
            if not same:
                return False
        return True

    def __repr__(self) -> str:
        return f"Cells({len(self)} rows)"

    def take(self, keep: np.ndarray) -> Cells:
        """The rows where the boolean mask ``keep`` is true, in order."""
        flags = keep.tolist()
        return Cells(
            radio=self.radio[keep],
            plmn=list(compress(self.plmn, flags)),
            area=list(compress(self.area, flags)),
            cell=list(compress(self.cell, flags)),
            lon=self.lon[keep],
            lat=self.lat[keep],
            range_m=self.range_m[keep],
            samples=list(compress(self.samples, flags)),
            created=list(compress(self.created, flags)),
            updated=list(compress(self.updated, flags)),
            avg_signal=self.avg_signal[keep],
        )


@dataclass(frozen=True)
class IngestReport:
    rows_read: int
    rows_kept: int
    rows_rejected: int
    reject_reasons: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "rows_rejected": self.rows_rejected,
            "reject_reasons": dict(sorted(self.reject_reasons.items())),
        }


# Exports repeat a handful of raw (mcc, net) spellings over many rows, so
# each distinct spelling is validated once.
@functools.lru_cache(maxsize=1 << 16)
def _plmn_digits(mcc_text: str, net_text: str) -> str | None:
    """MCC+MNC digit string of a row's raw fields, None if either is invalid."""
    mnc = net_text.strip()
    if len(mnc) == 1 and mnc.isdigit():
        mnc = "0" + mnc
    try:
        return plmn_digits(mcc_text.strip(), mnc)
    except GnbdimError:
        return None


def _as_text_stream(stream: IO | bytes) -> Iterable[str]:
    if isinstance(stream, (bytes, bytearray)):
        return io.StringIO(stream.decode("utf-8-sig"))
    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
        return io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
    return stream


def parse_csv(stream: IO | bytes) -> tuple[Cells, IngestReport]:
    """Parse tower records from a CSV stream; bad rows are counted, not fatal."""
    reader = csv.reader(_as_text_stream(stream))
    try:
        header = next(reader)
    except (StopIteration, csv.Error):
        raise MissingHeaderError("input has no header row") from None
    if tuple(h.strip() for h in header) != EXPECTED_HEADER:
        raise MissingHeaderError(
            f"header mismatch: expected {','.join(EXPECTED_HEADER)}"
        )

    radio, lon, lat, range_m, signal = (
        array("b"), array("d"), array("d"), array("d"), array("d")
    )
    plmn, area, cell, samples, created, updated = [], [], [], [], [], []
    rows_read = bad_shape = bad_radio = bad_numeric = bad_coordinate = 0
    n_fields = len(EXPECTED_HEADER)

    # int() and float() ignore the same surrounding whitespace as
    # str.strip(), so only the fields compared as text are stripped.
    for row in reader:
        if not row:
            continue  # blank line, not a data row
        rows_read += 1
        if len(row) != n_fields:
            bad_shape += 1
            continue
        code = _RADIO_CODE.get(row[0].strip())
        if code is None:
            bad_radio += 1
            continue
        digits = _plmn_digits(row[1], row[2])
        if digits is None:
            bad_numeric += 1
            continue
        try:
            tac = int(row[3])
            cid = int(row[4])
        except ValueError:
            bad_numeric += 1
            continue
        if not 0 <= tac <= 0xFFFF or cid < 0 or (code == _LTE and cid >= LTE_CELL_LIMIT):
            bad_numeric += 1
            continue
        try:
            x = float(row[6])
            y = float(row[7])
        except ValueError:
            bad_coordinate += 1
            continue
        # Chained compares are false for NaN, so they also reject non-finite values.
        if not (-180.0 <= x <= 180.0 and -90.0 <= y <= 90.0):
            bad_coordinate += 1
            continue
        signal_text = row[13].strip()
        try:
            rng = float(row[8])
            n = int(row[9])
            t_created = int(row[11])
            t_updated = int(row[12])
            sig = float(signal_text) if signal_text else _NAN
        except ValueError:
            bad_numeric += 1
            continue
        if (
            not 0.0 <= rng <= _FLOAT_MAX
            or not 0 <= n <= _FLOAT_MAX  # samples are binned as floats
            or t_created < 0 or t_updated < 0
            or (signal_text and not -_FLOAT_MAX <= sig <= _FLOAT_MAX)
        ):
            bad_numeric += 1
            continue
        radio.append(code)
        plmn.append(digits)
        area.append(tac)
        cell.append(cid)
        lon.append(x)
        lat.append(y)
        range_m.append(rng)
        samples.append(n)
        created.append(t_created)
        updated.append(t_updated)
        signal.append(sig)

    counts = {
        BAD_SHAPE: bad_shape,
        BAD_RADIO: bad_radio,
        BAD_NUMERIC: bad_numeric,
        BAD_COORDINATE: bad_coordinate,
    }
    reasons = {reason: n for reason, n in counts.items() if n}
    rejected = sum(reasons.values())
    report = IngestReport(
        rows_read=rows_read,
        rows_kept=rows_read - rejected,
        rows_rejected=rejected,
        reject_reasons=reasons,
    )
    cells = Cells(
        radio=np.frombuffer(radio, dtype=np.int8),
        plmn=plmn,
        area=area,
        cell=cell,
        lon=np.frombuffer(lon, dtype=np.float64),
        lat=np.frombuffer(lat, dtype=np.float64),
        range_m=np.frombuffer(range_m, dtype=np.float64),
        samples=samples,
        created=created,
        updated=updated,
        avg_signal=np.frombuffer(signal, dtype=np.float64),
    )
    return cells, report


def read_cells(path: str | Path) -> tuple[Cells, IngestReport]:
    """Read a tower CSV file; names ending in .gz are decompressed."""
    path = Path(path)
    if path.name.endswith(".gz"):
        with gzip.open(path, "rt", encoding="utf-8-sig", newline="") as fh:
            return parse_csv(fh)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return parse_csv(fh)


def write_cells(path: str | Path, records: Cells) -> None:
    """Write records back out in the canonical 14-column layout."""
    names = [radio.value for radio in RADIOS]
    rows = zip(
        records.radio.tolist(), records.plmn, records.area, records.cell,
        records.lon.tolist(), records.lat.tolist(), records.range_m.tolist(),
        records.samples, records.created, records.updated,
        records.avg_signal.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXPECTED_HEADER)
        # csv writes a float as its repr, so values round-trip exactly.
        writer.writerows(
            (names[code], plmn[:3], plmn[3:], area, cell, "", lon, lat, range_m,
             samples, "", created, updated, "" if signal != signal else signal)
            for code, plmn, area, cell, lon, lat, range_m, samples, created,
            updated, signal in rows
        )


Bbox = tuple[float, float, float, float]  # (min_lon, min_lat, max_lon, max_lat)


def filter_records(
    records: Cells,
    radio: Radio | None = None,
    plmn: str | None = None,
    bbox: Bbox | None = None,
) -> Cells:
    """Keep records matching every present predicate, in input order.

    ``plmn`` is an MCC+MNC digit string. When every row matches, the input
    table itself is returned.
    """
    keep = np.ones(len(records), dtype=bool)
    if bbox is not None:
        min_lon, min_lat, max_lon, max_lat = bbox
        if min_lon > max_lon or min_lat > max_lat:
            raise BadBboxError(f"bbox min exceeds max: {bbox}")
        keep &= (min_lon <= records.lon) & (records.lon <= max_lon)
        keep &= (min_lat <= records.lat) & (records.lat <= max_lat)
    if radio is not None:
        keep &= records.radio == _RADIO_CODE[radio.value]
    if plmn is not None:
        keep &= np.fromiter((p == plmn for p in records.plmn), dtype=bool, count=len(records))
    return records if keep.all() else records.take(keep)
