import gzip
import io
import math

import numpy as np
import pytest

from gnbdim.errors import BadBboxError, MissingHeaderError
from gnbdim.identifiers import parse_plmn
from gnbdim.ingest import (
    BAD_COORDINATE,
    BAD_NUMERIC,
    BAD_RADIO,
    BAD_SHAPE,
    EXPECTED_HEADER,
    RADIOS,
    Radio,
    filter_records,
    parse_csv,
    read_cells,
    write_cells,
)

HEADER = ",".join(EXPECTED_HEADER)

GOOD_ROW = "LTE,310,260,6699,12345678,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95"


def parse_text(text: str):
    return parse_csv(io.StringIO(text))


class TestParseCsv:
    def test_single_good_row(self):
        records, report = parse_text(HEADER + "\n" + GOOD_ROW + "\n")
        assert report.rows_read == 1
        assert report.rows_kept == 1
        assert len(records) == 1
        assert RADIOS[records.radio[0]] is Radio.LTE
        assert records.plmn[0] == "310260"
        assert records.area[0] == 6699
        assert records.cell[0] == 12345678
        assert records.lon[0] == -87.6
        assert records.lat[0] == 41.8
        assert records.range_m[0] == 1000.0
        assert records.samples[0] == 57
        assert records.created[0] == 1600000000
        assert records.updated[0] == 1700000000
        assert records.avg_signal[0] == -95.0

    def test_header_only(self):
        records, report = parse_text(HEADER + "\n")
        assert len(records) == 0
        assert report.rows_read == 0
        assert report.rows_kept == 0
        assert report.rows_rejected == 0

    def test_latitude_out_of_bounds(self):
        row = GOOD_ROW.replace(",41.8,", ",95,")
        records, report = parse_text(HEADER + "\n" + row + "\n")
        assert len(records) == 0
        assert report.reject_reasons[BAD_COORDINATE] == 1

    def test_missing_header_is_fatal(self):
        with pytest.raises(MissingHeaderError):
            parse_text("")
        with pytest.raises(MissingHeaderError):
            parse_text("radio,mcc\n")
        with pytest.raises(MissingHeaderError):
            parse_text(GOOD_ROW + "\n")

    def test_unknown_radio(self):
        records, report = parse_text(HEADER + "\nWIMAX" + GOOD_ROW[3:] + "\n")
        assert report.reject_reasons[BAD_RADIO] == 1

    def test_wrong_column_count(self):
        records, report = parse_text(HEADER + "\nLTE,310,260\n")
        assert report.reject_reasons[BAD_SHAPE] == 1

    def test_bad_numeric_fields(self):
        rows = [
            GOOD_ROW.replace(",57,", ",many,"),       # samples
            GOOD_ROW.replace(",6699,", ",notatac,"),  # area
            GOOD_ROW.replace(",1000,", ",-5,"),       # negative range
        ]
        records, report = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
        assert len(records) == 0
        assert report.reject_reasons[BAD_NUMERIC] == 3

    def test_lte_cell_identity_limit(self):
        over = 1 << 28
        bad = GOOD_ROW.replace(",12345678,", f",{over},")
        records, report = parse_text(HEADER + "\n" + bad + "\n")
        assert report.reject_reasons[BAD_NUMERIC] == 1
        # The same value is fine for a radio without the 28-bit layout.
        ok = bad.replace("LTE,", "GSM,")
        records, report = parse_text(HEADER + "\n" + ok + "\n")
        assert len(records) == 1

    def test_counts_always_sum(self):
        body = "\n".join(
            [
                GOOD_ROW,
                "garbage",
                GOOD_ROW.replace("LTE", "UMTS"),
                GOOD_ROW.replace(",41.8,", ",123,"),
                ",,,,,,,,,,,,,",
            ]
        )
        records, report = parse_text(HEADER + "\n" + body + "\n")
        assert report.rows_read == 5
        assert report.rows_kept + report.rows_rejected == report.rows_read
        assert report.rows_kept == len(records) == 2

    def test_absent_signal_is_none_and_zero_is_zero(self):
        none_row = GOOD_ROW.rsplit(",", 1)[0] + ","
        zero_row = GOOD_ROW.rsplit(",", 1)[0] + ",0"
        records, _ = parse_text(HEADER + "\n" + none_row + "\n" + zero_row + "\n")
        assert math.isnan(records.avg_signal[0])  # NaN is the absent signal
        assert records.avg_signal[1] == 0.0

    def test_single_digit_network_code_padded(self):
        row = GOOD_ROW.replace(",260,", ",1,")
        records, _ = parse_text(HEADER + "\n" + row + "\n")
        assert records.plmn[0][3:] == "01"

    def test_explicit_leading_zero_preserved(self):
        row = GOOD_ROW.replace(",260,", ",01,")
        records, _ = parse_text(HEADER + "\n" + row + "\n")
        assert records.plmn[0][3:] == "01"

    def test_deterministic(self):
        text = HEADER + "\n" + GOOD_ROW + "\njunk\n" + GOOD_ROW + "\n"
        first = parse_text(text)
        second = parse_text(text)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_accepts_bytes(self):
        records, report = parse_csv((HEADER + "\n" + GOOD_ROW + "\n").encode())
        assert len(records) == 1


class TestFiles:
    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "towers.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(HEADER + "\n" + GOOD_ROW + "\n")
        records, report = read_cells(path)
        assert len(records) == 1
        assert report.rows_kept == 1

    def test_write_then_read_is_identity(self, tmp_path):
        records, _ = parse_text(HEADER + "\n" + GOOD_ROW + "\n")
        path = tmp_path / "canonical.csv"
        write_cells(path, records)
        back, report = read_cells(path)
        assert back == records
        assert report.rows_rejected == 0


class TestCellsEquality:
    def test_equal_by_value_not_identity(self):
        text = HEADER + "\n" + GOOD_ROW + "\n" + GOOD_ROW.rsplit(",", 1)[0] + ",\n"
        first, _ = parse_text(text)
        second, _ = parse_text(text)
        assert first is not second
        assert first == second  # the absent signal is NaN in both
        assert first.take(np.ones(len(first), dtype=bool)) == first

    def test_one_differing_field_is_unequal(self):
        records, _ = parse_text(HEADER + "\n" + GOOD_ROW + "\n")
        for old, new in ((",41.8,", ",41.9,"), (",57,", ",58,"), (",-95", ",-96")):
            other, _ = parse_text(HEADER + "\n" + GOOD_ROW.replace(old, new) + "\n")
            assert other != records

    def test_not_equal_to_a_record_list(self):
        records, _ = parse_text(HEADER + "\n" + GOOD_ROW + "\n")
        assert records != list(zip(records.plmn, records.cell))  # per-row tuples


class TestFilterRecords:
    @pytest.fixture
    def mixed(self):
        rows = [
            GOOD_ROW,
            GOOD_ROW.replace("LTE", "GSM"),
            GOOD_ROW.replace(",310,260,", ",208,01,"),
            GOOD_ROW.replace("-87.6,41.8", "2,2"),
        ]
        records, _ = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
        assert len(records) == 4
        return records

    def test_no_predicates_is_identity(self, mixed):
        assert filter_records(mixed) == mixed

    def test_radio_filter_preserves_order(self, mixed):
        kept = filter_records(mixed, radio=Radio.LTE)
        assert [RADIOS[code] for code in kept.radio] == [Radio.LTE] * 3
        assert kept == mixed.take(np.array([True, False, True, True]))

    def test_plmn_filter(self, mixed):
        kept = filter_records(mixed, plmn=parse_plmn("20801"))
        assert len(kept) == 1
        assert kept.plmn[0] == "20801"

    def test_bbox_containment(self, mixed):
        kept = filter_records(mixed, bbox=(0.0, 0.0, 3.0, 3.0))
        assert len(kept) == 1
        assert kept.lon[0] == 2.0

    def test_bad_bbox(self, mixed):
        with pytest.raises(BadBboxError):
            filter_records(mixed, bbox=(1.0, 0.0, 0.0, 3.0))

    def test_idempotent(self, mixed):
        once = filter_records(mixed, radio=Radio.LTE, bbox=(-90.0, 40.0, -80.0, 45.0))
        twice = filter_records(once, radio=Radio.LTE, bbox=(-90.0, 40.0, -80.0, 45.0))
        assert once == twice
