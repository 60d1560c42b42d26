import csv
import gzip
import io
import math
import re
import sys
import threading
import time
import zlib
from collections import Counter
from contextlib import closing
from unittest.mock import patch

import numpy as np
import pytest

from gnbdim import ingest
from gnbdim.errors import GnbdimError
from gnbdim.ingest import (
    BAD_COORDINATE,
    BAD_NUMERIC,
    BAD_RADIO,
    BAD_SHAPE,
    EXPECTED_HEADER,
    RADIOS,
    IngestReport,
    filter_records,
    read_cells,
    write_cells,
)

from test_ingest_differential import cell_rows, edited, parse_bytes, reference_parse

HEADER = ",".join(EXPECTED_HEADER)

GOOD_ROW = "LTE,310,260,6699,12345678,,-87.6,41.8,1000,57,1,1600000000,1700000000,-95"

INT64_MAX = 2**63 - 1
# Kept: the largest int64 in each integer column whose own bound allows it
# (GSM has no cell bound), and the largest samples count, 2**53 - 1.
KEPT_EDGES = [
    ",".join(["GSM", *edited(4, str(INT64_MAX))[1:]]),
    ",".join(edited(9, str(2**53 - 1))),
    ",".join(edited(11, str(INT64_MAX))),
    ",".join(edited(12, str(INT64_MAX))),
]
# BadNumeric: one past int64 either way in area, cell, samples, created and
# updated, and 2**53 samples.
REJECTED_EDGES = [
    ",".join(["GSM", *edited(column, value)[1:]])
    for column in (3, 4, 9, 11, 12) for value in (str(2**63), str(-2**63 - 1))
] + [",".join(edited(9, str(2**53)))]


def parse_text(text: str):
    return parse_bytes(text.encode())


class TestParseCsv:
    def test_single_good_row(self):
        records, report = parse_text(HEADER + "\n" + GOOD_ROW + "\n")
        assert report.rows_read == 1
        assert report.rows_kept == 1
        assert len(records) == 1
        assert RADIOS[records.radio[0]] == "LTE"
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
        """A file of only a header gives a table of no rows whose columns
        have their dtypes, on the byte splitter's route and on csv.reader's,
        neither of which yields a block."""
        for header in (HEADER, '"radio"' + HEADER[5:]):
            blocks = list(ingest._parse(io.BytesIO((header + "\n").encode())))
            assert not blocks
            records, report = parse_text(header + "\n")
            assert len(records) == 0
            assert {name: column.dtype for name, column in vars(records).items()} == ingest._DTYPES
            assert report == IngestReport(
                rows_read=0, rows_kept=0, rows_rejected=0, reject_reasons={}
            )

    def test_latitude_out_of_bounds(self):
        row = GOOD_ROW.replace(",41.8,", ",95,")
        records, report = parse_text(HEADER + "\n" + row + "\n")
        assert len(records) == 0
        assert report.reject_reasons[BAD_COORDINATE] == 1

    def test_missing_header_is_fatal(self):
        with pytest.raises(GnbdimError, match="^input has no header row$"):
            parse_text("")
        with pytest.raises(GnbdimError, match="^header mismatch: expected radio,mcc,"):
            parse_text("radio,mcc\n")
        with pytest.raises(GnbdimError, match="^header mismatch: expected radio,mcc,"):
            parse_text(GOOD_ROW + "\n")
        for quote in ("", '"'):  # a blank first line, byte split or read by csv.reader
            with pytest.raises(GnbdimError, match="^header mismatch: expected radio,mcc,"):
                parse_text(f"\n{quote}radio{quote}" + HEADER[5:] + "\n")

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

    @pytest.mark.parametrize("unit", ["", '"a,b"'], ids=["byte-split", "csv-reader"])
    def test_integer_edges(self, unit):
        """Every integer column is int64: a value past it is BadNumeric, and
        so is a samples count of 2**53 or more. Alike on both routes: a
        quoted field in the first row sends the piece to csv.reader."""
        rows = [GOOD_ROW.replace(",,", f",{unit},", 1), *KEPT_EDGES, *REJECTED_EDGES]
        with patch.object(ingest, "_csv_block", wraps=ingest._csv_block) as csv_block:
            records, report = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
        assert csv_block.called == bool(unit)
        assert report.reject_reasons == {BAD_NUMERIC: 11}
        assert {vars(records)[name].dtype for name in ingest._INT_NAMES} == {np.dtype(np.int64)}
        assert records.cell.tolist()[1] == INT64_MAX
        assert records.samples.tolist()[2] == 2**53 - 1
        assert records.created.tolist()[3] == records.updated.tolist()[4] == INT64_MAX

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

    @pytest.mark.parametrize("mcc, net", [
        ("31", "260"), ("3100", "260"), ("3a0", "260"),  # MCC: 3 ASCII digits
        ("310", "2601"), ("310", "2a"),  # MNC: 2 or 3 ASCII digits
        ("٣١٠", "260"), ("310", "٢٦"), ("310", "٢"),  # Arabic-Indic digits
    ])
    def test_bad_plmn_is_bad_numeric(self, mcc, net):
        row = GOOD_ROW.replace(",310,260,", f",{mcc},{net},")
        records, report = parse_text(HEADER + "\n" + row + "\n")
        assert len(records) == 0
        assert report.reject_reasons == {BAD_NUMERIC: 1}

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

    def test_integer_edges_round_trip(self, tmp_path):
        """The largest int64 in cell, created and updated, and the largest
        samples count, are written to records.csv as read and read back as
        the same Cells."""
        path, out = tmp_path / "export.csv", tmp_path / "records.csv"
        path.write_text(HEADER + "\n" + "\n".join([GOOD_ROW, *KEPT_EDGES]) + "\n", encoding="utf-8")
        records, _ = read_cells(path)
        write_cells(out, records)
        back, report = read_cells(out)
        assert back == records
        assert report.rows_kept == 5
        assert records.cell.tolist() == [12345678, INT64_MAX, 12345678, 12345678, 12345678]
        assert records.samples.tolist() == [57, 57, 2**53 - 1, 57, 57]
        assert records.created.tolist() == [1600000000] * 3 + [INT64_MAX, 1600000000]
        assert records.updated.tolist() == [1700000000] * 4 + [INT64_MAX]
        assert out.read_text().count(str(INT64_MAX)) == 3

    def test_every_failure_names_the_path(self, tmp_path):
        missing = tmp_path / "absent.csv"
        headless = tmp_path / "headless.csv"
        headless.write_text(GOOD_ROW + "\n", encoding="utf-8")
        empty = tmp_path / "empty.csv.gz"
        empty.write_bytes(gzip.compress(b""))
        directory = tmp_path / "dir.csv"
        directory.mkdir()
        for path, text in [
            (missing, f"input file not found: {missing}"),
            (headless, f"{headless}: header mismatch: expected {HEADER}"),
            (empty, f"{empty}: input has no header row"),
            (directory, f"cannot read input {directory}: "),
        ]:
            with pytest.raises(GnbdimError, match="^" + re.escape(text)):
                read_cells(path)

    def test_a_header_with_a_quote_and_a_nul_is_not_taken_for_no_header(self, tmp_path):
        """csv.reader reads the header of a file whose first line holds a
        quote, NUL and all, and the error names the mismatch."""
        path = tmp_path / "nul.csv"
        path.write_text('"radio",mc\x00c' + HEADER[9:] + "\n" + GOOD_ROW + "\n", encoding="utf-8")
        text = f"{path}: header mismatch: expected {HEADER}"
        with pytest.raises(GnbdimError, match="^" + re.escape(text) + "$"):
            read_cells(path)


def csv_split_only():
    """Every block is split by csv.reader, as the pieces from the first
    with a quote on are."""

    def csv_split(raw):
        return ingest._csv_block(ingest._csv_rows(csv.reader(ingest._text_lines(raw)), sys.maxsize))

    return patch.object(ingest, "_split_block", csv_split)


def outcome(read, *args):
    """What a read returns, or the text of the error it raises."""
    try:
        return read(*args)
    except (GnbdimError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"


def kept_and_reasons(got):
    """A parse's kept rows, in the reference's layout, and reject reasons;
    or the text of its error."""
    if isinstance(got, str):
        return got
    cells, report = got
    return cell_rows(cells), report.reject_reasons


def reference_outcome(lines):
    """``reference_parse`` of ``lines`` as :func:`kept_and_reasons` gives it."""
    got = outcome(reference_parse, lines)
    if isinstance(got, str):
        return got
    records, reasons = got
    return [repr(r) for r in records], dict(reasons)


# 300 rows with a reject of each reason every five rows, about 28 kB, read
# in pieces of 4 kB.
BODY_ROWS = [
    GOOD_ROW, GOOD_ROW.replace(",57,", ",many,"), GOOD_ROW.replace("LTE,", "GSM,"),
    "junk", GOOD_ROW.replace(",41.8,", ",95,"), GOOD_ROW.replace("LTE,", "WIFI,"),
] * 50


def export_bytes(case: str) -> bytes:
    rows = list(BODY_ROWS)
    if case == "quoted":
        # Line 8, the last of the second block: its field runs on into line 9.
        rows[7] = rows[7].replace(",12345678,,", ',12345678,"two\nlines",')
    if case == "bad-byte":
        rows[290] = rows[290].replace("-87.6", "-87.\udcff")
    text = HEADER + "\n" + "\n".join(rows) + ("" if case == "no-final-newline" else "\n")
    if case == "crlf":
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8", "surrogateescape")
    return b"\xef\xbb\xbf" + data if case == "bom" else data


class TestBlockFiles:
    """Files at the byte splitter's edges, read in pieces of 4 kB, each a
    block: the same Cells and report as with csv.reader splitting every
    block, or the same error, and the kept rows and reasons of the reference
    parse."""

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("case", ["crlf", "bom", "no-final-newline", "quoted", "bad-byte"])
    def test_read_matches_the_row_loop(self, tmp_path, case, gz):
        data = export_bytes(case)
        path = tmp_path / ("export.csv.gz" if gz else "export.csv")
        path.write_bytes(gzip.compress(data) if gz else data)
        with patch.object(ingest, "READ_SIZE", 4096):
            got = outcome(read_cells, path)
            with csv_split_only():
                want = outcome(read_cells, path)
        assert got == want
        if case == "bad-byte":
            assert got.startswith(f"GnbdimError: cannot read input {path}: 'utf-8' codec")
        else:
            records, report = got
            assert report.rows_read == len(BODY_ROWS)
            assert report.reject_reasons == {
                BAD_NUMERIC: 50, BAD_SHAPE: 50, BAD_COORDINATE: 50, BAD_RADIO: 50
            }
            assert len(records) == 100
            assert kept_and_reasons(got) == reference_outcome(data.decode("utf-8-sig"))

    @pytest.mark.parametrize("read_size", [9, 1024])
    def test_blocks_of_lines_wider_than_a_piece(self, tmp_path, read_size):
        """Lines of 3 kB, and a quoted field of 1500 lines, read ``read_size``
        bytes at a time: a line or a quoted field spans many pieces."""
        wide = GOOD_ROW.replace(",12345678,,", ",12345678," + "u" * 3000 + ",")
        tall = GOOD_ROW.replace(",12345678,,", ',12345678,"' + "u\n" * 1500 + '",')
        data = (HEADER + "\n" + "\n".join([wide] * 20 + ["junk"] + [tall] * 3 + [wide]) + "\n").encode()
        path = tmp_path / "export.csv"
        path.write_bytes(data)
        with patch.object(ingest, "READ_SIZE", read_size):
            got = outcome(read_cells, path)
        assert kept_and_reasons(got) == reference_outcome(io.StringIO(data.decode(), newline=""))
        assert got[1].rows_kept == 24

    def test_a_line_past_the_csv_limit_after_a_quoted_field_is_read(self, tmp_path):
        """A quoted field of 900 lines opens in the first of two pieces and
        closes in the second, whose rest is a line wider than the field limit
        of 2000 set here: csv.reader reads both pieces with no field limit,
        and the caller's limit holds again after the read."""
        tall = GOOD_ROW.replace(",12345678,,", ',12345678,"' + "u\n" * 900 + '",')
        wide = GOOD_ROW.replace(",12345678,,", ",12345678," + "u" * 2500 + ",")
        data = (HEADER + "\n" + "\n".join([GOOD_ROW] * 30 + [tall, wide]) + "\n").encode()
        path = tmp_path / "export.csv"
        path.write_bytes(data)
        limit = csv.field_size_limit(2000)
        try:
            with patch.object(ingest, "READ_SIZE", 4000):
                first, second = filter(None, ingest._whole_lines(io.BytesIO(data).read))
                got = outcome(read_cells, path)
            assert csv.field_size_limit() == 2000
        finally:
            csv.field_size_limit(limit)
        assert first.count(b'"') == second.count(b'"') == 1
        assert second.endswith(b"\n" + wide.encode() + b"\n")
        assert kept_and_reasons(got) == reference_outcome(data.decode())
        assert got[1].rows_kept == 32

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    def test_a_crlf_export_with_a_wide_field_reads_as_its_lf_copy(self, tmp_path, gz):
        """An 8-line CRLF export with one 200000-character ``unit`` field,
        past csv.field_size_limit(), and its lone-CR copy: each CR-LF pair
        and each lone CR is a newline to the byte splitter, so either file
        gives the Cells and report of its LF copy."""
        rows = [GOOD_ROW] * 7
        rows[3] = GOOD_ROW.replace(",12345678,,", ",12345678," + "u" * 200_000 + ",")
        data = (HEADER + "\n" + "\n".join(rows) + "\n").encode()
        got = {}
        for name, end in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
            path = tmp_path / f"{name}.csv{'.gz' if gz else ''}"
            payload = data.replace(b"\n", end)
            path.write_bytes(gzip.compress(payload) if gz else payload)
            got[name] = read_cells(path)
        assert got["crlf"] == got["lf"]
        assert got["cr"] == got["lf"]
        records, report = got["lf"]
        assert report.rows_kept == len(records) == 7


def failing_export(case: str) -> bytes:
    """BODY_ROWS, about 28 kB, with the fault ``case`` names, if any."""
    rows, header = list(BODY_ROWS), HEADER
    if case == "header-mismatch":
        header = HEADER.replace(",lat,", ",latitude,")
    if case in ("bad-byte-last", "quoted-first"):
        rows[-1] = rows[-1].replace("-87.6", "-87.\udcff")
    if case == "quoted-first":
        rows[0] = rows[0].replace(",12345678,,", ',12345678,"u",')
    data = (header + "\n" + "\n".join(rows) + "\n").encode("utf-8", "surrogateescape")
    if not case.endswith("-gz"):
        return data
    data = bytearray(gzip.compress(data, mtime=0))
    if case == "truncated-gz":
        return bytes(data[:len(data) // 2])
    data[len(data) // 2] ^= 0xFF
    return bytes(data)


class TestReadAhead:
    """Pieces are read and decompressed on a thread ahead of the decoder.
    Read in pieces of 512 bytes, about 55 to a file, so several are in
    flight when a read fails: each failure raises the error a read on one
    thread raised, and no thread outlives read_cells."""

    @pytest.mark.parametrize("case, error", [
        ("truncated-gz", "Compressed file ended before the end-of-stream marker was reached"),
        ("corrupt-gz", "Error -3 while decompressing data: "),
        ("bad-byte-last", "'utf-8' codec can't decode byte 0xff in position 480: invalid start byte"),
        ("quoted-first", "'utf-8' codec can't decode byte 0xff in position 480: invalid start byte"),
        ("header-mismatch", None),
    ])
    def test_a_failed_read_raises_its_error_and_leaves_no_thread(self, tmp_path, case, error):
        path = tmp_path / ("export.csv.gz" if case.endswith("-gz") else "export.csv")
        path.write_bytes(failing_export(case))
        if case == "corrupt-gz":  # the inflate error's text depends on the zlib build
            with pytest.raises(zlib.error) as inflate, gzip.open(path) as fh:
                while fh.read(512):
                    pass
            assert str(inflate.value).startswith(error)
            error = str(inflate.value)
        text = f"cannot read input {path}: {error}" if error else (
            f"{path}: header mismatch: expected {HEADER}"
        )
        before = threading.enumerate()
        with patch.object(ingest, "READ_SIZE", 512), \
                pytest.raises(GnbdimError, match="^" + re.escape(text) + "$") as raised:
            read_cells(path)
        assert threading.enumerate() == before  # while ``raised`` holds the failed frames

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    def test_an_interrupt_in_the_decoder_stops_the_reader(self, tmp_path, gz):
        """An interrupt at the decoder's first, third or a late block, with the
        threads switched every microsecond, leaves no thread behind, and the
        next read of the file gives every row."""
        data = failing_export("plain")
        path = tmp_path / ("export.csv.gz" if gz else "export.csv")
        path.write_bytes(gzip.compress(data) if gz else data)
        split_block = ingest._split_block
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for stop_at in (1, 3, len(data) // 512):
                calls = []

                def interrupted(raw):
                    calls.append(raw)
                    if len(calls) == stop_at:
                        raise KeyboardInterrupt
                    return split_block(raw)

                before = threading.enumerate()
                with patch.object(ingest, "READ_SIZE", 512), \
                        patch.object(ingest, "_split_block", interrupted), \
                        pytest.raises(KeyboardInterrupt) as raised:
                    read_cells(path)
                assert threading.enumerate() == before  # while ``raised`` holds the failed frames
                assert len(calls) == stop_at
                with patch.object(ingest, "READ_SIZE", 512):
                    assert read_cells(path)[1].rows_read == len(BODY_ROWS)
        finally:
            sys.setswitchinterval(interval)

    def test_an_interrupt_while_a_block_is_joined_stops_the_reader(self, tmp_path):
        """An interrupt in read_cells after the parse yielded its first
        block, as the block's counts are summed, leaves no thread behind."""

        class Interrupting(Counter):
            def items(self):
                raise KeyboardInterrupt

        path = tmp_path / "export.csv"
        path.write_bytes(failing_export("plain"))
        split_block = ingest._split_block

        def interrupting(raw):
            return split_block(raw)[0], Interrupting()

        before = threading.enumerate()
        with patch.object(ingest, "READ_SIZE", 512), \
                patch.object(ingest, "_split_block", interrupting), \
                pytest.raises(KeyboardInterrupt) as raised:
            read_cells(path)
        assert threading.enumerate() == before  # while ``raised`` holds the failed frames

    @pytest.mark.parametrize("case", ["plain", "gz", "quoted-first"])
    def test_closing_the_parse_after_its_first_block_stops_the_reader(self, tmp_path, case):
        """The reader thread runs while the parse waits after its first
        block, read in pieces of 512 bytes or blocks of 16 csv rows, with
        the caller's csv field limit in force, and closing the parse there
        joins it, on either route."""
        data = failing_export("plain")
        if case == "quoted-first":
            data = data.replace(b",12345678,,", b',12345678,"u",', 1)
        path = tmp_path / ("export.csv.gz" if case == "gz" else "export.csv")
        path.write_bytes(gzip.compress(data) if case == "gz" else data)
        opener = gzip.open if case == "gz" else open
        before = threading.enumerate()
        limit = csv.field_size_limit(2000)
        try:
            with patch.object(ingest, "READ_SIZE", 512), patch.object(ingest, "BLOCK_LINES", 16), \
                    opener(path, "rb") as fh:
                blocks = ingest._parse(fh)
                cells, _ = next(blocks)
                assert len(threading.enumerate()) == len(before) + 1
                assert csv.field_size_limit() == 2000
                blocks.close()
            assert threading.enumerate() == before
            assert csv.field_size_limit() == 2000
        finally:
            csv.field_size_limit(limit)
        assert 0 < len(cells) < len(BODY_ROWS) // 3

    def test_the_parse_reads_at_most_one_piece_past_its_last_block(self):
        """Read 512 bytes at a time, each read is one piece and each piece
        one block: after each of the first blocks, given time to run ahead,
        the reader has read that block's piece and at most one more."""

        class Counted(io.BytesIO):
            reads = 0

            def read(self, size=-1):
                self.reads += 1
                return super().read(size)

        fh = Counted(failing_export("plain"))
        with patch.object(ingest, "READ_SIZE", 512), closing(ingest._parse(fh)) as blocks:
            for yielded in range(1, 5):
                next(blocks)
                time.sleep(0.05)
                assert fh.reads <= yielded + 1


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
        kept = filter_records(mixed, radio="LTE")
        assert [RADIOS[code] for code in kept.radio] == ["LTE"] * 3
        assert kept == mixed.take(np.array([True, False, True, True]))

    def test_plmn_filter(self, mixed):
        kept = filter_records(mixed, plmn="20801")
        assert len(kept) == 1
        assert kept.plmn[0] == "20801"

    def test_bbox_containment(self, mixed):
        kept = filter_records(mixed, bbox=(0.0, 0.0, 3.0, 3.0))
        assert len(kept) == 1
        assert kept.lon[0] == 2.0

    def test_bad_bbox(self, mixed):
        with pytest.raises(GnbdimError, match=r"bbox min exceeds max: \(1\.0, 0\.0, 0\.0, 3\.0\)"):
            filter_records(mixed, bbox=(1.0, 0.0, 0.0, 3.0))

    def test_idempotent(self, mixed):
        once = filter_records(mixed, radio="LTE", bbox=(-90.0, 40.0, -80.0, 45.0))
        twice = filter_records(once, radio="LTE", bbox=(-90.0, 40.0, -80.0, 45.0))
        assert once == twice
