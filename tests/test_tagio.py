"""Tag, scan, and histogram file formats."""

import contextlib
import dataclasses
import io
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import fiberxtalk as fx
from fiberxtalk import tagio
from fiberxtalk.cli import main
from fiberxtalk.errors import DataError, InputError, ResourceError, read_csv_columns

from conftest import power_for_mu_det, write_tags_csv


def small_stream():
    return fx.TagStream(
        channels=np.array([0, 1, 0, 1, 1], dtype=np.uint8),
        times_ps=np.array([0, 12345, 1_000_000_000, 1_000_012_345, 1_000_062_345], dtype=np.int64),
        metadata={"schema_version": 1, "seed": 7, "note": "unit test"},
    )


class TestXtt1:
    def test_round_trip(self, tmp_path):
        stream = small_stream()
        path = tmp_path / "tags.xtt1"
        tagio.write_tags_xtt1(path, stream)
        tagio.write_metadata(path, stream.metadata)
        back = tagio.read_tags_xtt1(path)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.times_ps, stream.times_ps)
        assert back.metadata["seed"] == 7

    def test_layout_is_stable(self, tmp_path):
        path = tmp_path / "tags.xtt1"
        tagio.write_tags_xtt1(path, dataclasses.replace(small_stream(), metadata={}))
        raw = path.read_bytes()
        assert raw[:8] == b"XTT1\x00\x00\x00\x01"
        assert (len(raw) - 8) % 9 == 0
        # first record: channel 0, time 0
        assert raw[8] == 0
        assert int.from_bytes(raw[9:17], "little") == 0
        # second record: channel 1, time 12345
        assert raw[17] == 1
        assert int.from_bytes(raw[18:26], "little") == 12345

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.xtt1"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 9)
        with pytest.raises(DataError, match="magic"):
            tagio.read_tags_xtt1(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "tags.xtt1"
        tagio.write_tags_xtt1(path, dataclasses.replace(small_stream(), metadata={}))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataError, match="truncated"):
            tagio.read_tags_xtt1(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            tagio.read_tags_xtt1(tmp_path / "absent.xtt1")

    @staticmethod
    def write_records(path, records):
        path.write_bytes(tagio.XTT1_MAGIC + np.array(records, dtype=[("channel", "u1"), ("time_ps", "<u8")]).tobytes())

    @pytest.mark.parametrize("channel, time_ps, message", [
        (2, 5, "channel values must be 0 (trigger) or 1 (detector)"),
        (255, 5, "channel values must be 0 (trigger) or 1 (detector)"),
        (0, 2**63, "timestamp overflows the signed 64-bit range"),
        (1, 2**64 - 1, "timestamp overflows the signed 64-bit range"),
        (7, 2**63, "timestamp overflows the signed 64-bit range"),  # the time is checked first
    ])
    def test_out_of_range_record_rejected(self, tmp_path, channel, time_ps, message):
        path = tmp_path / "tags.xtt1"
        self.write_records(path, [(0, 0), (channel, time_ps), (1, 10)])
        with pytest.raises(DataError) as excinfo:
            tagio.read_tags_xtt1(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_largest_time_accepted(self, tmp_path):
        path = tmp_path / "tags.xtt1"
        self.write_records(path, [(0, 0), (1, 2**63 - 1)])
        stream = tagio.read_tags_xtt1(path)
        assert stream.channels.tolist() == [0, 1]
        assert stream.times_ps.tolist() == [0, 2**63 - 1]

    def test_empty_body(self, tmp_path):
        path = tmp_path / "tags.xtt1"
        self.write_records(path, [])
        assert tagio.read_tags_xtt1(path).n_records == 0

    @pytest.mark.parametrize("block, n", [(4, 8), (4, 9), (4, 1), (1 << 16, 2 << 16), (1 << 16, (2 << 16) + 1)],
                             ids=["2-blocks", "2-blocks+1", "1-record", "2-default-blocks", "2-default-blocks+1"])
    def test_block_edges_round_trip(self, tmp_path, monkeypatch, block, n):
        monkeypatch.setattr(tagio, "XTT1_BLOCK_RECORDS", block)
        rng = np.random.default_rng(n)
        stream = fx.TagStream(channels=rng.integers(0, 2, n).astype(np.uint8),
                              times_ps=rng.integers(0, 2**63, n, dtype=np.int64))
        back = tagio.read_tags_xtt1(tagio.write_tags_xtt1(tmp_path / "tags.xtt1", stream))
        assert back.channels.dtype == np.uint8 and back.times_ps.dtype == np.int64
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.times_ps, stream.times_ps)

    @pytest.mark.parametrize("channel, time_ps, message", [
        (2, 5, "channel values must be 0 (trigger) or 1 (detector)"),
        (1, 2**63, "timestamp overflows the signed 64-bit range"),
    ])
    def test_fault_in_the_last_block_rejected(self, tmp_path, monkeypatch, channel, time_ps, message):
        monkeypatch.setattr(tagio, "XTT1_BLOCK_RECORDS", 4)
        path = tmp_path / "tags.xtt1"
        self.write_records(path, [(0, 10 * i) for i in range(8)] + [(channel, time_ps)])
        with pytest.raises(DataError) as excinfo:
            tagio.read_tags_xtt1(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_short_block_read_rejected(self, tmp_path, monkeypatch):
        # a file cut short after its size was taken: no record may come out unread
        path = tmp_path / "tags.xtt1"
        self.write_records(path, [(0, 10 * i) for i in range(9)])
        monkeypatch.setattr(tagio, "XTT1_BLOCK_RECORDS", 4)
        fromfile = np.fromfile
        monkeypatch.setattr(np, "fromfile", lambda fh, dtype, count: fromfile(fh, dtype, count=count - 1))
        with pytest.raises(DataError, match="file shrank while it was read"):
            tagio.read_tags_xtt1(path)

    def test_record_count_above_the_cap_exits_5(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(tagio, "DEFAULT_MAX_TAGS", 4)
        path = tmp_path / "tags.xtt1"
        self.write_records(path, [(0, 0), (1, 5), (0, 10), (1, 15)])
        assert tagio.read_tags_xtt1(path).n_records == 4
        self.write_records(path, [(0, 0), (1, 5), (0, 10), (1, 15), (0, 20)])
        with pytest.raises(ResourceError, match="5 records exceed the cap of 4 tags"):
            tagio.read_tags_xtt1(path)
        code = main(["analyze", "--tags", str(path), "--topology", str(tmp_path / "topo.json"),
                     "--out", str(tmp_path / "report.json")])
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "E_RESOURCE"


class TestCsv:
    def test_round_trip(self, tmp_path):
        stream = small_stream()
        path = tmp_path / "tags.csv"
        write_tags_csv(path, stream)
        back = tagio.read_tags_csv(path)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.times_ps, stream.times_ps)

    @pytest.mark.parametrize("block", [1 << 16, 5])
    @pytest.mark.parametrize("end", [b"\n", b""], ids=["final-newline", "no-final-newline"])
    def test_row_count_above_the_cap_exits_5_before_the_parse(self, tmp_path, monkeypatch, capsys, block, end):
        # a file above 4 bytes a row of the cap has its lines counted; np.loadtxt never sees one over the cap
        monkeypatch.setattr(tagio, "DEFAULT_MAX_TAGS", 4)
        monkeypatch.setattr(tagio, "CSV_COUNT_BLOCK_BYTES", block)
        rows = [b"0,0", b"1,5", b"0,10", b"1,15", b"0,20"]
        path = tmp_path / "tags.csv"
        path.write_bytes(b"\n".join([b"channel,time_ps", *rows]) + end)
        loadtxt = np.loadtxt

        def no_parse(*args, **kwargs):
            raise AssertionError("np.loadtxt called on a file over the cap")

        monkeypatch.setattr(np, "loadtxt", no_parse)
        with pytest.raises(ResourceError, match="more rows than the cap of 4 tags"):
            tagio.read_tags_csv(path)
        code = main(["analyze", "--tags", str(path), "--topology", str(tmp_path / "topo.json"),
                     "--out", str(tmp_path / "report.json")])
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0]) == {
            "error": "E_RESOURCE", "message": f"{path}: more rows than the cap of 4 tags"}
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        path.write_bytes(b"\n".join([b"channel,time_ps", *rows[:4]]) + b"\n")
        assert tagio.read_tags_csv(path).n_records == 4

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("time,chan\n0,0\n")
        with pytest.raises(DataError, match="header"):
            tagio.read_tags_csv(path)

    # Inputs the CSV reader has always accepted, with the arrays it returns.
    @pytest.mark.parametrize("text, channels, times", [
        (b"channel,time_ps\n0,5\n\n1,7\n\n", [0, 1], [5, 7]),
        (b"channel,time_ps\r\n0,5\r\n1,7\r\n", [0, 1], [5, 7]),
        (b'"channel","time_ps"\n"0","5"\n1,"7"\n', [0, 1], [5, 7]),
        (b" channel , time_ps \n 0 , 5 \n\t1,7 \n", [0, 1], [5, 7]),
        (b"channel,time_ps\n0,5,x\n1,7,3,\n", [0, 1], [5, 7]),
        (b"channel,time_ps\n", [], []),
        (b"channel,time_ps", [], []),
        (b"channel,time_ps\n0,+5\n1,9223372036854775807\n", [0, 1], [5, 2**63 - 1]),
        (b"channel,time_ps\n-0,5\n+1,7\n", [0, 1], [5, 7]),
        # numpy strips any Unicode whitespace around a field, a no-break and an ideographic space included
        ("channel,time_ps\n\u00a00,5\u3000\n1,\u30007\u00a0\n".encode(), [0, 1], [5, 7]),
    ], ids=["blank-lines", "crlf", "quoted", "spaces", "extra-columns", "header-only",
            "header-only-no-newline", "int64-max", "signed-channels", "unicode-spaces"])
    def test_accepted_forms(self, tmp_path, text, channels, times):
        path = tmp_path / "tags.csv"
        path.write_bytes(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file reads as empty without a warning
            stream = tagio.read_tags_csv(path)
        assert stream.channels.dtype == np.uint8 and stream.times_ps.dtype == np.int64
        assert stream.channels.tolist() == channels
        assert stream.times_ps.tolist() == times

    @pytest.mark.parametrize("body, message", [
        (b"0\n", "column"),
        (b"0,1.5\n", "1.5"),
        (b"# a comment\n0,1\n", "#"),
        (b"0,nan\n", "nan"),
        (b"0,1\n   \n", "data row 2"),
        (b"0,1\xff\n", "decode"),
        (b"0,5_0\n", "5_0"),
        (b"0,1\n2,3\n", "data row 2: channel must be 0 or 1, got 2"),
        (b"0,1\n-1,3\n", "data row 2: channel must be 0 or 1, got -1"),
        # a channel is parsed as int8, so one outside it no longer reaches the 0-or-1 check
        (b"0,1\n300,3\n", "not a readable CSV file: data row 2: could not convert string '300' to int8 at column 1$"),
        (b"0,1\n1,-4\n", "data row 2: time must be >= 0 ps, got -4"),
        (b"0,9223372036854775808\n", "9223372036854775808"),
        (b"0,100000000000000000000000\n", "100000000000000000000000"),
    ], ids=["missing-column", "float", "comment", "nan", "whitespace-line", "bad-utf8", "underscore",
            "channel-2", "channel-minus-1", "channel-300", "negative-time", "int64-overflow", "1e23"])
    def test_rejected_forms_exit_3(self, tmp_path, body, message):
        path = tmp_path / "tags.csv"
        path.write_bytes(b"channel,time_ps\n" + body)
        with pytest.raises(DataError, match=message):
            tagio.read_tags_csv(path)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["analyze", "--tags", str(path), "--topology", str(tmp_path / "topo.json"),
                         "--out", str(tmp_path / "report.json")])
        assert code == 3
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "E_DATA"

    @pytest.mark.parametrize("body, row", [
        (b"0,x\n", 1),
        (b"0,1\n1,2\n0,x\n", 3),
        (b"\n\n0,x\n", 1),
        (b"0\n", 1),
        (b"0,1\n1,2\n0\n", 3),
        (b"\n\n0\n", 1),
        (b"\n\n2,1\n", 1),
    ], ids=["field-first", "field-third", "field-after-blanks", "short-first", "short-third", "short-after-blanks",
            "channel-after-blanks"])
    def test_faults_name_the_data_row(self, tmp_path, body, row):
        path = tmp_path / "tags.csv"
        path.write_bytes(b"channel,time_ps\n" + body)
        with pytest.raises(DataError, match=rf": data row {row}: "):
            tagio.read_tags_csv(path)

    def test_same_stream_as_xtt1(self, tmp_path, three_point_topology):
        source = fx.PulsedSource(avg_power_w=power_for_mu_det(0.2, -100.0), rep_rate_hz=1000.0)
        stream = fx.simulate_otdr_tags(three_point_topology, source, fx.Detector(), 2.0, seed=5)
        path = tagio.write_tags_xtt1(tmp_path / "tags.xtt1", stream)
        tagio.write_metadata(path, stream.metadata)
        xtt = tagio.read_tags_xtt1(path)
        csv = tagio.read_tags_csv(write_tags_csv(tmp_path / "tags.csv", stream))
        for back in (xtt, csv):
            assert back.channels.dtype == np.uint8 and back.times_ps.dtype == np.int64
        assert stream.n_records > 2000
        assert np.array_equal(csv.channels, xtt.channels)
        assert np.array_equal(csv.times_ps, xtt.times_ps)
        assert csv.metadata == xtt.metadata

    def test_sniffing_dispatch(self, tmp_path):
        stream = dataclasses.replace(small_stream(), metadata={})
        xtt = tagio.write_tags_xtt1(tmp_path / "a.bin", stream)
        csvp = write_tags_csv(tmp_path / "b.txt", stream)
        assert np.array_equal(tagio.read_tags(xtt).times_ps, stream.times_ps)
        assert np.array_equal(tagio.read_tags(csvp).times_ps, stream.times_ps)


class TestWriterBytes:
    def test_tags_csv_bytes_and_largest_time(self, tmp_path):
        stream = fx.TagStream(channels=np.array([0, 1, 1], dtype=np.uint8),
                              times_ps=np.array([0, 5, 2**63 - 1], dtype=np.int64))
        path = write_tags_csv(tmp_path / "tags.csv", stream)
        assert path.read_bytes() == b"channel,time_ps\n0,0\n1,5\n1,9223372036854775807\n"
        back = tagio.read_tags(path)
        assert back.channels.tolist() == [0, 1, 1]
        assert back.times_ps.tolist() == [0, 5, 2**63 - 1]

    def test_scan_csv_bytes(self, tmp_path):
        scan = fx.SpectralScan(wavelengths_nm=np.array([1270.0, 1270.1234567, 1599.9999999]),
                               counts=np.array([5, 0, 12], dtype=np.int64), dwell_s=2.0)
        path = tagio.write_scan_csv(tmp_path / "scan.csv", scan)
        assert path.read_bytes() == b"lambda_nm,counts\n1270.000000,5\n1270.123457,0\n1600.000000,12\n"

    @pytest.mark.parametrize("bins, counts, expected", [
        ([3, 7], [2, 1], b"bin_start_ps,counts\n300,2\n700,1\n"),
        ([], [], b"bin_start_ps,counts\n"),
    ], ids=["two-bins", "empty"])
    def test_histogram_csv_bytes(self, tmp_path, bins, counts, expected):
        from fiberxtalk.analysis import Histogram

        hist = Histogram(bins=np.array(bins, dtype=np.int64), counts=np.array(counts, dtype=np.int64), n_bins=10,
                         bin_width_ps=100, period_ps=1000, total_triggers=1, live_time_s=1e-3)
        assert tagio.write_histogram_csv(tmp_path / "hist.csv", hist).read_bytes() == expected


WRITERS = {
    "json": lambda path: tagio.write_json(path, {"b": [1, 2.5], "a": "x"}),
    "csv": lambda path: tagio.write_csv(path, "lambda_nm,counts", "%.6f,%d", ([1310.0, 1310.5], [4, 0])),
    "xtt1": lambda path: tagio.write_tags_xtt1(path, dataclasses.replace(small_stream(), metadata={})),
}


@pytest.mark.parametrize("writer", [
    lambda path: tagio.write_tags_xtt1(path, small_stream()),
    lambda path: tagio.write_scan_csv(path, fx.SpectralScan(
        wavelengths_nm=np.array([1270.0]), counts=np.array([5]), dwell_s=2.0, metadata={"dwell_s": 2.0})),
    lambda path: tagio.write_histogram_csv(path, fx.Histogram(
        bins=np.array([3]), counts=np.array([2]), n_bins=10, bin_width_ps=100, period_ps=1000, total_triggers=1,
        live_time_s=1e-3)),
    lambda path: tagio.write_metadata(path, {"seed": 7}),
    *WRITERS.values(),
], ids=["xtt1-with-metadata", "scan-with-metadata", "histogram", "metadata", *WRITERS])
def test_each_writer_writes_one_file(tmp_path, writer):
    # a command that wants a sidecar lists write_metadata as a write of its own
    written = writer(tmp_path / "out")
    assert list(tmp_path.iterdir()) == [written]


class TestRewriteInPlace:
    @pytest.mark.parametrize("old", [b"x" * 2**20, b"x" * 3, b""], ids=["longer", "shorter", "empty"])
    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
    def test_rewrite_equals_a_fresh_write(self, tmp_path, writer, old):
        target = tmp_path / "target"
        target.write_bytes(old)
        writer(target)
        assert target.read_bytes() == writer(tmp_path / "fresh").read_bytes()

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
    def test_new_file_mode_follows_the_umask(self, tmp_path, writer):
        umask = os.umask(0o027)
        try:
            path = writer(tmp_path / "new")
        finally:
            os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~0o027

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
    def test_a_device_or_a_pipe_is_written_untruncated(self, tmp_path, writer):
        writer(os.devnull)
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as reader:
            with open(write_end, "wb"):
                writer(f"/dev/fd/{write_end}")
            assert reader.read() == writer(tmp_path / "fresh").read_bytes()

    def test_xtt1_writer_holds_one_copy_of_the_records(self, tmp_path):
        n = 1_000_000
        stream = fx.TagStream(channels=np.ones(n, dtype=np.uint8), times_ps=np.arange(n, dtype=np.int64))
        tracemalloc.start()
        try:
            tagio.write_tags_xtt1(tmp_path / "tags.xtt1", stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 9 MB record array, and neither its bytes nor a u64 copy of the times
        assert peak < 1.5 * 9 * n


class TestScanCsv:
    def test_round_trip_with_sidecar(self, tmp_path):
        scan = fx.SpectralScan(
            wavelengths_nm=np.array([1270.0, 1271.0, 1272.0]),
            counts=np.array([5, 100, 4], dtype=np.int64),
            dwell_s=2.0,
            metadata={"seed": 3, "dwell_s": 2.0},
        )
        path = tmp_path / "scan.csv"
        tagio.write_scan_csv(path, scan)
        tagio.write_metadata(path, scan.metadata)
        back = tagio.read_scan_csv(path)
        assert np.allclose(back.wavelengths_nm, scan.wavelengths_nm)
        assert np.array_equal(back.counts, scan.counts)
        assert back.dwell_s == 2.0

    def test_dwell_required_without_sidecar(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("lambda_nm,counts\n1270.0,5\n")
        with pytest.raises(InputError, match="dwell"):
            tagio.read_scan_csv(path)
        assert tagio.read_scan_csv(path, dwell_s=1.5).dwell_s == 1.5
        assert tagio.read_metadata(path) == {}


    def test_floats_match_python_float(self, tmp_path):
        # The scan reader's parser, on values that repeat and leave the wavelength range.
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.uniform(1260.0, 1620.0, 500), 10.0 ** rng.uniform(-30, 30, 500)])
        texts = [f(v) for v in values.tolist() for f in (repr, "{:.6f}".format, "{:.17g}".format, "{:e}".format)]
        path = tmp_path / "scan.csv"
        path.write_text("lambda_nm,counts\n" + "".join(f"{t},1\n" for t in texts))
        wavelengths, _ = read_csv_columns(path, ["lambda_nm", "counts"], ["f8", "i8"])
        assert wavelengths.tolist() == [float(t) for t in texts]

    def test_unparsable_count_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("lambda_nm,counts\n1270.0,5\n1271.0,abc\n")
        with pytest.raises(DataError, match="abc"):
            tagio.read_scan_csv(path, dwell_s=1.0)

    @pytest.mark.parametrize("body, message", [
        (b"nan,400\n900,3\n", "data row 1: wavelength must be in [1000, 2000] nm, got nan"),
        (b"1300,1\ninf,2\n", "data row 2: wavelength must be in [1000, 2000] nm, got inf"),
        (b"1300,1\n1310,2\n999.5,3\n", "data row 3: wavelength must be in [1000, 2000] nm, got 999.5"),
        (b"1300,1\n2000.5,2\n", "data row 2: wavelength must be in [1000, 2000] nm, got 2000.5"),
        (b"1300,1\n1300,2\n", "data row 2: wavelength must be above the previous row's, got 1300.0"),
        (b"1300,1\n1310,2\n1305,3\n", "data row 3: wavelength must be above the previous row's, got 1305.0"),
        (b"1300,1\n1310,-3\n", "data row 2: counts must be >= 0, got -3"),
    ], ids=["nan", "inf", "below-range", "above-range", "repeated", "falling", "negative-count"])
    def test_bad_row_names_file_and_row(self, tmp_path, body, message):
        path = tmp_path / "scan.csv"
        path.write_bytes(b"lambda_nm,counts\n" + body)
        with pytest.raises(DataError) as err:
            tagio.read_scan_csv(path, dwell_s=1.0)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("body", [b"nan,400\n900,3\n", b"1300,1\n1300,2\n", b"1300,1\n1310,-3\n"],
                             ids=["nan", "repeated", "negative-count"])
    def test_scan_analyze_exits_3_on_a_bad_row(self, tmp_path, body):
        path, report = tmp_path / "scan.csv", tmp_path / "lines.json"
        path.write_bytes(b"lambda_nm,counts\n" + body)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["scan-analyze", "--scan", str(path), "--dwell", "1s", "--out", str(report)])
        assert code == 3
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "E_DATA"
        assert f"{path}: data row " in json.loads(lines[0])["message"]
        assert not report.exists()


class TestHistogramCsv:
    def test_nonzero_bins_only(self, tmp_path):
        from fiberxtalk.analysis import fold_histogram

        hist = fold_histogram(small_stream(), bin_width_ps=100)
        path = tmp_path / "hist.csv"
        tagio.write_histogram_csv(path, hist)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "bin_start_ps,counts"
        parsed = [tuple(int(v) for v in r.split(",")) for r in rows[1:]]
        assert all(c > 0 for _, c in parsed)
        assert sum(c for _, c in parsed) == int(hist.counts.sum())
        assert parsed[0][0] == 12300  # both 12345 ps delays fold into this bin
