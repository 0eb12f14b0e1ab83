"""Command-line front end: files in, files out, exit codes, manifests."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fiberxtalk as fx
from fiberxtalk import cli, tagio
from fiberxtalk.cli import main

from conftest import connector_doc, power_for_mu_det, topology_doc, write_tags_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return path


def strict_json(text):
    """``text`` read as RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def plant_files(tmp_path):
    topo = write_json(
        tmp_path / "topo.json",
        topology_doc(
            [connector_doc("mpoA", 150.0), connector_doc("mpoB", 800.0), connector_doc("mpoC", 2300.0)]
        ),
    )
    source = write_json(
        tmp_path / "source.json",
        {"avg_power_w": power_for_mu_det(0.2, -100.0), "rep_rate_hz": 1000.0,
         "pulse_width_ps": 100.0, "wavelength_nm": 1550.0},
    )
    detector = write_json(
        tmp_path / "detector.json",
        {"efficiency": 0.85, "dark_rate_hz": 100.0, "jitter_sigma_ps": 50.0, "dead_time_ps": 50000},
    )
    return topo, source, detector


class TestSimulateAnalyze:
    def test_round_trip(self, tmp_path, plant_files, capsys):
        topo, source, detector = plant_files
        out = tmp_path / "run.xtt1"
        code = main([
            "simulate", "--topology", str(topo), "--source", str(source),
            "--detector", str(detector), "--duration", "10s", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        assert out.is_file()
        manifest = json.loads((tmp_path / "run.xtt1.manifest.json").read_text())
        assert manifest["outputs"][str(out)]["sha256"] == sha256(out)
        assert manifest["seed"] == 7

        report_path = tmp_path / "report.json"
        hist_path = tmp_path / "hist.csv"
        code = main([
            "analyze", "--tags", str(out), "--topology", str(topo),
            "--bin", "100ps", "--out", str(report_path), "--hist", str(hist_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["peaks"]) == 3
        distances = [loc["distance_m"] for loc in report["located"]]
        for got, want in zip(distances, (150.0, 800.0, 2300.0)):
            assert got == pytest.approx(want, abs=0.2)
        couplings = [loc["coupling_db"] for loc in report["located"]]
        assert all(c == pytest.approx(-100.0, abs=1.0) for c in couplings)
        assert hist_path.is_file()
        assert (tmp_path / "report.json.manifest.json").is_file()
        assert (tmp_path / "hist.csv.manifest.json").is_file()

    def test_byte_identical_reruns(self, tmp_path, plant_files):
        # --jobs 1 is the one value the flag still accepts, and it changes nothing
        topo, source, detector = plant_files
        digests = []
        for i, flags in enumerate(([], [], ["--jobs", "1"])):
            out = tmp_path / f"run{i}.xtt1"
            code = main([
                "simulate", "--topology", str(topo), "--source", str(source),
                "--detector", str(detector), "--duration", "3s", "--seed", "99",
                *flags, "--out", str(out),
            ])
            assert code == 0
            digests.append(sha256(out))
        assert len(set(digests)) == 1

    def test_missing_topology_is_input_error(self, tmp_path, plant_files, capsys):
        _, source, _ = plant_files
        code = main([
            "simulate", "--topology", str(tmp_path / "absent.json"), "--source", str(source),
            "--duration", "1s", "--seed", "1", "--out", str(tmp_path / "x.xtt1"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "E_INPUT"

    def test_no_trigger_file_is_data_error(self, tmp_path, plant_files, capsys):
        topo, _, _ = plant_files
        tags = tmp_path / "only_det.csv"
        tags.write_text("channel,time_ps\n1,100\n1,200\n")
        code = main([
            "analyze", "--tags", str(tags), "--topology", str(topo),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "E_NO_TRIGGER"

    def test_one_trigger_file_is_data_error(self, tmp_path, plant_files, capsys):
        # one trigger has no spacing, so it defines no period to fold over
        topo, _, _ = plant_files
        tags = tmp_path / "one_trigger.csv"
        tags.write_text("channel,time_ps\n0,0\n1,100\n1,200\n")
        out = tmp_path / "r.json"
        assert main(["analyze", "--tags", str(tags), "--topology", str(topo), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert [json.loads(line) for line in captured.err.splitlines()] == [{
            "error": "E_NO_TRIGGER", "message": "a period needs two or more trigger events, the stream has 1"}]
        assert not out.exists()

    def test_bad_bin_width_is_parameter_error(self, tmp_path, plant_files, capsys):
        # 300 ps does not divide the 1 ms period and folds all the same; a width below 1 ps is refused
        topo, source, detector = plant_files
        out = tmp_path / "run.xtt1"
        main([
            "simulate", "--topology", str(topo), "--source", str(source),
            "--detector", str(detector), "--duration", "1s", "--seed", "3",
            "--out", str(out),
        ])
        report_path = tmp_path / "r.json"
        analyze = ["analyze", "--tags", str(out), "--topology", str(topo), "--out", str(report_path)]
        assert main([*analyze, "--bin", "300ps"]) == 0
        report = json.loads(report_path.read_text())
        assert (report["histogram"]["n_bins"], report["histogram"]["bin_width_ps"]) == (3_333_334, 300)
        assert report["diagnostics"]["notes"] == [
            "the 1000000000 ps period ends in a bin of 100 ps, not 300 ps: it holds less background, "
            "and a peak that reaches it is centred on full-width bin centres"]
        assert [loc["matched_element"] for loc in report["located"]] == ["mpoA", "mpoB", "mpoC"]
        capsys.readouterr()
        assert main([*analyze, "--bin", "0.5ps"]) == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "E_PARAM", "message": "--bin: bin width must be a positive integer in ps, got '0.5ps'"}

    @pytest.mark.parametrize("rows, bin_width, message", [
        # one trigger: a bin beyond int64 cannot divide int64 delays
        ("0,0\n1,5\n", "1e19ps", "bin width must be at most 9223372036854775807 ps"),
        # a 2^63 ps period needs 2^63 bins of 1 ps, one more than an int64 index reaches
        ("0,0\n0,9223372036854775807\n1,5\n", "1ps", "9223372036854775808 bins of 1 ps, beyond an int64 index"),
    ], ids=["beyond-int64", "bins-beyond-int64"])
    def test_extreme_bin_width_exits_4(self, tmp_path, plant_files, capsys, rows, bin_width, message):
        topo, _, _ = plant_files
        tags = tmp_path / "t.csv"
        tags.write_text("channel,time_ps\n" + rows)
        started = time.perf_counter()
        code = main(["analyze", "--tags", str(tags), "--topology", str(topo),
                     "--bin", bin_width, "--out", str(tmp_path / "r.json")])
        assert time.perf_counter() - started < 1.0
        assert code == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert message in err["message"]

    def test_resource_cap_exit_code(self, tmp_path, plant_files, capsys):
        topo, source, detector = plant_files
        code = main([
            "simulate", "--topology", str(topo), "--source", str(source),
            "--detector", str(detector), "--duration", "10s", "--seed", "3",
            "--max-tags", "100", "--out", str(tmp_path / "x.xtt1"),
        ])
        assert code == 5
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "E_RESOURCE"

    def test_bright_source_without_efficiency_exits_4(self, tmp_path, plant_files, capsys):
        topo, _, _ = plant_files
        source = write_json(tmp_path / "bright.json", {"avg_power_w": 1e12})
        detector = write_json(tmp_path / "blind.json", {"efficiency": 0.0})
        code = main([
            "simulate", "--topology", str(topo), "--source", str(source),
            "--detector", str(detector), "--duration", "1s", "--seed", "1",
            "--out", str(tmp_path / "x.xtt1"),
        ])
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "E_PARAM"
        assert err["message"].startswith("expected ")
        assert err["message"].endswith(" photons from the point at 150.0 m in a chunk of 1000 pulses; the limit is 1e+18")
        assert not (tmp_path / "x.xtt1").exists()

    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 8.00 GiB"), "out of memory: Unable to allocate 8.00 GiB"),
    ])
    def test_out_of_memory_exits_5(self, tmp_path, plant_files, capsys, monkeypatch, error, message):
        def read_tags(path):
            raise error

        monkeypatch.setattr(cli.tagio, "read_tags", read_tags)
        code = main(["analyze", "--tags", str(tmp_path / "x.xtt1"), "--topology", str(plant_files[0]),
                     "--out", str(tmp_path / "report.json")])
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "E_RESOURCE", "message": message}

    @pytest.mark.parametrize("max_tags", ["-1", "0"])
    def test_max_tags_below_one_is_parameter_error(self, tmp_path, plant_files, capsys, max_tags):
        topo, source, detector = plant_files
        code = main([
            "simulate", "--topology", str(topo), "--source", str(source),
            "--detector", str(detector), "--duration", "1s", "--seed", "3",
            f"--max-tags={max_tags}", "--out", str(tmp_path / "x.xtt1"),
        ])
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "E_PARAM", "message": f"max_tags must be an integer >= 1, got {max_tags}"}

    def test_max_tags_above_the_reader_cap_is_parameter_error(self, tmp_path, plant_files, capsys):
        # the tag readers refuse more than DEFAULT_MAX_TAGS records, so simulate may not write them
        topo, source, detector = plant_files
        out = tmp_path / "x.xtt1"
        code = main([
            "simulate", "--topology", str(topo), "--source", str(source), "--detector", str(detector),
            "--duration", "1s", "--seed", "3", "--max-tags", "50000001", "--out", str(out),
        ])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": "E_PARAM", "message": "max_tags must be at most 50000000, got 50000001"}]
        assert list(tmp_path.glob("x.xtt1*")) == []

    def test_draw_over_max_tags_is_resource_error(self, tmp_path, plant_files, capsys):
        # ~1581.8 tags are expected, under the cap of 1582; seed 21 draws 1586
        topo, source, detector = plant_files
        out = tmp_path / "x.xtt1"
        code = main([
            "simulate", "--topology", str(topo), "--source", str(source), "--detector", str(detector),
            "--duration", "1s", "--seed", "21", "--max-tags", "1582", "--out", str(out),
        ])
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [{
            "error": "E_RESOURCE",
            "message": "drew 1586 tags, over the cap of 1582; shorten the run or raise max_tags up to 50000000",
        }]
        assert list(tmp_path.glob("x.xtt1*")) == []


@pytest.mark.parametrize("kind,doc", [
    ("source", {"avg_power_w": "x"}),
    ("source", {"avg_power_w": 1e-6, "rep_rate_hz": [1000]}),
    ("detector", {"efficiency": "high"}),
    ("detector", {"dark_rate_hz": None}),
    ("filter", {"fwhm_nm": "0.8"}),
    ("lines", [{"wavelength_nm": "1310", "rate_photons_per_s": 1.0}]),
    ("lines", [{"wavelength_nm": 1310.0, "rate_photons_per_s": {}}]),
    ("detector", {"efficiency": True}),
    ("model", {"reference_nm": "abc"}),
    ("model", {"c0_db": None}),
    ("model", {"table": 5}),
    # booleans are not integers, though Python's int accepts them
    ("model", {"n_in": True}),
    ("detector", {"dead_time_ps": True}),
])
def test_non_numeric_field_is_input_error(tmp_path, plant_files, capsys, kind, doc):
    topo, source, detector = plant_files
    bad = write_json(tmp_path / f"bad_{kind}.json", doc)
    if kind in ("source", "detector"):
        files = {"source": source, "detector": detector, kind: bad}
        argv = ["simulate", "--topology", str(topo), "--source", str(files["source"]),
                "--detector", str(files["detector"]), "--duration", "1s", "--seed", "1",
                "--out", str(tmp_path / "x.xtt1")]
    elif kind == "model":
        argv = ["switch", "plan", "--model", str(bad), "--n-in", "2", "--n-out", "2",
                "--classical", "1", "--quantum", "1", "--out", str(tmp_path / "plan.json")]
    else:
        lines = bad if kind == "lines" else write_json(tmp_path / "lines.json", [])
        argv = ["scan", "--lines", str(lines), "--grid", "1300:1310:1", "--dwell", "1s",
                "--seed", "1", "--out", str(tmp_path / "s.csv")]
        if kind == "filter":
            argv += ["--filter", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "E_INPUT"


@pytest.mark.parametrize("kind, doc, message", [
    ("source", {"avg_power_w": "x"}, "source.avg_power_w must be a number, got 'x'"),
    ("source", {"avg_power_w": 1e-6, "colour": "red"},
     "source: unknown key(s) ['colour']; expected ['avg_power_w', 'pulse_width_ps', 'rep_rate_hz', 'wavelength_nm']"),
    ("source", {"avg_power_w": 1e-6, "pulse_width_ps": 2e9},
     "source: pulse width 2000000000.0 ps must be shorter than the 1000000000 ps pulse period"),
    ("source", {}, "source: missing required key 'avg_power_w'"),
    ("source", [], "source: expected a JSON object"),
    ("detector", {"dead_time_ps": True}, "detector.dead_time_ps must be an integer >= 0, got True"),
    # nothing reads a switch object, so a topology that has one is refused
    ("topology", {**topology_doc(), "switch": {"n_in": 8}},
     "topology: unknown key(s) ['switch']; expected ['connectors', 'probe', 'schema_version', 'spans', 'victim']"),
])
def test_document_faults_name_the_element(tmp_path, plant_files, capsys, kind, doc, message):
    topo, source, detector = plant_files
    files = {"topology": topo, "source": source, "detector": detector,
             kind: write_json(tmp_path / f"bad_{kind}.json", doc)}
    assert main(["simulate", "--topology", str(files["topology"]), "--source", str(files["source"]),
                 "--detector", str(files["detector"]), "--duration", "1s", "--seed", "1",
                 "--out", str(tmp_path / "x.xtt1")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in err] == [{"error": "E_INPUT", "message": message}]


def test_model_document_n_in_true_exits_2(tmp_path, capsys):
    # True once passed as a 1-input switch
    model = write_json(tmp_path / "model.json", {"n_in": True})
    assert main(["switch", "plan", "--model", str(model), "--classical", "1", "--quantum", "0",
                 "--out", str(tmp_path / "plan.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in err] == [
        {"error": "E_INPUT", "message": "switch model.n_in must be an integer >= 1, got True"}]


@pytest.mark.parametrize("argv", [
    ["simulate", "--topology", "t.json", "--source", "s.json", "--duration", "1s", "--seed", "1.5", "--out", "x"],
    ["switch", "plan", "--n-in", "abc", "--classical", "1", "--quantum", "1", "--out", "x"],
    ["switch", "plan", "--classical", "1", "--out", "x"],
])
def test_unreadable_command_line_is_input_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "E_INPUT"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["switch", "plan", "--help"])
    assert exit_.value.code == 0
    assert "--classical" in capsys.readouterr().out


def test_in_process_calls_share_no_state(tmp_path, plant_files, capsys):
    """The parser is built once per process, yet no flag of one call reaches the next."""
    topo, source, detector = plant_files
    tags = tmp_path / "run.xtt1"
    assert main([
        "simulate", "--topology", str(topo), "--source", str(source),
        "--detector", str(detector), "--duration", "1s", "--seed", "3", "--out", str(tags),
    ]) == 0
    analyze = ["analyze", "--tags", str(tags), "--topology", str(topo), "--out", str(tmp_path / "r.json")]
    separations = []
    for argv in (analyze + ["--min-separation", "5"], analyze):
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        separations.append(manifest["parameters"]["min_separation_bins"])
    assert separations == [5, 3]

    plan = tmp_path / "plan.json"
    carriers = []
    for flags in (["--classical-band", "C"], []):
        assert main([
            "switch", "plan", "--n-in", "4", "--n-out", "4", "--classical", "1", "--quantum", "1",
            *flags, "--out", str(plan),
        ]) == 0
        carriers.append(json.loads(plan.read_text())["classical"][0]["wavelength_nm"])
    assert carriers == [1530.0, 1310.0]

    capsys.readouterr()
    assert main(["switch", "plan", "--classical", "1", "--out", str(plan)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "E_INPUT"
    assert cli.build_parser() is cli.build_parser()


class TestScan:
    def test_scan_and_analyze_four_lines(self, tmp_path, capsys):
        lines = write_json(
            tmp_path / "lines.json",
            [{"wavelength_nm": nm, "rate_photons_per_s": 2e5} for nm in (1270.0, 1290.0, 1310.0, 1330.0)],
        )
        scan_path = tmp_path / "scan.csv"
        code = main([
            "scan", "--lines", str(lines), "--grid", "1260:1360:0.2",
            "--dwell", "1s", "--seed", "11", "--out", str(scan_path),
        ])
        assert code == 0
        report_path = tmp_path / "lines_report.json"
        code = main([
            "scan-analyze", "--scan", str(scan_path), "--out", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        found = [line["wavelength_nm"] for line in report["lines"]]
        assert len(found) == 4
        for got, want in zip(found, (1270.0, 1290.0, 1310.0, 1330.0)):
            assert got == pytest.approx(want, abs=0.2)

    def test_empty_line_list_yields_zero_lines(self, tmp_path):
        lines = write_json(tmp_path / "lines.json", [])
        scan_path = tmp_path / "scan.csv"
        assert main([
            "scan", "--lines", str(lines), "--grid", "1260:1360:0.5",
            "--dwell", "1s", "--seed", "2", "--out", str(scan_path),
        ]) == 0
        report_path = tmp_path / "r.json"
        assert main(["scan-analyze", "--scan", str(scan_path), "--out", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["lines"] == []

    def test_filter_center_is_an_unknown_key(self, tmp_path, capsys):
        filt = write_json(tmp_path / "filter.json", {"fwhm_nm": 0.8, "center_nm": 1310.0})
        assert main(["scan", "--lines", str(write_json(tmp_path / "lines.json", [])), "--filter", str(filt),
                     "--grid", "1300:1310:1", "--dwell", "1s", "--seed", "1", "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [{"error": "E_INPUT", "message": (
            "filter: unknown key(s) ['center_nm']; expected ['fwhm_nm', 'insertion_loss_db']")}]

    def test_grid_outside_validated_range_is_parameter_error(self, tmp_path, capsys):
        lines = write_json(tmp_path / "lines.json", [])
        code = main([
            "scan", "--lines", str(lines), "--grid", "900:950:10",
            "--dwell", "1s", "--seed", "2", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "E_PARAM"

    @pytest.mark.parametrize("command", [
        ["scan", "--lines", "lines.json", "--dwell", "1s", "--seed", "2"],
        ["switch", "sweep-wavelength"],
    ])
    def test_grid_beyond_point_cap_is_resource_error(self, tmp_path, capsys, command):
        write_json(tmp_path / "lines.json", [])
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in command]
        started = time.perf_counter()
        code = main([*argv, "--grid", "1260:1560:1e-9", "--out", str(tmp_path / "out.csv")])
        assert time.perf_counter() - started < 1.0
        assert code == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "E_RESOURCE"

    @pytest.mark.parametrize("grid", ["-1e999:1300:1", "1300:1e999:1", "1300:1310:1e999"])
    def test_infinite_grid_value_is_parameter_error(self, tmp_path, capsys, grid):
        code = main(["switch", "sweep-wavelength", f"--grid={grid}", "--out", str(tmp_path / "out.csv")])
        assert code == 4
        assert json.loads(capsys.readouterr().err.strip())["error"] == "E_PARAM"

    @pytest.mark.parametrize("n", [0, 1, 15])
    def test_scan_of_fewer_than_16_points_is_data_error(self, tmp_path, capsys, n):
        scan = tmp_path / "short.csv"
        scan.write_bytes(b"\n".join([b"lambda_nm,counts", *SCAN_ROWS[:n]]) + b"\n")
        code = main(["scan-analyze", "--scan", str(scan), "--dwell", "1s", "--out", str(tmp_path / "r.json")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "E_DATA", "message": f"{scan}: baseline estimation needs >= 16 scan points, got {n}"}

    def test_scan_of_16_points_runs(self, tmp_path, capsys):
        scan = tmp_path / "short.csv"
        scan.write_bytes(b"\n".join([b"lambda_nm,counts", *SCAN_ROWS[:16]]) + b"\n")
        models = [str(write_json(tmp_path / "filter.json", {})), str(write_json(tmp_path / "detector.json", {}))]
        out = tmp_path / "r.json"
        assert main(["scan-analyze", "--scan", str(scan), "--dwell", "1s", "--filter", models[0],
                     "--detector", models[1], "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["lines"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("given, missing", [([], "filter"), (["--filter"], "detector")])
    def test_scan_without_filter_or_detector_is_input_error(self, tmp_path, capsys, given, missing):
        # the lines were once sized without the filter's profile; a default filter would size them silently
        scan = tmp_path / "scan.csv"
        scan.write_bytes(b"\n".join([b"lambda_nm,counts", *SCAN_ROWS]) + b"\n")
        flags = [arg for flag in given for arg in (flag, str(write_json(tmp_path / f"{flag[2:]}.json", {})))]
        out = tmp_path / "r.json"
        assert main(["scan-analyze", "--scan", str(scan), "--dwell", "1s", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [{"error": "E_INPUT", "message": (
            f"{scan}: {missing} unknown; give --{missing} or keep a scan.csv.meta.json sidecar that has it")}]
        assert not out.exists()

    @pytest.mark.parametrize("filt, detector, code, message", [
        # two equal points: the line's centre falls between them, 0.25 nm from each, past 8 sigmas of 4 pm
        ({"fwhm_nm": 0.01}, {}, 3, "no scan point lies within 8 filter sigmas of the line at 1305.2500 nm"),
        ({}, {"efficiency": 0.0}, 4, "the filter and detector pass no photons: a line's leaked rate is unknown"),
    ], ids=["filter-narrower-than-the-grid", "no-efficiency"])
    def test_filter_or_detector_that_cannot_size_a_line(self, tmp_path, capsys, filt, detector, code, message):
        scan = tmp_path / "scan.csv"
        rows = [f"{1300 + 0.5 * i},{500 if i in (10, 11) else 3}".encode() for i in range(21)]
        scan.write_bytes(b"\n".join([b"lambda_nm,counts", *rows]) + b"\n")
        out = tmp_path / "r.json"
        assert main(["scan-analyze", "--scan", str(scan), "--dwell", "1s",
                     "--filter", str(write_json(tmp_path / "filter.json", filt)),
                     "--detector", str(write_json(tmp_path / "detector.json", detector)), "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"{scan}: " if code == 3 else ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": {3: "E_DATA", 4: "E_PARAM"}[code], "message": prefix + message}]
        assert not out.exists()

    def test_sidecar_gives_filter_and_detector_and_its_lines_are_not_read(self, tmp_path, capsys):
        lines = write_json(tmp_path / "lines.json", [{"wavelength_nm": 1310.0, "rate_photons_per_s": 2e4}])
        scan = tmp_path / "scan.csv"
        assert main(["scan", "--lines", str(lines), "--filter", str(write_json(tmp_path / "f.json", {"fwhm_nm": 0.5})),
                     "--grid", "1300:1320:0.1", "--dwell", "1s", "--seed", "3", "--out", str(scan)]) == 0
        out, again = tmp_path / "r.json", tmp_path / "again.json"
        assert main(["scan-analyze", "--scan", str(scan), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["parameters"]["filter"] == {"fwhm_nm": 0.5, "insertion_loss_db": 3.0}
        assert report["parameters"]["detector"] == dataclasses.asdict(fx.Detector())
        (line,) = report["lines"]
        assert abs(line["line_rate_photons_per_s"] - 2e4) <= 3.0 * line["line_rate_uncertainty_photons_per_s"]
        sidecar = tagio.metadata_path(scan)
        write_json(sidecar, {**json.loads(sidecar.read_text()), "lines": "not read"})
        assert main(["scan-analyze", "--scan", str(scan), "--out", str(again)]) == 0
        assert json.loads(again.read_text()) == report
        capsys.readouterr()


class TestSwitchCommands:
    def test_sweep_config_first_row_is_maximal(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["switch", "sweep-config", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "config,xtalk_db"
        labels = [r.rsplit(",", 1)[0].strip('"') for r in rows[1:]]
        values = [float(r.rsplit(",", 1)[1]) for r in rows[1:]]
        assert labels[0] == "1->10,2->9"
        assert values[0] == pytest.approx(-50.0)
        assert all(v < values[0] for v in values[1:])

    def test_sweep_with_no_configuration_checks_its_wavelength(self, tmp_path, capsys):
        # a 1xN switch has no configuration, so no switch_xtalk_db call to check the wavelength
        out = tmp_path / "sweep.csv"
        assert main(["switch", "sweep-config", "--n-in", "1", "--wavelength", "5000", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": "E_PARAM", "message": "wavelength 5000.0 nm outside validated range [1000, 2000] nm"}]
        assert not out.exists()

    def test_sweep_wavelength_flat_with_zero_slope(self, tmp_path):
        out = tmp_path / "curve.csv"
        model = write_json(tmp_path / "model.json", {"slope_db_per_nm": 0})
        assert main([
            "switch", "sweep-wavelength", "--model", str(model), "--grid", "1260:1560:50",
            "--out", str(out),
        ]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        values = {float(r.split(",")[1]) for r in rows}
        assert values == {-50.0}

    def test_plan_matches_oracle(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main([
            "switch", "plan", "--n-in", "4", "--n-out", "4",
            "--classical", "2", "--quantum", "2", "--out", str(plan_path),
        ]) == 0
        plan = json.loads(plan_path.read_text())
        oracle = fx.brute_force_assignment(fx.SwitchModel(n_in=4, n_out=4), 2, 2)
        assert plan["objective_db"] == oracle.objective_db
        assert [tuple(p.values()) for p in plan["classical"]] == [
            (p.input, p.output, p.wavelength_nm) for p in oracle.classical
        ]

    @pytest.mark.parametrize("flags", [
        ["--classical", "1", "--quantum", "0"], ["--classical", "0", "--quantum", "1"],
        ["--classical", "1", "--quantum", "1", "--table", "table.csv"]], ids=["no-quantum", "no-classical", "no-leak"])
    def test_plan_with_nothing_to_leak_writes_a_null_objective(self, tmp_path, capsys, flags):
        # the objective is -inf dB, which JSON cannot hold; the summary line still reads it
        table = tmp_path / "table.csv"
        table.write_bytes(b"\n".join([b"a_in,a_out,v_in,v_out,lambda_nm,xtalk_db",
                                      *(row.replace(b",-40", b",-inf") for row in TABLE_ROWS)]) + b"\n")
        plan_path = tmp_path / "plan.json"
        flags = [str(tmp_path / flag) if flag.endswith(".csv") else flag for flag in flags]
        assert main(["switch", "plan", "--n-in", "2", "--n-out", "2", *flags, "--out", str(plan_path)]) == 0
        assert capsys.readouterr().out == f"wrote {plan_path} (objective -inf, exhaustive)\n"
        assert strict_json(plan_path.read_text())["objective_db"] is None

    @pytest.mark.parametrize("flags, message", [
        (["sweep-config", "--classical-in", "9"], "classical input 9 outside 1..8"),
        (["sweep-config", "--victim-out", "8"], "victim output 8 outside 9..16"),
        (["sweep-wavelength", "--aggressor", "9:10"], "aggressor input port 9 outside 1..8"),
        (["sweep-wavelength", "--victim", "2:17"], "victim output port 17 outside 9..16"),
        (["sweep-wavelength", "--aggressor", "1:10", "--victim", "1:9"], "aggressor 1->10 and victim 1->9 share a port"),
        (["sweep-wavelength", "--aggressor", "1:10", "--victim", "2:10"],
         "aggressor 1->10 and victim 2->10 share a port"),
        (["sweep-wavelength", "--aggressor", "1-10"], "--aggressor: expected one 'in:out', got '1-10'"),
        (["sweep-wavelength", "--aggressor=1:10,2:11"], "--aggressor: expected one 'in:out', got '1:10,2:11'"),
        (["sweep-wavelength", "--victim=2:9,3:12"], "--victim: expected one 'in:out', got '2:9,3:12'"),
        (["sweep-wavelength", "--victim=2:9,"], "--victim: expected one 'in:out', got '2:9,'"),
        (["sweep-wavelength", "--aggressor", "1_0:1_0"], "--aggressor: expected one 'in:out', got '1_0:1_0'"),
    ], ids=["classical-in", "victim-out", "input-range", "output-range", "shared-input", "shared-output",
            "dash", "two-aggressors", "two-victims", "trailing-comma", "underscored-digits"])
    def test_path_fault_exits_4(self, tmp_path, capsys, flags, message):
        # one parser and one check: every path fault is E_PARAM, and nothing is written
        out = tmp_path / "x.csv"
        assert main(["switch", *flags, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert [json.loads(line) for line in err] == [{"error": "E_PARAM", "message": message}]
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()

    def test_plan_with_bands(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main([
            "switch", "plan", "--classical", "1", "--quantum", "1",
            "--classical-band", "O", "--quantum-band", "C",
            "--out", str(plan_path),
        ]) == 0
        plan = json.loads(plan_path.read_text())
        assert plan["classical"][0]["wavelength_nm"] == 1260.0
        assert plan["quantum"][0]["wavelength_nm"] == 1530.0

    @pytest.mark.parametrize("band", ["1500,abc", "1500,1550,1600", ",", "1300,1_500", "\u0661\u0663\u0660\u0660,1500"])
    def test_malformed_band_is_input_error(self, tmp_path, capsys, band):
        code = main([
            "switch", "plan", "--classical", "1", "--quantum", "1",
            "--classical-band", band, "--out", str(tmp_path / "plan.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "E_INPUT"

    @pytest.mark.parametrize("flag", ["--classical-band", "--quantum-band"])
    @pytest.mark.parametrize("band", ["", "X"])
    def test_unknown_band_preset_names_its_flag(self, tmp_path, capsys, flag, band):
        # the planner once reported it without the flag: "unknown band ''; presets are ['C', 'O']"
        out = tmp_path / "plan.json"
        code = main(["switch", "plan", "--classical", "1", "--quantum", "1", flag, band, "--out", str(out)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": "E_PARAM", "message": f"{flag}: unknown band {band!r}; presets are ['C', 'O']"}]
        assert not out.exists()

    def test_band_preset_is_recorded_as_given(self, tmp_path):
        # the preset is checked case-insensitively, as the planner reads it, and kept as typed
        out = tmp_path / "plan.json"
        assert main(["switch", "plan", "--classical", "1", "--quantum", "1", "--classical-band", "o",
                     "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["parameters"]["bands"] == {"classical": "o"}
        assert json.loads(out.read_text())["classical"][0]["wavelength_nm"] == 1260.0

    @pytest.mark.parametrize("command", [["plan", "--classical", "1", "--quantum", "1"], ["sweep-config"]])
    def test_port_count_beyond_budget_is_resource_error(self, tmp_path, capsys, command):
        started = time.perf_counter()
        code = main(["switch", *command, "--n-in", "1000000", "--out", str(tmp_path / "out")])
        assert time.perf_counter() - started < 1.0
        assert code == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "E_RESOURCE"

    @pytest.mark.parametrize("row, message", [
        ("1,6,2,5,nan,-40", "data row 2: wavelength must be finite and > 0 nm, got nan"),
        ("1,6,2,5,1310,-45", "data row 2: path pair measured twice at one wavelength, got 1310.0"),
    ], ids=["nan-wavelength", "measured-twice"])
    def test_table_fault_is_data_error(self, tmp_path, capsys, row, message):
        table = tmp_path / "table.csv"
        table.write_text(f"a_in,a_out,v_in,v_out,lambda_nm,xtalk_db\n1,6,2,5,1310,-48\n{row}\n")
        code = main(["switch", "plan", "--n-in", "4", "--n-out", "4", "--classical", "1", "--quantum", "1",
                     "--table", str(table), "--out", str(tmp_path / "plan.json")])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "E_DATA", "message": f"{table}: {message}"}

    def test_plan_with_numeric_band(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main([
            "switch", "plan", "--classical", "1", "--quantum", "1",
            "--classical-band", "1300,1320", "--quantum-band", "1540,1560",
            "--out", str(plan_path),
        ]) == 0
        plan = json.loads(plan_path.read_text())
        assert 1300.0 <= plan["classical"][0]["wavelength_nm"] <= 1320.0
        assert 1540.0 <= plan["quantum"][0]["wavelength_nm"] <= 1560.0

    def test_measured_model_record_names_the_switch_and_its_carrier(self, tmp_path):
        """Two ``--table`` plans that differ only in the switch size, or only in the reference
        wavelength (the classical carrier without a band), record different models."""
        rows = {f"{a},{b},{v},{w},{nm},-40\n" for n in (2, 3) for nm in (1310, 1550)
                for a, v in itertools.permutations(range(1, n + 1), 2)
                for b, w in itertools.permutations(range(n + 1, 2 * n + 1), 2)}
        table = tmp_path / "table.csv"
        table.write_text("a_in,a_out,v_in,v_out,lambda_nm,xtalk_db\n" + "".join(sorted(rows)))
        out = tmp_path / "plan.json"

        def model_of(*flags, doc=None):
            model = ["--model", str(write_json(tmp_path / "model.json", doc))] if doc is not None else []
            assert main(["switch", "plan", "--table", str(table), "--classical", "1", "--quantum", "1",
                         *model, *flags, "--out", str(out)]) == 0
            return json.loads((tmp_path / "plan.json.manifest.json").read_text())["parameters"]["model"]

        small = model_of("--n-in", "2", "--n-out", "2")
        assert small == {"mode": "measured", "n_in": 2, "n_out": 2, "reference_nm": 1310.0}
        assert model_of("--n-in", "3", "--n-out", "3") != small
        assert model_of(doc={"n_in": 2, "n_out": 2, "reference_nm": 1550}) != small

    @pytest.mark.parametrize("command", [
        ["plan", "--classical", "1", "--quantum", "1"], ["sweep-config"],
        ["sweep-wavelength", "--aggressor", "1:4", "--victim", "2:3"],
    ])
    def test_table_refuses_the_parametric_model_keys(self, tmp_path, capsys, command):
        # such a document once ran, and the manifest recorded none of the keys the table dropped
        table = tmp_path / "table.csv"
        table.write_text("a_in,a_out,v_in,v_out,lambda_nm,xtalk_db\n1,4,2,3,1310,-40\n2,3,1,4,1310,-40\n")
        model = write_json(tmp_path / "model.json", {
            "n_in": 2, "n_out": 2, "reference_nm": 1310.0, "c0_db": -40.0, "beta_in_db_per_port": 1.0,
            "beta_out_db_per_port": 1.0, "slope_db_per_nm": 0.0, "floor_db": -90.0})
        out = tmp_path / "out"
        assert main(["switch", *command, "--table", str(table), "--model", str(model), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [{"error": "E_INPUT", "message": (
            "switch model: --table replaces the parametric model, so c0_db, beta_in_db_per_port, "
            "beta_out_db_per_port, slope_db_per_nm, floor_db would be dropped; beside it the document may hold "
            "only n_in, n_out, reference_nm")}]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--c0", "--beta-in", "--beta-out", "--lambda-ref", "--slope", "--floor"])
    @pytest.mark.parametrize("command", ["sweep-config", "sweep-wavelength", "plan"])
    def test_deleted_model_flag_is_refused(self, tmp_path, capsys, command, flag):
        # each repeated a --model document key, which is now the one place a parametric model is set
        flags, _, _, outputs = command_runs(tmp_path)[f"switch {command}"]
        assert main(["switch", command, *map(str, flags), f"{flag}=-40"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": "E_INPUT", "message": f"xtalk: unrecognized arguments: {flag}=-40"}]
        assert not any(path.exists() for path in outputs)


class TestUnitSuffixes:
    def test_duration_suffixes(self, tmp_path, plant_files):
        topo, source, detector = plant_files
        out_a = tmp_path / "a.xtt1"
        out_b = tmp_path / "b.xtt1"
        for out, dur in ((out_a, "2s"), (out_b, "2000ms")):
            assert main([
                "simulate", "--topology", str(topo), "--source", str(source),
                "--detector", str(detector), "--duration", dur, "--seed", "5",
                "--out", str(out),
            ]) == 0
        assert sha256(out_a) == sha256(out_b)

    @pytest.mark.parametrize("flag, value", [("--bin", "1e999"), ("--duration", "1e999")])
    def test_infinite_time_is_parameter_error(self, tmp_path, plant_files, capsys, flag, value):
        topo, source, detector = plant_files
        if flag == "--duration":
            argv = ["simulate", "--source", str(source), "--detector", str(detector), "--seed", "1",
                    "--out", str(tmp_path / "x.xtt1")]
        else:
            tags = tmp_path / "tags.csv"
            tags.write_bytes(b"\n".join([b"channel,time_ps", *TAG_ROWS]) + b"\n")
            argv = ["analyze", "--tags", str(tags), "--out", str(tmp_path / "r.json")]
        assert main([*argv, "--topology", str(topo), f"{flag}={value}"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "E_PARAM", "message": f"{flag} must be finite, got inf"}


# --- every output has its manifest; an output that cannot be written exits 2 ------


def command_runs(tmp_path):
    """Per command: the flags of one run, its seed, the input files its manifest lists, and its outputs.

    The outputs of ``simulate`` and ``scan`` include the ``.meta.json`` sidecar
    each writes. Each run gives every optional file its command reads:
    detector, filter and model documents, the source, detector and filter
    overrides of analyze and scan-analyze, and the ``.meta.json`` sidecars of
    the tags and the scan.
    """
    topo = write_json(tmp_path / "topo.json", ANALYZE_TOPOLOGY)
    source = write_json(tmp_path / "source.json", SOURCE)
    detector = write_json(tmp_path / "detector.json", DETECTOR)
    filt = write_json(tmp_path / "filter.json", {"fwhm_nm": 0.5})
    model = write_json(tmp_path / "model.json", {"n_in": 4, "n_out": 4, "c0_db": -45.0})
    # beside --table a document holds only what the table does not replace
    table_model = write_json(tmp_path / "table_model.json", {"n_in": 4, "n_out": 4, "reference_nm": 1310.0})
    lines = write_json(tmp_path / "lines.json", [{"wavelength_nm": 1305.0, "rate_photons_per_s": 1e3}])
    tags, scan, table = tmp_path / "tags.csv", tmp_path / "scan.csv", tmp_path / "table.csv"
    tags.write_bytes(b"\n".join([b"channel,time_ps", *TAG_ROWS]) + b"\n")
    tags_meta = write_json(tmp_path / "tags.csv.meta.json", {"source": SOURCE, "detector": DETECTOR})
    scan.write_bytes(b"\n".join([b"lambda_nm,counts", *SCAN_ROWS]) + b"\n")
    scan_meta = write_json(tmp_path / "scan.csv.meta.json", {"dwell_s": 1.0})
    table.write_bytes(b"\n".join([b"a_in,a_out,v_in,v_out,lambda_nm,xtalk_db", *TABLE_ROWS]) + b"\n")
    out = {name: tmp_path / name for name in (
        "run.xtt1", "report.json", "hist.csv", "scan_out.csv", "lines_out.json", "sweep.csv", "curve.csv", "plan.json")}
    return {
        "simulate": (["--topology", topo, "--source", source, "--detector", detector, "--duration", "1s",
                      "--seed", "7", "--out", out["run.xtt1"]], 7,
                     {"topology": topo, "source": source, "detector": detector},
                     [out["run.xtt1"], tagio.metadata_path(out["run.xtt1"])]),
        "analyze": (["--tags", tags, "--topology", topo, "--source", source, "--detector", detector,
                     "--out", out["report.json"], "--hist", out["hist.csv"]], None,
                    {"tags": tags, "topology": topo, "source": source, "detector": detector,
                     "tags_metadata": tags_meta}, [out["report.json"], out["hist.csv"]]),
        "scan": (["--lines", lines, "--filter", filt, "--detector", detector, "--grid", "1300:1310:1",
                  "--dwell", "1s", "--seed", "11", "--out", out["scan_out.csv"]], 11,
                 {"lines": lines, "filter": filt, "detector": detector},
                 [out["scan_out.csv"], tagio.metadata_path(out["scan_out.csv"])]),
        "scan-analyze": (["--scan", scan, "--filter", filt, "--detector", detector, "--out", out["lines_out.json"]],
                         None, {"scan": scan, "filter": filt, "detector": detector, "scan_metadata": scan_meta},
                         [out["lines_out.json"]]),
        "switch sweep-config": (["--table", table, "--n-in", "2", "--n-out", "2", "--out", out["sweep.csv"]],
                                None, {"table": table}, [out["sweep.csv"]]),
        "switch sweep-wavelength": (["--model", model, "--aggressor", "1:5", "--victim", "2:6",
                                     "--grid", "1260:1560:50", "--out", out["curve.csv"]],
                                    None, {"model": model}, [out["curve.csv"]]),
        "switch plan": (["--model", table_model, "--table", table, "--n-in", "2", "--n-out", "2", "--classical", "1",
                         "--quantum", "1", "--out", out["plan.json"]], None,
                        {"model": table_model, "table": table}, [out["plan.json"]]),
    }


COMMANDS = [
    "simulate", "analyze", "scan", "scan-analyze", "switch sweep-config", "switch sweep-wavelength", "switch plan",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_output_has_its_manifest(tmp_path, capsys, command):
    flags, seed, inputs, outputs = command_runs(tmp_path)[command]
    assert main([*command.split(), *map(str, flags)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert len(stdout) == 1
    assert stdout[0].startswith(f"wrote {outputs[0]} (") and stdout[0].endswith(")")
    for path in outputs:
        manifest = json.loads((tmp_path / f"{path.name}.manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["seed"] == seed
        assert manifest["inputs"] == {label: {"path": str(p), "sha256": sha256(p)} for label, p in inputs.items()}
        assert manifest["outputs"] == {str(p): {"sha256": sha256(p)} for p in outputs}


@pytest.mark.parametrize("command", COMMANDS)
def test_input_that_is_also_an_output_keeps_the_digest_read(tmp_path, capsys, command):
    for label in command_runs(tmp_path)[command][2]:
        root = tmp_path / label
        root.mkdir()
        flags, _, inputs, outputs = command_runs(root)[command]
        read = {name: sha256(p) for name, p in inputs.items()}
        flags = [inputs[label] if arg == outputs[0] else arg for arg in flags]
        assert main([*command.split(), *map(str, flags)]) == 0
        assert sha256(inputs[label]) != read[label]
        manifest = json.loads(Path(f"{inputs[label]}.manifest.json").read_text())
        assert manifest["inputs"] == {name: {"path": str(p), "sha256": read[name]} for name, p in inputs.items()}
    capsys.readouterr()


@pytest.mark.parametrize("command, flag, code", [
    ("simulate", "--detector", 2), ("simulate", "--out", 2), ("analyze", "--tags", 2), ("analyze", "--source", 2),
    ("analyze", "--hist", 2), ("scan", "--filter", 2), ("scan-analyze", "--dwell", 4),
    ("scan-analyze", "--filter", 2), ("scan-analyze", "--detector", 2),
    ("switch sweep-config", "--wavelength", 4), ("switch sweep-wavelength", "--model", 2),
    ("switch plan", "--table", 2), ("switch plan", "--classical-band", 4), ("switch plan", "--quantum-band", 4),
])
def test_empty_flag_value_is_refused(tmp_path, capsys, command, flag, code):
    # an empty flag once counted as not given: the default detector, no histogram, the default dwell
    flags, _, _, outputs = command_runs(tmp_path)[command]
    flags = [str(arg) for arg in flags]
    flags = flags[:flags.index(flag)] + flags[flags.index(flag) + 2:] if flag in flags else flags
    assert main([*command.split(), *flags, flag, ""]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = [json.loads(line) for line in captured.err.splitlines()]
    assert len(err) == 1 and err[0]["error"] == {2: "E_INPUT", 4: "E_PARAM"}[code]
    if code == 2:
        assert err[0]["message"] == f"xtalk {command}: argument {flag}: invalid path value: ''"
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("key", ["source", "detector"])
@pytest.mark.parametrize("value", [5, "abc", [1], None])
def test_sidecar_entry_that_is_not_an_object_is_input_error(tmp_path, capsys, key, value):
    # such an entry was once skipped, and the run reported "couplings not estimated"
    command_runs(tmp_path)
    write_json(tmp_path / "tags.csv.meta.json", {"source": SOURCE, "detector": DETECTOR, key: value})
    out = tmp_path / "report.json"
    argv = ["analyze", "--tags", tmp_path / "tags.csv", "--topology", tmp_path / "topo.json", "--out", out]
    assert main(list(map(str, argv))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "E_INPUT", "message": f"metadata.{key}: expected a JSON object"}]
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("simulate", "--out"), ("analyze", "--hist"), ("switch plan", "--out")])
def test_unwritable_output_is_input_error(tmp_path, capsys, command, flag):
    flags = [str(arg) for arg in command_runs(tmp_path)[command][0]]
    missing = tmp_path / "missing" / "out.dat"
    flags[flags.index(flag) + 1] = str(missing)
    assert main([*command.split(), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "E_INPUT"
    assert str(missing) in json.loads(err[0])["message"]


@pytest.mark.parametrize("flags, expected", [
    # the label holds a comma, so it is quoted; a measured -inf stays -inf
    (["sweep-config", "--table", "TABLE", "--wavelength", "1310"], b'config,xtalk_db\n"1->4,2->3",-inf\n'),
    (["sweep-config"], b'config,xtalk_db\n"1->4,2->3",-50.000000\n'),
    (["sweep-wavelength", "--aggressor", "1:4", "--victim", "2:3", "--grid", "1300:1320:7.5"],
     b"lambda_nm,xtalk_db\n1300.000000,-50.333333\n1307.500000,-50.083333\n1315.000000,-49.833333\n"),
    (["sweep-wavelength", "--table", "TABLE", "--aggressor", "1:4", "--victim", "2:3", "--grid", "1310:1550:120"],
     b"lambda_nm,xtalk_db\n1310.000000,-inf\n1430.000000,-inf\n1550.000000,-40.250000\n"),
], ids=["config-measured", "config-model", "wavelength-model", "wavelength-measured"])
def test_switch_sweep_csv_bytes(tmp_path, capsys, flags, expected):
    table = tmp_path / "table.csv"
    table.write_text("a_in,a_out,v_in,v_out,lambda_nm,xtalk_db\n1,4,2,3,1310,-inf\n1,4,2,3,1550,-40.25\n")
    flags = [str(table) if flag == "TABLE" else flag for flag in flags]
    out = tmp_path / "out.csv"
    assert main(["switch", *flags, "--n-in", "2", "--n-out", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    capsys.readouterr()


def test_report_key_sets(tmp_path, capsys):
    runs = command_runs(tmp_path)
    for command in ("simulate", "analyze", "scan", "scan-analyze", "switch plan"):
        assert main([*command.split(), *map(str, runs[command][0])]) == 0
    capsys.readouterr()
    tags = strict_json(tagio.metadata_path(tmp_path / "run.xtt1").read_text())
    assert set(tags) == {
        "schema_version", "kind", "generator", "numpy_version", "pulses_per_chunk", "seed", "duration_s", "n_pulses",
        "period_ps", "timing_sigma_ps", "source", "detector", "aggressor_fiber", "victim_fiber", "points",
        "n_triggers", "n_darks", "n_detector_tags", "dropped_negative_time", "dropped_dead_time"}
    assert [set(point) for point in tags["points"]] == [{
        "position_m", "source_element", "coupling_db", "delay_ps", "mu_optical_per_pulse", "photons_arrived",
        "photons_after_efficiency"}]
    scan = strict_json(tagio.metadata_path(tmp_path / "scan_out.csv").read_text())
    assert set(scan) == {
        "schema_version", "kind", "generator", "numpy_version", "seed", "dwell_s", "filter", "detector", "lines"}
    assert [set(line) for line in scan["lines"]] == [{"wavelength_nm", "rate_photons_per_s"}]
    report = strict_json((tmp_path / "report.json").read_text())
    assert set(report) == {
        "schema_version", "kind", "parameters", "histogram", "baseline", "peaks", "located", "diagnostics"}
    assert set(report["parameters"]) == {
        "tags", "topology", "bin_width_ps", "k_sigma", "min_separation_bins"}
    assert set(report["histogram"]) == {
        "bin_width_ps", "period_ps", "n_bins", "total_counts", "total_triggers", "live_time_s"}
    assert set(report["baseline"]) == {"level", "noise_scale"}
    assert [set(peak) for peak in report["peaks"]] == [{
        "bin_index", "delay_ps", "amplitude_counts", "background_counts", "significance_sigma", "fwhm_ps"}]
    assert [set(loc) for loc in report["located"]] == [{
        "distance_m", "distance_uncertainty_m", "coupling_db", "coupling_uncertainty_db", "matched_element",
        "raw_counts", "corrected_counts", "min_live_fraction", "region_bins"}]
    assert set(report["diagnostics"]) == {
        "dropped_before_first_trigger", "dropped_beyond_period", "dropped_outside_window",
        "period_jitter_ppm", "irregular_period", "notes"}
    lines = strict_json((tmp_path / "lines_out.json").read_text())
    assert set(lines) == {"schema_version", "kind", "parameters", "background_counts_per_point",
                          "background_uncertainty_counts_per_point", "lines"}
    assert set(lines["parameters"]) == {"scan", "k_sigma", "dwell_s", "filter", "detector"}
    assert [set(line) for line in lines["lines"]] == [{
        "wavelength_nm", "rate_per_s", "rate_uncertainty_per_s", "line_rate_photons_per_s",
        "line_rate_uncertainty_photons_per_s", "significance_sigma"}]
    plan = strict_json((tmp_path / "plan.json").read_text())
    assert set(plan) == {"schema_version", "kind", "objective_db", "method", "classical", "quantum"}
    placements = plan["classical"] + plan["quantum"]
    assert [set(p) for p in placements] == [{"input", "output", "wavelength_nm"}] * 2


def test_failed_run_leaves_no_stale_manifest(tmp_path, capsys):
    flags = [str(arg) for arg in command_runs(tmp_path)["analyze"][0]]
    report = tmp_path / "report.json"
    manifest = tmp_path / "report.json.manifest.json"
    assert main(["analyze", *flags]) == 0
    first = manifest.read_bytes()
    # fails before writing anything: the first run's manifest still describes report.json
    assert main(["analyze", *flags, "--bin", "abc"]) == 4
    assert manifest.read_bytes() == first
    # rewrites report.json, then cannot write the histogram
    flags[flags.index("--hist") + 1] = str(tmp_path / "missing" / "h.csv")
    assert main(["analyze", *flags, "--bin", "200ps"]) == 2
    assert json.loads(report.read_text())["parameters"]["bin_width_ps"] == 200
    assert not manifest.exists()
    capsys.readouterr()


def test_failed_sidecar_write_leaves_no_stale_manifest(tmp_path, capsys):
    flags = [str(arg) for arg in command_runs(tmp_path)["simulate"][0]]
    tags, sidecar = tmp_path / "run.xtt1", tmp_path / "run.xtt1.meta.json"
    manifests = [Path(f"{tags}.manifest.json"), Path(f"{sidecar}.manifest.json")]
    assert main(["simulate", *flags]) == 0
    assert all(manifest.is_file() for manifest in manifests)
    # rewrites run.xtt1, then cannot write the sidecar
    sidecar.unlink()
    sidecar.mkdir()
    assert main(["simulate", *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_INPUT"
    assert not any(manifest.exists() for manifest in manifests)


def test_rewritten_outputs_equal_a_fresh_run(tmp_path, capsys):
    flags = [str(arg) for arg in command_runs(tmp_path)["analyze"][0]]
    fresh = [tmp_path / "fresh_report.json", tmp_path / "fresh_hist.csv"]
    for flag, path in zip(("--out", "--hist"), fresh):
        flags[flags.index(flag) + 1] = str(path)
    assert main(["analyze", *flags]) == 0
    outputs = [tmp_path / "report.json", tmp_path / "hist.csv"]
    for flag, path in zip(("--out", "--hist"), outputs):
        path.write_bytes(b"junk" * 2**18)  # longer than either output
        flags[flags.index(flag) + 1] = str(path)
    assert main(["analyze", *flags]) == 0
    capsys.readouterr()
    for path, want in zip(outputs, fresh):
        assert path.read_bytes() == want.read_bytes()
        manifest = json.loads((tmp_path / f"{path.name}.manifest.json").read_text())
        assert manifest["outputs"] == {str(p): {"sha256": sha256(p)} for p in outputs}


@pytest.mark.parametrize("command, sidecar", [("simulate", "run.xtt1.meta.json"), ("scan", "scan_out.csv.meta.json")])
def test_manifests_and_sidecars_name_the_numpy(tmp_path, capsys, command, sidecar):
    flags, _, _, outputs = command_runs(tmp_path)[command]
    assert main([*command.split(), *map(str, flags)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / f"{outputs[0].name}.manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    assert json.loads((tmp_path / sidecar).read_text())["numpy_version"] == np.__version__


@pytest.mark.parametrize("command, extra, flag", [
    ("simulate", ["--jobs", "2"], "--jobs"),
    ("simulate", ["--jobs", "0"], "--jobs"),
    ("simulate", ["--lax"], "--lax"),
    ("analyze", ["--lax"], "--lax"),
    ("analyze", ["--window", "0:1us"], "--window"),
    ("switch plan", ["--oracle"], "--oracle"),
])
def test_removed_options_are_input_errors(tmp_path, capsys, command, extra, flag):
    flags, _, _, outputs = command_runs(tmp_path)[command]
    assert main([*command.split(), *map(str, flags), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "E_INPUT"
    assert flag in json.loads(err[0])["message"]
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", ["analyze", "scan-analyze"])
@pytest.mark.parametrize("k_sigma", ["inf", "nan"])
def test_non_finite_k_sigma_is_parameter_error(tmp_path, capsys, command, k_sigma):
    # an infinite k_sigma once found no peaks and wrote "k_sigma": Infinity, which is not JSON
    flags, _, _, outputs = command_runs(tmp_path)[command]
    assert main([command, *map(str, flags), "--k-sigma", k_sigma]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert [json.loads(line) for line in err] == [
        {"error": "E_PARAM", "message": f"k_sigma must be finite, got {k_sigma}"}]
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command, flags, message", [
    ("analyze", ["--k-sigma", "nan"], "k_sigma must be finite, got nan"),
    ("analyze", ["--bin", "abc"], "--bin: cannot parse quantity 'abc'"),
    ("analyze", ["--min-separation", "-1"], "min_separation_bins must be an integer >= 0, got -1"),
    ("scan-analyze", ["--k-sigma", "nan"], "k_sigma must be finite, got nan"),
    ("scan-analyze", ["--dwell", "0"], "--dwell must be > 0.0, got 0.0"),
    ("scan-analyze", ["--dwell=-1s"], "--dwell must be > 0.0, got -1.0"),
    ("scan", ["--grid", "1310:1300:1", "--dwell", "1"], "--grid: need start <= stop and step > 0, got '1310:1300:1'"),
    ("scan", ["--grid", "1300:1310:1", "--dwell", "0"], "--dwell must be > 0.0, got 0.0"),
    ("simulate", ["--duration", "0x"], "--duration: unknown time unit 'x' in '0x'"),
    ("simulate", ["--duration", "0"], "--duration must be > 0.0, got 0.0"),
    ("simulate", ["--duration", "1.2.3s"], "--duration: cannot parse number in '1.2.3s'"),
    # a quantity may have ASCII spaces around it only, though the CSV readers strip any Unicode space
    ("simulate", ["--duration", "\u00a05s"], "--duration: cannot parse quantity " + repr("\u00a05s")),
    ("scan", ["--grid", "1300:1310:1", "--dwell", "1s\u3000"], "--dwell: cannot parse quantity " + repr("1s\u3000")),
    ("scan", ["--grid", "1300:1310:\u00a01", "--dwell", "1"], "--grid: cannot parse quantity " + repr("\u00a01")),
    ("scan-analyze", ["--dwell", "\u30001"], "--dwell: cannot parse quantity " + repr("\u30001")),
    ("analyze", ["--bin", "100ps\u00a0"], "--bin: cannot parse quantity " + repr("100ps\u00a0")),
    ("switch sweep-config", ["--wavelength", "\u00a01310"], "--wavelength: cannot parse quantity " + repr("\u00a01310")),
    ("switch sweep-wavelength", ["--grid", "1300\u3000:1310:1"], "--grid: cannot parse quantity " + repr("1300\u3000")),
    ("switch sweep-wavelength", ["--grid", "1310:1300:1"], "--grid: need start <= stop and step > 0, got '1310:1300:1'"),
    ("switch sweep-config", ["--wavelength", "5q"], "--wavelength: unknown wavelength unit 'q' in '5q'"),
    ("switch plan", ["--classical", "1", "--quantum", "1", "--classical-band", "X"],
     "--classical-band: unknown band 'X'; presets are ['C', 'O']"),
    ("simulate", ["--duration", "1s", "--seed", str(2**64)], f"seed must be an integer in [0, 2^64), got {2**64}"),
    ("simulate", ["--duration", "1s", "--seed=-1"], "seed must be an integer in [0, 2^64), got -1"),
    ("scan", ["--grid", "1300:1310:1", "--dwell", "1", "--seed", str(2**64)],
     f"seed must be an integer in [0, 2^64), got {2**64}"),
    ("scan", ["--grid", "1300:1310:1", "--dwell", "1", "--seed=-1"], "seed must be an integer in [0, 2^64), got -1"),
    ("simulate", ["--duration", "1s", "--max-tags", "0"], "max_tags must be an integer >= 1, got 0"),
    ("simulate", ["--duration", "1s", "--max-tags", "50000001"], "max_tags must be at most 50000000, got 50000001"),
    ("switch plan", ["--classical=-1", "--quantum", "1"], "k_classical must be an integer >= 0, got -1"),
    ("switch plan", ["--classical", "1", "--quantum=-1"], "k_quantum must be an integer >= 0, got -1"),
    ("switch plan", ["--classical", "1", "--quantum", "1", "--n-in", "0"], "n_in must be an integer >= 1, got 0"),
    ("switch plan", ["--classical", "1", "--quantum", "1", "--n-out", "0"], "n_out must be an integer >= 1, got 0"),
    ("scan", ["--grid", "900:950:10", "--dwell", "1"], "wavelength 900.0 nm outside validated range [1000, 2000] nm"),
    ("switch sweep-wavelength", ["--grid", "900:950:10"], "wavelength 900.0 nm outside validated range [1000, 2000] nm"),
    ("switch sweep-config", ["--wavelength", "900"], "wavelength 900.0 nm outside validated range [1000, 2000] nm"),
    ("switch plan", ["--classical", "1", "--quantum", "1", "--quantum-band", "900,950"],
     "wavelength 900.0 nm outside validated range [1000, 2000] nm"),
], ids=["analyze-k-sigma", "analyze-bin", "analyze-min-separation",
        "scan-analyze-k-sigma", "scan-analyze-dwell-zero", "scan-analyze-dwell-negative", "scan-grid-reversed",
        "scan-dwell-zero", "simulate-duration-unit", "simulate-duration-zero", "simulate-duration-two-points",
        "simulate-duration-nbsp", "scan-dwell-ideographic-space", "scan-grid-nbsp",
        "scan-analyze-dwell-ideographic-space", "analyze-bin-nbsp", "sweep-config-wavelength-nbsp",
        "sweep-wavelength-grid-ideographic-space", "sweep-wavelength-grid-reversed",
        "sweep-config-wavelength-unit", "plan-band", "simulate-seed-2^64", "simulate-seed-negative", "scan-seed-2^64",
        "scan-seed-negative", "simulate-max-tags-zero", "simulate-max-tags-over-cap", "plan-classical-negative",
        "plan-quantum-negative", "plan-n-in-zero", "plan-n-out-zero", "scan-grid-range",
        "sweep-wavelength-grid-range", "sweep-config-wavelength-range", "plan-band-range"])
def test_bad_flag_is_refused_before_the_input_is_read(tmp_path, capsys, command, flags, message):
    # the input does not exist: a flag checked only after the read would exit 2
    out = tmp_path / "out.json"
    missing = str(tmp_path / "missing.json")
    given = {"analyze": ["--tags", str(tmp_path / "missing.csv"), "--topology", str(tmp_path / "topo.json")],
             "scan-analyze": ["--scan", str(tmp_path / "missing.csv")],
             "scan": ["--lines", missing, "--seed", "1"],
             "simulate": ["--topology", missing, "--source", str(tmp_path / "s.json"), "--seed", "1"]
             }.get(command, ["--model", missing])
    assert main([*command.split(), *given, *flags, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [{"error": "E_PARAM", "message": message}]
    assert not out.exists()


def test_parse_path():
    assert cli.parse_path("1:10", "--aggressor") == (1, 10)
    assert cli.parse_path(" 2 : 9 ", "--victim") == (2, 9)
    assert cli.parse_path("+3:-12", "--victim") == (3, -12)  # switch_xtalk_db refuses the port


@pytest.mark.parametrize("text", [
    "1-10", "1:10,2:9", "1:10,", "", "1", "1:", ":10", "a:b", "1:10:3", "1.0:10",
    "1_0:10", "1:1_0", "\u0661:10", "1:\uff11\uff10",
])
def test_parse_path_rejects(text):
    with pytest.raises(fx.ParameterError) as err:
        cli.parse_path(text, "--aggressor")
    assert str(err.value) == f"--aggressor: expected one 'in:out', got {text!r}"
    assert err.value.code == "E_PARAM"


def test_integer_reads_the_csv_grammar():
    # spaces around the field, an optional sign, then ASCII digits; int() takes more
    assert [cli.integer(text) for text in ("7", " 7 ", "+7", "-7", "\t007\n")] == [7, 7, 7, -7, 7]
    for text in ("1_0", "\u0661", "\uff11", "\u00a07", "1.0", "0x1", "1e3", "", " ", "+", "1 0", "--1"):
        with pytest.raises(ValueError):
            cli.integer(text)


INTEGER_FLAGS = [
    ("switch plan", "--n-in"), ("switch plan", "--n-out"), ("switch plan", "--classical"),
    ("switch plan", "--quantum"), ("simulate", "--seed"), ("simulate", "--max-tags"), ("simulate", "--jobs"),
    ("analyze", "--min-separation"), ("scan", "--seed"), ("switch sweep-config", "--classical-in"),
    ("switch sweep-config", "--victim-out"),
]


@pytest.mark.parametrize("value", ["1_0", "\u0661"])
@pytest.mark.parametrize("command, flag", INTEGER_FLAGS)
def test_integer_flag_outside_the_csv_grammar_is_input_error(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    assert main([*command.split(), flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "E_INPUT", "message": f"xtalk {command}: argument {flag}: invalid integer value: {value!r}"}]
    assert not out.exists()


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0660"])
@pytest.mark.parametrize("command", ["analyze", "scan-analyze"])
def test_float_flag_outside_the_csv_grammar_is_input_error(tmp_path, capsys, command, value):
    # float() reads both as 10.0
    out = tmp_path / "out"
    assert main([command, "--k-sigma", value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "E_INPUT", "message": f"xtalk {command}: argument --k-sigma: invalid number value: {value!r}"}]
    assert not out.exists()


def test_cli_import_loads_no_thread_pool():
    # and starts no thread: the tag file's helper starts only once an analyze has read it
    code = ("import sys, threading, fiberxtalk.cli; "
            "sys.exit('concurrent.futures' in sys.modules or threading.active_count() != 1)")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}).returncode == 0


# --- a large tag file is hashed on a helper thread -----------------------------------


@pytest.fixture(scope="module")
def large_tags(tmp_path_factory):
    """A topology and one simulated capture of it, as XTT1 and as CSV, each at least ``HASH_THREAD_MIN_BYTES``."""
    root = tmp_path_factory.mktemp("large")
    topo = write_json(root / "topo.json", ANALYZE_TOPOLOGY)
    stream = fx.simulate_otdr_tags(
        fx.load_topology(ANALYZE_TOPOLOGY), fx.PulsedSource(**SOURCE), fx.Detector(**DETECTOR), 120.0, 5)
    files = {"xtt1": tagio.write_tags_xtt1(root / "tags.xtt1", stream), "csv": write_tags_csv(root / "tags.csv", stream)}
    tagio.write_metadata(files["xtt1"], stream.metadata)  # both formats carry the capture's sidecar
    assert min(path.stat().st_size for path in files.values()) >= cli.HASH_THREAD_MIN_BYTES
    return topo, files


@pytest.fixture
def helper_hashes(monkeypatch):
    """The files hashed on a helper thread, in the order the helpers started."""
    hashed = []
    run = cli._Sha256Thread.run

    def spy(self):
        hashed.append(self.path)
        run(self)

    monkeypatch.setattr(cli._Sha256Thread, "run", spy)
    return hashed


@pytest.mark.parametrize("fmt", ["xtt1", "csv"])
def test_large_tag_file_is_hashed_on_a_helper_thread(tmp_path, capsys, monkeypatch, large_tags, helper_hashes, fmt):
    topo, files = large_tags

    def analyze(stem):
        out, hist = tmp_path / f"{stem}.json", tmp_path / f"{stem}.csv"
        assert main(["analyze", "--tags", str(files[fmt]), "--topology", str(topo),
                     "--out", str(out), "--hist", str(hist)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        return out.read_bytes(), hist.read_bytes(), manifest["inputs"]["tags"]["sha256"]

    threaded = analyze("threaded")
    assert helper_hashes == [files[fmt]]
    monkeypatch.setattr(cli, "HASH_THREAD_MIN_BYTES", 2**62)
    inline = analyze("inline")
    assert helper_hashes == [files[fmt]]
    assert threaded == inline
    assert threaded[2] == sha256(files[fmt])
    capsys.readouterr()


def test_run_that_fails_after_the_read_leaves_no_thread(tmp_path, capsys, large_tags, helper_hashes):
    _, files = large_tags
    before = threading.active_count()
    out = tmp_path / "report.json"
    assert main(["analyze", "--tags", str(files["csv"]), "--topology", str(tmp_path / "absent.json"),
                 "--out", str(out)]) == 2
    assert helper_hashes == [files["csv"]]
    assert threading.active_count() == before
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_INPUT"
    assert not out.exists()


@pytest.mark.parametrize("size", ["small", "large"])
def test_tag_file_that_is_also_an_output_gets_the_digest_of_the_bytes_read(
        tmp_path, capsys, large_tags, helper_hashes, size):
    topo, files = large_tags
    tags, out = tmp_path / "tags.csv", tmp_path / "report.json"
    tags.write_bytes(files["csv"].read_bytes() if size == "large" else
                     b"\n".join([b"channel,time_ps", *TAG_ROWS]) + b"\n")
    read = sha256(tags)
    assert main(["analyze", "--tags", str(tags), "--topology", str(topo), "--out", str(out),
                 "--hist", str(tags)]) == 0
    capsys.readouterr()
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["inputs"]["tags"]["sha256"] == read
    assert manifest["outputs"][str(tags)]["sha256"] == sha256(tags) != read
    assert helper_hashes == ([tags] if size == "large" else [])


@pytest.mark.parametrize("when", ["before-the-helper", "in-the-helper"])
def test_tag_file_removed_after_the_read_is_input_error(tmp_path, capsys, monkeypatch, large_tags, when):
    topo, files = large_tags
    tags, out = tmp_path / "tags.xtt1", tmp_path / "report.json"
    tags.write_bytes(files["xtt1"].read_bytes())
    read_tags, run = tagio.read_tags, cli._Sha256Thread.run

    def read_then_remove(path):
        stream = read_tags(path)
        Path(path).unlink()
        return stream

    def remove_then_hash(self):
        self.path.unlink()
        run(self)

    if when == "before-the-helper":
        monkeypatch.setattr(tagio, "read_tags", read_then_remove)
    else:
        monkeypatch.setattr(cli._Sha256Thread, "run", remove_then_hash)
    before = threading.active_count()
    assert main(["analyze", "--tags", str(tags), "--topology", str(topo), "--out", str(out)]) == 2
    assert threading.active_count() == before
    assert not tags.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "E_INPUT"
    assert str(tags) in json.loads(err[0])["message"]
    assert not Path(f"{out}.manifest.json").exists()


def test_output_path_that_is_a_directory_is_input_error(tmp_path, capsys):
    flags = [str(arg) for arg in command_runs(tmp_path)["analyze"][0]]
    flags[flags.index("--out") + 1] = str(tmp_path)
    assert main(["analyze", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "E_INPUT"


# --- malformed inputs never escape the exit-code contract -------------------------

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def mutated(doc):
    """``doc`` itself, ``doc`` with one key set to junk, added or dropped, or junk."""
    keys = sorted(doc)
    return st.one_of(
        st.just(doc),
        st.builds(lambda k, v: {**doc, k: v}, st.sampled_from(keys + ["bogus"]), JUNK),
        st.sampled_from(keys).map(lambda k: {key: v for key, v in doc.items() if key != k}),
        JUNK,
    )


def mutated_topology():
    doc = topology_doc([connector_doc("mpoA", 150.0)])
    return st.one_of(
        mutated(doc),
        mutated(doc["spans"][0]).map(lambda span: {**doc, "spans": [span]}),
        mutated(doc["connectors"][0]).map(lambda conn: {**doc, "connectors": [conn]}),
    )


SOURCE = {"avg_power_w": power_for_mu_det(0.2, -100.0), "rep_rate_hz": 1000.0,
          "pulse_width_ps": 100.0, "wavelength_nm": 1550.0}
DETECTOR = {"efficiency": 0.85, "dark_rate_hz": 100.0, "jitter_sigma_ps": 50.0, "dead_time_ps": 50000}
TIMES = st.sampled_from(["10ms", "1ms", "10", "0", "-1ms", "1e999", "nan", "abc", "", "3 ms", "10 parsecs"])


def simulate_case():
    files = st.fixed_dictionaries({
        "topo.json": mutated_topology(), "source.json": mutated(SOURCE), "detector.json": mutated(DETECTOR),
    })
    seeds = st.sampled_from(["1", "-1", str(2**64)])
    # --max-tags bounds the work of any duration or rate the documents ask for
    return st.tuples(files, TIMES, seeds, st.sampled_from(["1", "2", "0"])).map(lambda case: (case[0], [
        "simulate", "--topology", "topo.json", "--source", "source.json", "--detector", "detector.json",
        f"--duration={case[1]}", f"--seed={case[2]}", f"--jobs={case[3]}", "--max-tags=10000", "--out", "run.xtt1"]))


def scan_case():
    line = {"wavelength_nm": 1310.0, "rate_photons_per_s": 1e3}
    files = st.fixed_dictionaries({
        "lines.json": st.one_of(mutated(line).map(lambda entry: [entry]), JUNK),
        "filter.json": mutated({"fwhm_nm": 0.8, "insertion_loss_db": 3.0}),
    })
    grids = st.sampled_from(["1300:1310:1", "1310:1300:1", "900:950:10", "1300:1310", "a:b:c", "1300:1310:0"])
    return st.tuples(files, grids, TIMES).map(lambda case: (case[0], [
        "scan", "--lines", "lines.json", "--filter", "filter.json",
        f"--grid={case[1]}", f"--dwell={case[2]}", "--seed=1", "--out", "s.csv"]))


CSV_FIELDS = st.sampled_from([
    b"0", b"1", b"2", b"-1", b" 1 ", b'"1"', b"1.5", b"-40", b"5_0", b"nan", b"inf", b"", b" ", b"#1", b"abc",
    str(2**63 - 1).encode(), str(2**63).encode(), b"1" + b"0" * 23, b"\xff", b"\x00", b'"',
])


def junk_row(good_rows):
    """A good row with one field replaced by junk or junk appended, or a row of junk fields."""
    def mutate(row, index, field):
        fields = row.split(b",")
        fields[index:index + 1] = [field]
        return b",".join(fields)

    n_fields = good_rows[0].count(b",") + 1
    mutated_row = st.builds(mutate, st.sampled_from(good_rows), st.integers(0, n_fields), CSV_FIELDS)
    return st.one_of(mutated_row, mutated_row, mutated_row, st.lists(CSV_FIELDS, min_size=1, max_size=7).map(b",".join))


def csv_body(header, good_rows):
    """A CSV file: mostly ``header``, ``good_rows`` or none, then one to four junk rows."""
    headers = st.sampled_from([header, header, header, b"x,y"])
    return st.tuples(headers, st.booleans(), st.lists(junk_row(good_rows), min_size=1, max_size=4)).map(
        lambda case: b"\n".join([case[0], *(good_rows if case[1] else []), *case[2]]) + b"\n")


SCAN_ROWS = [f"{1300 + 0.5 * i},{500 if i == 10 else 3}".encode() for i in range(21)]


SCAN_ANALYZE_ARGV = ["scan-analyze", "--scan", "s.csv", "--out", "r.json"]


def scan_analyze_case():
    sidecar = {"dwell_s": 1.0, "filter": {"fwhm_nm": 0.8, "insertion_loss_db": 3.0}, "detector": DETECTOR}
    return st.tuples(
        csv_body(b"lambda_nm,counts", SCAN_ROWS), mutated(sidecar),
        st.one_of(st.just([]), TIMES.map(lambda t: [f"--dwell={t}"])),
    ).map(lambda case: ({"s.csv": case[0], "s.csv.meta.json": case[1]}, [*SCAN_ANALYZE_ARGV, *case[2]]))


# 20 triggers at 1 MHz, each followed by a detector tag 500 ps later
TAG_ROWS = [row for k in range(20) for row in (f"0,{k * 10**6}".encode(), f"1,{k * 10**6 + 500}".encode())]


ANALYZE_TOPOLOGY = topology_doc([connector_doc("mpoA", 150.0)])
ANALYZE_ARGV = ["analyze", "--tags", "tags.csv", "--topology", "topo.json", "--out", "report.json", "--hist", "hist.csv"]


def analyze_case():
    bins = st.one_of(st.just([]), TIMES.map(lambda t: [f"--bin={t}"]))
    return st.tuples(csv_body(b"channel,time_ps", TAG_ROWS), bins).map(lambda case: (
        {"tags.csv": case[0], "topo.json": ANALYZE_TOPOLOGY}, [*ANALYZE_ARGV, *case[1]]))


# a measured entry for every (aggressor, victim) path pair of a 2x2 switch, at two wavelengths
TABLE_ROWS = [f"{a},{b},{3 - a},{7 - b},{nm},-40".encode() for a in (1, 2) for b in (3, 4) for nm in (1310, 1550)]


TABLE_KEEPS = {"n_in": 2, "n_out": 2, "reference_nm": 1310.0}


def table_plan_case():
    # a document beside --table: what the table keeps, mutated, or with a key the table would drop
    models = st.one_of(mutated(TABLE_KEEPS), st.sampled_from(["c0_db", "floor_db", "slope_db_per_nm", "table"]).map(
        lambda key: {**TABLE_KEEPS, key: -40.0}))
    return st.tuples(csv_body(b"a_in,a_out,v_in,v_out,lambda_nm,xtalk_db", TABLE_ROWS), models).map(lambda case: (
        {"table.csv": case[0], "model.json": case[1]},
        ["switch", "plan", "--table", "table.csv", "--model", "model.json", "--n-in=2", "--n-out=2", "--classical=1",
         "--quantum=1", "--out", "plan.json"]))


def plan_case():
    small = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["1.5", "abc", "1_0", "1000000", str(2**70)]))
    flags = st.lists(st.one_of(
        st.tuples(st.sampled_from(["--n-in", "--n-out", "--classical", "--quantum"]), small),
        st.tuples(st.sampled_from(["--classical-band", "--quantum-band"]),
                  st.sampled_from(["O", "C", "X", "1300,1320", "1300,abc", "900,950", "1320,1300"])),
    ), max_size=3)
    model = mutated({"c0_db": -50.0, "reference_nm": 1310.0, "floor_db": -120.0, "slope_db_per_nm": 0.03})
    return st.tuples(model, flags).map(lambda case: (
        {"model.json": case[0]},
        ["switch", "plan", "--model", "model.json", "--n-in=2", "--n-out=2", "--classical=1", "--quantum=1",
         *(f"{flag}={value}" for flag, value in case[1]), "--out", "plan.json"]))


# runs whose tag times pass 2^63 ps, which once ended in an OverflowError traceback, in wrapped trigger times (exit 3)
# and in a cast to int64 that warned and dropped every photon as a negative time (exit 0)
INT64_OVERFLOW_CASES = {"rate-1e-7": ({"rep_rate_hz": 1e-7}, {}, "3e7s"), "rate-2e-7": ({"rep_rate_hz": 2e-7}, {}, "3e7s"),
                        "jitter-1e300": ({}, {"jitter_sigma_ps": 1e300}, "0.1s")}


def int64_overflow_case(name):
    source, detector, duration = INT64_OVERFLOW_CASES[name]
    return ({"topo.json": ANALYZE_TOPOLOGY, "source.json": {"avg_power_w": 1e-24, **source},
             "detector.json": {"dark_rate_hz": 0.0, **detector}},
            ["simulate", "--topology", "topo.json", "--source", "source.json", "--detector", "detector.json",
             f"--duration={duration}", "--seed=1", "--out", "run.xtt1"])


@pytest.mark.parametrize("name", sorted(INT64_OVERFLOW_CASES))
def test_tag_times_past_int64_exit_4_before_the_draw(tmp_path, capsys, name):
    files, argv = int64_overflow_case(name)
    for file, doc in files.items():
        write_json(tmp_path / file, doc)
    argv = [str(tmp_path / arg) if arg.endswith((".json", ".xtt1")) else arg for arg in argv]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["error"] == "E_PARAM" and "an int64 time must stay below 2^63 ps" in error["message"]
    assert not (tmp_path / "run.xtt1").exists()


@pytest.mark.parametrize("kind, doc, message", [
    ("topology", {**ANALYZE_TOPOLOGY, "schema_version": 2},
     "topology.schema_version: unsupported version 2 (expected 1)"),
    ("topology", {**ANALYZE_TOPOLOGY, "spans": ANALYZE_TOPOLOGY["spans"][0]}, "topology.spans: expected an array"),
    ("topology", {**ANALYZE_TOPOLOGY, "connectors": ANALYZE_TOPOLOGY["connectors"][0]},
     "topology.connectors: expected an array"),
    ("topology", {**ANALYZE_TOPOLOGY, "probe": {"fiber": "agg", "end": "far"}},
     "topology.probe.end: expected one of ('near',), got 'far'"),
    ("topology", {**ANALYZE_TOPOLOGY, "victim": {"fiber": "vic", "end": "far"}},
     "topology.victim.end: expected one of ('near',), got 'far'"),
    ("topology", {**ANALYZE_TOPOLOGY, "connectors": [connector_doc("mpoA", 150.0, lanes=["agg", "vic"])]},
     "topology.connectors[0].lanes: expected an object of fiber -> lane"),
    ("topology", {**ANALYZE_TOPOLOGY, "spans": [{**ANALYZE_TOPOLOGY["spans"][0], "attenuation_db_per_km": None}]},
     "topology.spans[0].attenuation_db_per_km: expected a number or a sequence of (nm, dB/km) pairs"),
    ("lines", {"wavelength_nm": 1310.0, "rate_photons_per_s": 1e3},
     "lines: expected a JSON array of {wavelength_nm, rate_photons_per_s}"),
    # an integer field follows units.is_int: a float or a boolean is not an integer, though it equals one
    ("topology", {**ANALYZE_TOPOLOGY, "connectors": [connector_doc("mpoA", 150.0, lane_count=12.0)]},
     "topology.connectors[0].lane_count must be an integer >= 1, got 12.0"),
    ("topology", {**ANALYZE_TOPOLOGY, "schema_version": True},
     "topology.schema_version must be an integer >= 1, got True"),
    ("topology", {**ANALYZE_TOPOLOGY, "schema_version": 1.0},
     "topology.schema_version must be an integer >= 1, got 1.0"),
], ids=["schema-version-2", "spans-object", "connectors-object", "probe-end-far", "victim-end-far", "lanes-list",
        "attenuation-null", "lines-object", "lane-count-float", "schema-version-true", "schema-version-float"])
def test_document_of_the_wrong_shape_exits_2(tmp_path, plant_files, capsys, kind, doc, message):
    _, source, _ = plant_files
    bad, out = write_json(tmp_path / f"bad_{kind}.json", doc), tmp_path / "out"
    if kind == "topology":
        argv = ["simulate", "--topology", str(bad), "--source", str(source), "--duration", "1s", "--seed", "1"]
    else:
        argv = ["scan", "--lines", str(bad), "--grid", "1300:1310:1", "--dwell", "1s", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [{"error": "E_INPUT", "message": message}]
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("case, code, message", [
    ("topology-not-json", 2,
     "{topology}: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("tag-sidecar-array", 2, "{tags}.meta.json: expected a JSON object"),
    ("tags-missing", 2, "tag file not found: {missing}"),
    ("no-pulses", 4, "duration 1e-09 s yields no pulses at 1000.0 Hz"),
])
def test_documented_input_fault_exit(tmp_path, capsys, case, code, message):
    runs = command_runs(tmp_path)
    command = "simulate" if case in ("topology-not-json", "no-pulses") else "analyze"
    flags, _, _, outputs = runs[command]
    flags = [str(arg) for arg in flags]
    paths = {"topology": tmp_path / "topo.json", "tags": tmp_path / "tags.csv", "missing": tmp_path / "missing.csv"}
    if case == "topology-not-json":
        paths["topology"].write_text("{")
    elif case == "tag-sidecar-array":
        write_json(tmp_path / "tags.csv.meta.json", [])
    elif case == "tags-missing":
        flags[flags.index("--tags") + 1] = str(paths["missing"])
    else:  # 1 ns at 1 kHz rounds to 0 pulses
        flags[flags.index("--duration") + 1] = "1ns"
    assert main([command, *flags]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": {2: "E_INPUT", 4: "E_PARAM"}[code], "message": message.format(**paths)}]
    assert not any(path.exists() for path in outputs)


def test_irregular_trigger_spacing_is_a_report_note(tmp_path, capsys):
    # 20 triggers 1 us apart but one spacing 5 ps longer: 5 ppm of jitter
    rows = [row for k in range(20) for row in (f"0,{k * 10**6 + 5 * (k >= 10)}", f"1,{k * 10**6 + 5 * (k >= 10) + 500}")]
    tags = tmp_path / "tags.csv"
    tags.write_text("\n".join(["channel,time_ps", *rows]) + "\n")
    topo, out = write_json(tmp_path / "topo.json", ANALYZE_TOPOLOGY), tmp_path / "report.json"
    assert main(["analyze", "--tags", str(tags), "--topology", str(topo), "--out", str(out)]) == 0
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert diagnostics["irregular_period"] and diagnostics["period_jitter_ppm"] == 5.0
    assert "trigger spacing jitter 5.0 ppm exceeds 1 ppm; median period used" in diagnostics["notes"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(
    simulate_case(), scan_case(), scan_analyze_case(), plan_case(), analyze_case(), table_plan_case()))
# int64 overflows in a tag time and a scan count, which once escaped as OverflowError tracebacks
@example(case=({"tags.csv": b"channel,time_ps\n0,%d\n" % 2**63, "topo.json": ANALYZE_TOPOLOGY}, ANALYZE_ARGV))
@example(case=({"s.csv": b"lambda_nm,counts\n1300,%d\n" % 2**63, "s.csv.meta.json": {"dwell_s": 1.0}},
               SCAN_ANALYZE_ARGV))
# an infinite bin width, which once escaped as an OverflowError traceback
@example(case=({"tags.csv": b"\n".join([b"channel,time_ps", *TAG_ROWS]) + b"\n", "topo.json": ANALYZE_TOPOLOGY},
               [*ANALYZE_ARGV, "--bin=1e999"]))
@example(case=int64_overflow_case("rate-1e-7"))
@example(case=int64_overflow_case("rate-2e-7"))
@example(case=int64_overflow_case("jitter-1e300"))
def test_malformed_inputs_follow_exit_contract(fuzz_dir, case):
    files, argv = case
    for name, doc in files.items():
        if isinstance(doc, bytes):
            (fuzz_dir / name).write_bytes(doc)
        else:
            (fuzz_dir / name).write_text(json.dumps(doc))
    argv = [str(fuzz_dir / arg) if arg.endswith((".json", ".csv", ".xtt1")) else arg for arg in argv]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if any(arg in ("--jobs=2", "--jobs=0") for arg in argv):
        assert code == 2  # --jobs accepts only 1, and argparse reads it before any file
    model = files.get("model.json")
    if "--table" in argv and isinstance(model, dict) and set(model) - set(TABLE_KEEPS):
        assert code == 2  # --table refuses a document key it would drop, before the table is read
    lines = stderr.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and json.loads(lines[0])["error"].startswith("E_")
    else:
        assert lines == []
