"""Command-line front end: files in, files out, exit codes, manifests."""

import hashlib
import json

import pytest

import fiberxtalk as fx
from fiberxtalk.cli import main

from conftest import connector_doc, power_for_mu_det, topology_doc


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return path


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

    def test_byte_identical_reruns_across_jobs(self, tmp_path, plant_files):
        topo, source, detector = plant_files
        digests = []
        for i, jobs in enumerate(("1", "2", "4")):
            out = tmp_path / f"run{i}.xtt1"
            code = main([
                "simulate", "--topology", str(topo), "--source", str(source),
                "--detector", str(detector), "--duration", "3s", "--seed", "99",
                "--jobs", jobs, "--out", str(out),
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

    def test_bad_bin_width_is_parameter_error(self, tmp_path, plant_files, capsys):
        topo, source, detector = plant_files
        out = tmp_path / "run.xtt1"
        main([
            "simulate", "--topology", str(topo), "--source", str(source),
            "--detector", str(detector), "--duration", "1s", "--seed", "3",
            "--out", str(out),
        ])
        code = main([
            "analyze", "--tags", str(out), "--topology", str(topo),
            "--bin", "300ps", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "E_BIN_WIDTH"
        assert "320" in err["message"]

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


@pytest.mark.parametrize("kind,doc", [
    ("source", {"avg_power_w": "x"}),
    ("source", {"avg_power_w": 1e-6, "rep_rate_hz": [1000]}),
    ("detector", {"efficiency": "high"}),
    ("detector", {"dark_rate_hz": None}),
    ("filter", {"fwhm_nm": "0.8"}),
    ("lines", [{"wavelength_nm": "1310", "rate_photons_per_s": 1.0}]),
    ("lines", [{"wavelength_nm": 1310.0, "rate_photons_per_s": {}}]),
])
def test_non_numeric_field_is_input_error(tmp_path, plant_files, capsys, kind, doc):
    topo, source, detector = plant_files
    bad = write_json(tmp_path / f"bad_{kind}.json", doc)
    if kind in ("source", "detector"):
        files = {"source": source, "detector": detector, kind: bad}
        argv = ["simulate", "--topology", str(topo), "--source", str(files["source"]),
                "--detector", str(files["detector"]), "--duration", "1s", "--seed", "1",
                "--out", str(tmp_path / "x.xtt1")]
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

    def test_grid_outside_validated_range_is_input_error(self, tmp_path, capsys):
        lines = write_json(tmp_path / "lines.json", [])
        code = main([
            "scan", "--lines", str(lines), "--grid", "900:950:10",
            "--dwell", "1s", "--seed", "2", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "E_INPUT"


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

    def test_sweep_wavelength_flat_with_zero_slope(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main([
            "switch", "sweep-wavelength", "--slope", "0", "--grid", "1260:1560:50",
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

    def test_duplicate_port_is_config_error(self, tmp_path, capsys):
        code = main([
            "switch", "sweep-wavelength", "--aggressor", "1:10", "--victim", "1:9",
            "--grid", "1260:1560:50", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "E_CONFIG"

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

    @pytest.mark.parametrize("band", ["1500,abc", "1500,1550,1600", ","])
    def test_malformed_band_is_input_error(self, tmp_path, capsys, band):
        code = main([
            "switch", "plan", "--classical", "1", "--quantum", "1",
            "--classical-band", band, "--out", str(tmp_path / "plan.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "E_INPUT"

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
