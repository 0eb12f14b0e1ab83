"""Seeded input generators for the fiberxtalk benchmark.

Every file the program reads during a run is written here, from the workload
seed alone, before any timing starts. The generators use their own numpy code
and physical constants, so the planted truth they record is independent of the
program under test. Run as a script to generate one workload's inputs:

    python3 perfbench/inputs.py --workload capture-analyze --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

C_M_PER_S = 299_792_458.0
H_JOULE_S = 6.62607015e-34
GROUP_INDEX = 1.468
ATTENUATION_DB_PER_KM_1550 = 0.20  # the program's default table at 1550 nm
INSERTION_LOSS_DB = 0.3  # the program's default connector insertion loss
DETECTOR = {"efficiency": 0.85, "dark_rate_hz": 100.0, "jitter_sigma_ps": 50.0, "dead_time_ps": 50_000}
PULSE_WIDTH_PS = 100.0
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
WORKLOADS = ("otdr-sim", "capture-analyze", "scan-plan")

# Sizes per scale. "full" is what the benchmark measures; "smoke" is the
# benchmark's own fast self-test and only has to exercise every code path.
#   lab_s / campus_s: simulated acquisition; 20 s at 1 kHz and 0.4 s at
#     100 kHz give 20k and 40k pulses, about 1.2 s of per-pulse simulator
#     work per pass on one core, and ~0.1 dB statistical error per point.
#   capture_pulses: 300k triggers plus ~330k detector tags, about 0.63M
#     records, so the CSV parser (~1.6 us/row) and the 1e7-bin fold each take
#     a visible share of a ~2 s pass.
#   scan_step_nm: 0.1 nm over 1260-1620 nm is 3601 points, 3.4 per filter
#     sigma. A finer grid makes line wings hover at the threshold for more
#     points than detect_peaks' 3-point merge distance, so lines split.
SCALES = {
    "full": {"lab_s": "20s", "campus_s": "0.4s", "capture_pulses": 300_000, "scan_step_nm": 0.1},
    "smoke": {"lab_s": "2s", "campus_s": "0.04s", "capture_pulses": 20_000, "scan_step_nm": 0.2},
}

# Plan cases: (name, k_classical, k_quantum, extra CLI flags). The 8x8 (2,2)
# cases and 16x16 (1,1) fit the 1e6-state exhaustive limit; the others take
# the local-search path.
PLAN_CASES = (
    ("8x8_2_2", 2, 2, []),
    ("8x8_3_3", 3, 3, []),
    ("8x8_2_2_OC", 2, 2, ["--classical-band", "C", "--quantum-band", "O"]),
    ("8x8_2_2_table", 2, 2, ["--table", "table.csv"]),
    ("16x16_1_1", 1, 1, ["--n-in", "16", "--n-out", "16"]),
    ("16x16_2_2", 2, 2, ["--n-in", "16", "--n-out", "16"]),
)
TABLE_SEED = 2502
SWITCH_DEFAULTS = {"c0_db": -50.0, "beta_db_per_port": 5.0, "reference_nm": 1310.0,
                   "slope_db_per_nm": 10.0 / 300.0, "floor_db": -120.0}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def photon_energy_j(nm: float) -> float:
    return H_JOULE_S * C_M_PER_S / (nm * 1e-9)


def round_trip_delay_ps(spans: list[dict], distance_m: float) -> float:
    path, start = 0.0, 0.0
    for span in spans:
        overlap = min(distance_m, start + span["length_m"]) - start
        if overlap > 0.0:
            path += span.get("group_index", GROUP_INDEX) * overlap
        start += span["length_m"]
    return 2.0 * path / C_M_PER_S * 1e12


def round_trip_loss_db(connectors: list[dict], distance_m: float) -> float:
    """Outbound plus return loss to a point: fiber plus earlier connectors, both legs."""
    before = sum(1 for c in connectors if c["position_m"] < distance_m)
    return 2.0 * (ATTENUATION_DB_PER_KM_1550 * distance_m / 1000.0 + INSERTION_LOSS_DB * before)


def power_for_mu_det(mu_det: float, coupling_db: float, rep_rate_hz: float) -> float:
    """Average power giving ``mu_det`` detected photons per pulse at a lossless point."""
    mu_optical = mu_det / DETECTOR["efficiency"]
    return mu_optical * photon_energy_j(1550.0) * rep_rate_hz / 10.0 ** (coupling_db / 10.0)


def _connector(cid: str, position_m: float, coupling_db: float = -100.0) -> dict:
    return {"id": cid, "position_m": position_m, "lanes": {"agg": 5, "vic": 6},
            "base_coupling_db": coupling_db}


def _topology(spans: list[dict], connectors: list[dict]) -> dict:
    return {"spans": spans, "connectors": connectors,
            "probe": {"fiber": "agg", "end": "near"}, "victim": {"fiber": "vic", "end": "near"}}


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _truth_points(spans, connectors) -> list[dict]:
    return [{"id": c["id"], "position_m": c["position_m"], "coupling_db": c["base_coupling_db"],
             "delay_ps": round_trip_delay_ps(spans, c["position_m"])} for c in connectors]


def generate_otdr_sim(seed: int, out: Path, scale: dict) -> dict:
    """Two plants, every connector at -100 dB.

    lab: the CLI test fixture's operating point, 1 kHz on a 5 km route with
    MPO connectors at 150/800/2300 m and ~0.2 detected photons per pulse per
    point; the default 50 ns dead time hides a point's second photon in a
    pulse (self pile-up), and the fold spans 1e7 bins of 100 ps.
    campus: 100 kHz on ~1 km in two spans, ~0.05 detected photons per pulse
    per point, with a 50 us detector dead time (an InGaAs SPAD hold-off; the
    default 50 ns is far shorter) that covers five periods, so pile-up crosses
    pulses, and the fold has only 1e5 bins.
    """
    rng = _rng(seed, 1)
    plants = {}
    lab_spans = [{"id": "trunk", "length_m": 5000.0}]
    lab_conns = [_connector("mpoA", 150.0), _connector("mpoB", 800.0), _connector("mpoC", 2300.0)]
    building = float(np.round(rng.uniform(250.0, 350.0), 1))
    campus_len = float(np.round(rng.uniform(650.0, 750.0), 1))
    campus_spans = [{"id": "building", "length_m": building, "group_index": 1.4675},
                    {"id": "campus", "length_m": campus_len}]
    campus_pos = np.round(np.sort(rng.uniform([80.0, 380.0, 700.0], [180.0, 520.0, 880.0])), 1)
    campus_conns = [_connector(f"mpo{i + 1}", float(p)) for i, p in enumerate(campus_pos)]
    for name, spans, conns, rep, mu, dead_time_ps, duration in (
        ("lab", lab_spans, lab_conns, 1000.0, 0.2, DETECTOR["dead_time_ps"], scale["lab_s"]),
        ("campus", campus_spans, campus_conns, 100_000.0, 0.05, 50_000_000, scale["campus_s"]),
    ):
        _write_json(out / f"{name}_topology.json", _topology(spans, conns))
        _write_json(out / f"{name}_source.json", {
            "avg_power_w": power_for_mu_det(mu, -100.0, rep), "rep_rate_hz": rep,
            "pulse_width_ps": PULSE_WIDTH_PS, "wavelength_nm": 1550.0})
        _write_json(out / f"{name}_detector.json", dict(DETECTOR, dead_time_ps=dead_time_ps))
        plants[name] = {"sim_seed": int(rng.integers(0, 2**63)), "duration": duration,
                        "points": _truth_points(spans, conns)}
    return {"workload": "otdr-sim", "plants": plants}


def generate_capture(seed: int, out: Path, scale: dict) -> dict:
    """One 1 kHz capture with three planted connector peaks, as XTT1 and CSV.

    Peaks are drawn as Poisson counts over the pulses with Gaussian timing of
    the pulse width and jitter in quadrature; darks are uniform; then the
    default 50 ns dead time keeps only the first tag of each burst. The
    connectors lie more than 50 us of delay apart, so a peak is thinned only by
    its own earlier photons (self pile-up, 0.1 to 0.6 detected per pulse), and
    nothing crosses periods. The peaks hold ~35k-170k tags, far above the
    5-count threshold, so cutting their tails costs under 0.01 dB.
    """
    rng = _rng(seed, 2)
    spans = [{"id": "metro", "length_m": 20_000.0}]
    positions = np.round(np.array([2500.0, 9000.0, 15500.0]) + rng.uniform(-200.0, 200.0, 3), 1)
    conns = [_connector(f"mpo{i + 1}", float(p)) for i, p in enumerate(positions)]
    rep = 1000.0
    period = int(round(1e12 / rep))
    n_pulses = scale["capture_pulses"]
    detector = DETECTOR
    source = {"avg_power_w": power_for_mu_det(0.8, -100.0, rep), "rep_rate_hz": rep,
              "pulse_width_ps": PULSE_WIDTH_PS, "wavelength_nm": 1550.0}
    photons = source["avg_power_w"] / rep / photon_energy_j(1550.0)
    sigma = math.hypot(PULSE_WIDTH_PS * FWHM_TO_SIGMA, detector["jitter_sigma_ps"])

    points = _truth_points(spans, conns)
    det_parts, origins = [], []
    for i, point in enumerate(points):
        loss = round_trip_loss_db(conns, point["position_m"])
        mu_det = photons * 10.0 ** ((point["coupling_db"] - loss) / 10.0) * detector["efficiency"]
        count = int(rng.poisson(mu_det * n_pulses))
        pulse = rng.integers(0, n_pulses, count)
        arrival = np.rint(point["delay_ps"] + rng.normal(0.0, sigma, count)).astype(np.int64)
        det_parts.append(pulse * period + arrival)
        origins.append(np.full(count, i))
        point.update(mu_det=mu_det, photons_detected=count)
    n_dark = int(rng.poisson(detector["dark_rate_hz"] * n_pulses * period * 1e-12))
    det_parts.append(rng.integers(0, n_pulses * period, n_dark))
    origins.append(np.full(n_dark, -1))
    det, origin = np.concatenate(det_parts), np.concatenate(origins)
    order = np.argsort(det, kind="stable")
    keep = _dead_time_mask(det[order], detector["dead_time_ps"])
    det, origin = det[order][keep], origin[order][keep]
    for i, point in enumerate(points):
        point["recorded_tags"] = int((origin == i).sum())
    trig = np.arange(n_pulses, dtype=np.int64) * period
    times = np.concatenate([trig, det])
    channels = np.concatenate([np.zeros(trig.size, np.uint8), np.ones(det.size, np.uint8)])
    order = np.lexsort((channels, times))
    times, channels = times[order], channels[order]

    records = np.empty(times.size, dtype=[("channel", "u1"), ("time_ps", "<u8")])
    records["channel"] = channels
    records["time_ps"] = times
    sidecar = {"kind": "otdr-tags", "source": source, "detector": detector}
    with open(out / "capture.xtt1", "wb") as fh:
        fh.write(b"XTT1\x00\x00\x00\x01")
        fh.write(records.tobytes())
    rows = np.char.add(np.char.add(channels.astype(str), ","), times.astype(str))
    (out / "capture.csv").write_text("channel,time_ps\n" + "\n".join(rows.tolist()) + "\n")
    for name in ("capture.xtt1", "capture.csv"):
        _write_json(out / f"{name}.meta.json", sidecar)
    _write_json(out / "topology.json", _topology(spans, conns))
    return {"workload": "capture-analyze", "points": points, "n_records": int(times.size),
            "n_triggers": n_pulses, "n_detector_tags": int(det.size),
            "bytes_xtt1": (out / "capture.xtt1").stat().st_size,
            "bytes_csv": (out / "capture.csv").stat().st_size}


def _dead_time_mask(times_sorted: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Non-paralyzable dead time: a tag is kept if it is ``dead_time_ps`` after the last kept one."""
    keep = np.zeros(times_sorted.size, dtype=bool)
    last = None
    for i, t in enumerate(times_sorted.tolist()):
        if last is None or t - last >= dead_time_ps:
            keep[i] = True
            last = t
    return keep


def switch_xtalk_db(a_in, a_out, v_in, v_out, nm, p=SWITCH_DEFAULTS) -> float:
    value = (p["c0_db"] - p["beta_db_per_port"] * (abs(a_in - v_in) - 1)
             - p["beta_db_per_port"] * (abs(a_out - v_out) - 1)
             + p["slope_db_per_nm"] * (nm - p["reference_nm"]))
    return max(value, p["floor_db"])


def generate_scan_plan(seed: int, out: Path, scale: dict) -> dict:
    """Leak lines for the scan and a measured 8x8 crosstalk table for the planner.

    48 lines, one per 7.5 nm slot from the O to the C band, at 470 photons/s:
    after the 3 dB filter and the detector their peak is ~20 noise units above
    the 100 Hz dark floor, so every line is found while the 5-sigma threshold
    cuts ~10 % of each line's tails, a bias several times the Poisson error of
    one line.

    The table is the default parametric model at 1310 and 1550 nm plus 0.5 dB
    of Gaussian noise. It stands for one measured switch, so its noise comes
    from TABLE_SEED, not the workload seed: checking the table's plan against
    brute_force_assignment enumerates 0.7M states (25-30 s), and with one
    table that answer is computed once per checkout and cached.
    """
    rng = _rng(seed, 3)
    step = scale["scan_step_nm"]
    grid = (1260.0, 1620.0, step)
    slots = 1262.5 + 7.5 * np.arange(48)
    wavelengths = np.round((slots + rng.uniform(0.0, 2.5, slots.size)) / step) * step
    lines = [{"wavelength_nm": round(float(nm), 6), "rate_photons_per_s": 470.0} for nm in wavelengths]
    _write_json(out / "lines.json", lines)

    table_rng = _rng(TABLE_SEED, 4)
    rows = ["a_in,a_out,v_in,v_out,lambda_nm,xtalk_db"]
    ins, outs = range(1, 9), range(9, 17)
    for a_in in ins:
        for a_out in outs:
            for v_in in ins:
                for v_out in outs:
                    if a_in == v_in or a_out == v_out:
                        continue
                    for nm in (1310.0, 1550.0):
                        db = switch_xtalk_db(a_in, a_out, v_in, v_out, nm) + table_rng.normal(0.0, 0.5)
                        rows.append(f"{a_in},{a_out},{v_in},{v_out},{nm:.1f},{db:.4f}")
    (out / "table.csv").write_text("\n".join(rows) + "\n")
    return {"workload": "scan-plan", "lines": lines, "grid": list(grid), "dwell_s": 1.0,
            "scan_seed": int(rng.integers(0, 2**63)), "table_rows": len(rows) - 1}


GENERATORS = {"otdr-sim": generate_otdr_sim, "capture-analyze": generate_capture,
              "scan-plan": generate_scan_plan}


def generate(workload: str, seed: int, out: Path, scale: str = "full") -> dict:
    """Write one workload's inputs into ``out`` and return the planted truth."""
    out.mkdir(parents=True, exist_ok=True)
    truth = GENERATORS[workload](seed, out, SCALES[scale])
    truth.update(seed=seed, scale=scale)
    _write_json(out / "truth.json", truth)
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out), args.scale)


if __name__ == "__main__":
    main()
