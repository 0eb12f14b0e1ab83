"""The three benchmark workloads: CLI operations per pass, output checks, accuracy.

A pass is the fixed list of ``xtalk`` operations a workload runs, one after
another (a closed loop with one client). Checks read only files the program
wrote and the planted truth; they run after a pass, outside its timing.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from inputs import DETECTOR, FWHM_TO_SIGMA, PLAN_CASES

STATE_LIMIT = 1_000_000  # the planner's exhaustive limit; the oracle covers these cases
FILTER_FWHM_NM = 0.8  # the program's TunableFilter defaults, used when no --filter is given
FILTER_LOSS_DB = 3.0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load(path: Path):
    return json.loads(path.read_text())


class Op:
    """One CLI invocation: a label, its argv, and the files it must write."""

    def __init__(self, label: str, argv: list[str], outputs: list[Path]):
        self.label = label
        self.argv = argv
        self.outputs = outputs


def build_ops(workload: str, truth: dict, inp: Path, out: Path) -> list[Op]:
    if workload == "otdr-sim":
        ops = []
        for plant, info in truth["plants"].items():
            tags = out / f"{plant}.xtt1"
            ops.append(Op(f"simulate:{plant}", [
                "simulate", "--topology", str(inp / f"{plant}_topology.json"),
                "--source", str(inp / f"{plant}_source.json"), "--detector", str(inp / f"{plant}_detector.json"),
                "--duration", info["duration"], "--seed", str(info["sim_seed"]), "--jobs", "1",
                "--out", str(tags)], [tags]))
            ops.append(_analyze_op(f"analyze:{plant}", tags, inp / f"{plant}_topology.json", out, plant))
        return ops
    if workload == "capture-analyze":
        return [_analyze_op(f"analyze:{fmt}", inp / f"capture.{fmt}", inp / "topology.json", out, fmt)
                for fmt in ("xtt1", "csv")]
    if workload == "scan-plan":
        start, stop, step = truth["grid"]
        scan, lines = out / "scan.csv", out / "lines.json"
        ops = [
            Op("scan", ["scan", "--lines", str(inp / "lines.json"), "--grid", f"{start}:{stop}:{step}",
                        "--dwell", f"{truth['dwell_s']}s", "--seed", str(truth["scan_seed"]),
                        "--out", str(scan)], [scan]),
            Op("scan-analyze", ["scan-analyze", "--scan", str(scan), "--out", str(lines)], [lines]),
        ]
        for case, k_c, k_q, flags in PLAN_CASES:
            plan = out / f"plan_{case}.json"
            flags = [str(inp / f) if f.endswith(".csv") else f for f in flags]
            ops.append(Op(f"plan:{case}", ["switch", "plan", "--classical", str(k_c), "--quantum", str(k_q),
                                          *flags, "--out", str(plan)], [plan]))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _analyze_op(label: str, tags: Path, topology: Path, out: Path, stem: str) -> Op:
    report, hist = out / f"{stem}_report.json", out / f"{stem}_hist.csv"
    return Op(label, ["analyze", "--tags", str(tags), "--topology", str(topology), "--bin", "100ps",
                      "--out", str(report), "--hist", str(hist)], [report, hist])


# --- checks ------------------------------------------------------------------------


def check_manifests(op: Op) -> list[str]:
    """Every output exists and its manifest records its SHA-256."""
    errors = []
    for path in op.outputs:
        manifest = Path(str(path) + ".manifest.json")
        if not path.is_file() or not manifest.is_file():
            errors.append(f"{path.name}: output or manifest missing")
            continue
        recorded = _load(manifest)["outputs"].get(str(path), {}).get("sha256")
        if recorded != sha256(path):
            errors.append(f"{path.name}: manifest digest does not match the file")
    return errors


def check_report(report: dict, points: list[dict], n_detector_tags: int) -> list[str]:
    """Peaks sit on the planted connectors, none missing or extra; fold conserves counts."""
    errors = []
    located = report["located"]
    want = [p["id"] for p in points]
    got = [loc["matched_element"] for loc in located]
    if got != want:
        errors.append(f"matched elements {got} != planted {want}")
    for loc, point in zip(located, points):
        if abs(loc["distance_m"] - point["position_m"]) > max(3.0 * loc["distance_uncertainty_m"], 0.5):
            errors.append(f"{point['id']}: located at {loc['distance_m']:.3f} m, planted {point['position_m']} m")
    diag = report["diagnostics"]
    folded = (report["histogram"]["total_counts"] + diag["dropped_before_first_trigger"]
              + diag["dropped_beyond_period"] + diag["dropped_outside_window"])
    if folded != n_detector_tags:
        errors.append(f"fold conservation: {folded} histogram+dropped != {n_detector_tags} detector tags")
    return errors


def check_plan(plan: dict, k_classical: int, k_quantum: int) -> list[str]:
    channels = plan["classical"] + plan["quantum"]
    errors = []
    if len(plan["classical"]) != k_classical or len(plan["quantum"]) != k_quantum:
        errors.append("wrong channel counts")
    for port in ("input", "output"):
        used = [c[port] for c in channels]
        if len(set(used)) != len(used):
            errors.append(f"{port} port used twice")
    if not math.isfinite(plan["objective_db"]):
        errors.append(f"objective {plan['objective_db']} is not finite")
    return errors


def check_pass(workload: str, truth: dict, ops: list[Op]) -> dict[str, list[str]]:
    """Errors found in each operation's outputs, keyed by operation label."""
    errors = {op.label: check_manifests(op) for op in ops}
    by_label = {op.label: op for op in ops}
    if workload == "otdr-sim":
        for plant, info in truth["plants"].items():
            tags = by_label[f"simulate:{plant}"].outputs[0]
            meta_path = Path(str(tags) + ".meta.json")
            if not meta_path.is_file():
                errors[f"simulate:{plant}"].append("tag metadata sidecar missing")
                continue
            n_det = _load(meta_path)["n_detector_tags"]
            report = by_label[f"analyze:{plant}"].outputs[0]
            if report.is_file():
                errors[f"analyze:{plant}"] += check_report(_load(report), info["points"], n_det)
    elif workload == "capture-analyze":
        reports = {}
        for fmt in ("xtt1", "csv"):
            report = by_label[f"analyze:{fmt}"].outputs[0]
            if report.is_file():
                reports[fmt] = _load(report)
                errors[f"analyze:{fmt}"] += check_report(reports[fmt], truth["points"], truth["n_detector_tags"])
        if len(reports) == 2:
            hists = [by_label[f"analyze:{fmt}"].outputs[1] for fmt in ("xtt1", "csv")]
            same = all(reports["xtt1"][k] == reports["csv"][k] for k in ("histogram", "baseline", "peaks", "located"))
            if not same or not all(h.is_file() for h in hists) or sha256(hists[0]) != sha256(hists[1]):
                errors["analyze:csv"].append("XTT1 and CSV reads of the capture give different histograms")
    elif workload == "scan-plan":
        lines = by_label["scan-analyze"].outputs[0]
        if lines.is_file():
            found = [line["wavelength_nm"] for line in _load(lines)["lines"]]
            want = [line["wavelength_nm"] for line in truth["lines"]]
            if len(found) != len(want) or any(abs(f - w) > 0.1 for f, w in zip(found, want)):
                errors["scan-analyze"].append(f"found lines {found}, planted {want}")
        for case, k_c, k_q, _ in PLAN_CASES:
            plan = by_label[f"plan:{case}"].outputs[0]
            if plan.is_file():
                errors[f"plan:{case}"] += check_plan(_load(plan), k_c, k_q)
    return errors


def output_digests(ops: list[Op]) -> dict[str, str]:
    """SHA-256 of every output, to compare passes byte for byte."""
    return {str(p): sha256(p) for op in ops for p in op.outputs if p.is_file()}


# --- accuracy and per-workload figures ---------------------------------------------


def _coupling_errors(report: dict, points: list[dict]) -> list[float]:
    by_id = {p["id"]: p for p in points}
    return [abs(loc["coupling_db"] - by_id[loc["matched_element"]]["coupling_db"])
            for loc in report["located"]
            if loc["matched_element"] in by_id and loc["coupling_db"] is not None]


def _scan_line_errors(truth: dict, lines_doc: dict) -> list[float]:
    """Recovered over planted counts of each leak line, in dB.

    The planted counts of a line are its rate times the filter transmission,
    summed over every grid point, times efficiency and dwell; the scan's
    recovered rate is its background-subtracted peak area over the dwell.
    """
    start, stop, step = truth["grid"]
    grid = [start + i * step for i in range(int(round((stop - start) / step)) + 1)]
    sigma = FILTER_FWHM_NM * FWHM_TO_SIGMA
    peak = 10.0 ** (-FILTER_LOSS_DB / 10.0)
    errors = []
    for found, planted in zip(lines_doc["lines"], truth["lines"]):
        expected = planted["rate_photons_per_s"] * DETECTOR["efficiency"] * peak * sum(
            math.exp(-0.5 * ((nm - planted["wavelength_nm"]) / sigma) ** 2) for nm in grid)
        errors.append(abs(10.0 * math.log10(found["rate_per_s"] / expected)))
    return errors


def accuracy_db(workload: str, truth: dict, ops: list[Op]) -> float:
    """Mean |recovered - planted| in dB over the crosstalk levels the workload recovers."""
    by_label = {op.label: op for op in ops}
    errors: list[float] = []
    if workload == "otdr-sim":
        for plant, info in truth["plants"].items():
            errors += _coupling_errors(_load(by_label[f"analyze:{plant}"].outputs[0]), info["points"])
    elif workload == "capture-analyze":
        for fmt in ("xtt1", "csv"):
            errors += _coupling_errors(_load(by_label[f"analyze:{fmt}"].outputs[0]), truth["points"])
    elif workload == "scan-plan":
        errors += _scan_line_errors(truth, _load(by_label["scan-analyze"].outputs[0]))
    return sum(errors) / len(errors) if errors else math.nan


def figures(workload: str, truth: dict, ops: list[Op], run_s: float) -> dict[str, float]:
    """Workload-specific end-to-end figures, printed beside the gated metrics."""
    by_label = {op.label: op for op in ops}
    if workload == "otdr-sim":
        pulses = 0
        for plant in truth["plants"]:
            pulses += _load(Path(str(by_label[f"simulate:{plant}"].outputs[0]) + ".meta.json"))["n_pulses"]
        return {"otdr_pulses_per_s": pulses / run_s}
    if workload == "capture-analyze":
        return {"capture_tags_per_s": 2 * truth["n_records"] / run_s}
    objectives = [_load(by_label[f"plan:{case}"].outputs[0])["objective_db"] for case, *_ in PLAN_CASES]
    return {"plan_worst_leak_db": sum(objectives) / len(objectives)}


def _plan_case(argv: list[str]):
    """Model keywords, table path, bands and channel counts of a ``switch plan`` argv."""
    flags = dict(zip(argv[2::2], argv[3::2]))
    model = {"n_in": int(flags.get("--n-in", 8)), "n_out": int(flags.get("--n-out", 8))}
    table = Path(flags["--table"]) if "--table" in flags else None
    bands = {kind: flags[f"--{kind}-band"] for kind in ("classical", "quantum") if f"--{kind}-band" in flags}
    return model, table, bands or None, int(flags["--classical"]), int(flags["--quantum"])


def oracle_errors(ops: list[Op], src: Path, cache: Path) -> dict[str, list[str]]:
    """Compare every plan case within the exhaustive limit with ``brute_force_assignment``.

    The oracle's answer is a pure function of the program's source and the
    case's inputs, so it is kept in ``cache`` under a digest of both; runs
    that repeat a case on the same source skip the multi-second enumeration.
    """
    from dataclasses import asdict

    from fiberxtalk.switchlab import (SwitchModel, assignment_search_space, brute_force_assignment,
                                      load_measured_table)

    source = hashlib.sha256()
    for path in sorted((src / "fiberxtalk").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cache.mkdir(parents=True, exist_ok=True)
    errors = {}
    for op in ops:
        if not op.label.startswith("plan:"):
            continue
        model_kw, table, bands, k_c, k_q = _plan_case(op.argv)
        key_doc = [model_kw, table and sha256(table), bands, k_c, k_q]
        key = hashlib.sha256(source.digest() + json.dumps(key_doc).encode())
        model = SwitchModel(**model_kw, table=load_measured_table(table) if table else None)
        if assignment_search_space(model, k_c, k_q, bands) > STATE_LIMIT:
            continue
        cached = cache / f"{key.hexdigest()}.json"
        if cached.is_file():
            want = _load(cached)
        else:
            best = brute_force_assignment(model, k_c, k_q, bands)
            want = {"objective_db": best.objective_db, "classical": [asdict(p) for p in best.classical],
                    "quantum": [asdict(p) for p in best.quantum]}
            cached.write_text(json.dumps(want))
        got = _load(op.outputs[0])
        if any(got[k] != want[k] for k in want):
            errors[op.label] = [f"plan differs from brute_force_assignment: {want}"]
    return errors
