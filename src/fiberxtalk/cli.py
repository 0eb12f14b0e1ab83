"""Batch command-line front end: simulate, analyze, scan, and switch tooling.

Every command is deterministic given its flags and an explicit ``--seed``;
each output file is accompanied by a ``<file>.manifest.json`` recording the
full parameter snapshot and SHA-256 digests of inputs and outputs.

Exit codes: 0 ok, 2 input error, 3 data error, 4 parameter error, 5 resource
error. Failures print a one-line machine-readable JSON object on stderr. A
fault in any input file or document, or a flag that argparse or
:func:`parse_band` cannot read, exits 2 (``E_INPUT``); a flag that reads but
lies outside its domain exits 4 (``E_PARAM``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
import time
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import run_otdr_analysis, detect_spectral_lines
from .errors import InputError, ParameterError, ResourceError, XtalkError, read_json
from .plant import load_topology
from .simulate import (
    PULSES_PER_CHUNK,
    Detector,
    LeakLine,
    PulsedSource,
    TunableFilter,
    simulate_otdr_tags,
    simulate_spectral_scan,
)
from .switchlab import (
    SwitchConfig,
    SwitchModel,
    brute_force_assignment,
    load_measured_table,
    optimize_assignment,
    sweep_configs,
    sweep_wavelength,
)
from . import tagio
# validate_wavelength_nm is unused here, but perfbench/spans.py traces the units layer through it.
from .units import require_number, validate_wavelength_nm  # noqa: F401

MANIFEST_SCHEMA_VERSION = 1
MAX_GRID_POINTS = 1_000_000  # the benchmark's spectral scan has 3601

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ]*)\s*$")
_TIME_UNITS_PS = {
    "ps": 1.0,
    "ns": 1e3,
    "us": 1e6,
    "µs": 1e6,
    "ms": 1e9,
    "s": 1e12,
}


def _split_quantity(text: str, flag: str) -> tuple[float, str]:
    match = _QUANTITY_RE.match(text)
    if not match:
        raise ParameterError(f"{flag}: cannot parse quantity {text!r}")
    try:
        value = float(match.group(1))
    except ValueError:
        raise ParameterError(f"{flag}: cannot parse number in {text!r}") from None
    return value, match.group(2)


def parse_time_ps(text: str, flag: str, default_unit: str = "ps") -> float:
    value, unit = _split_quantity(text, flag)
    unit = unit or default_unit
    if unit not in _TIME_UNITS_PS:
        raise ParameterError(f"{flag}: unknown time unit {unit!r} in {text!r}")
    return require_number(value * _TIME_UNITS_PS[unit], flag)


def parse_duration_s(text: str, flag: str) -> float:
    # Bare numbers are seconds; suffixes down to ps are accepted.
    return parse_time_ps(text, flag, default_unit="s") * 1e-12


def parse_bin_ps(text: str, flag: str) -> int:
    ps = parse_time_ps(text, flag, default_unit="ps")
    if abs(ps - round(ps)) > 1e-9 or ps < 1:
        raise ParameterError(f"{flag}: bin width must be a positive integer in ps, got {text!r}")
    return int(round(ps))


def parse_wavelength_nm(text: str, flag: str) -> float:
    value, unit = _split_quantity(text, flag)
    if unit not in ("", "nm"):
        raise ParameterError(f"{flag}: unknown wavelength unit {unit!r} in {text!r}")
    return value


def parse_grid_nm(text: str, flag: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive endpoints, nm) of at most ``MAX_GRID_POINTS`` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"{flag}: expected 'start:stop:step', got {text!r}")
    start, stop, step = (require_number(parse_wavelength_nm(part, flag), flag) for part in parts)
    if step <= 0 or stop < start:
        raise ParameterError(f"{flag}: need start <= stop and step > 0, got {text!r}")
    steps = (stop - start) / step
    if steps > MAX_GRID_POINTS - 1:
        raise ResourceError(f"{flag}: {text!r} has over {MAX_GRID_POINTS} points")
    n = int(round(steps))
    grid = [start + i * step for i in range(n + 1)]
    if grid[-1] > stop + 1e-9:
        grid.pop()
    return grid


def parse_band(text: str, flag: str) -> "str | tuple[float, float]":
    """A band preset name, or 'min,max' in nm."""
    if "," not in text:
        return text
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"{flag}: expected a preset or 'min,max' in nm, got {text!r}") from None
    return (lo, hi)


def parse_window_ps(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParameterError(f"{flag}: expected 'lo:hi', got {text!r}")
    lo = parse_time_ps(parts[0], flag)
    hi = parse_time_ps(parts[1], flag)
    return (int(round(lo)), int(round(hi)))


def _dataclass_from(doc: dict, cls, what: str):
    if not isinstance(doc, dict):
        raise InputError(f"{what}: expected a JSON object")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise InputError(f"{what}: unknown key(s) {unknown}; expected {sorted(names)}")
    try:
        return cls(**doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what}: {exc}") from None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifests(
    command: str,
    parameters: dict,
    seed: int | None,
    inputs: dict[str, Path],
    outputs: list[Path],
    started: float,
) -> None:
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "run-manifest",
        "tool": "fiberxtalk",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "inputs": {
            label: {"path": str(p), "sha256": _sha256(p)} for label, p in inputs.items()
        },
        "outputs": {
            str(p): {"sha256": _sha256(p)} for p in outputs
        },
        "duration_s": time.perf_counter() - started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for out in outputs:
        Path(str(out) + ".manifest.json").write_text(text)


def _from_args(args, name: str, cls, metadata: dict | None = None):
    """``cls`` built from the ``--<name>`` JSON file, else from ``metadata[name]``, else None."""
    if getattr(args, name, None):
        return _dataclass_from(read_json(getattr(args, name), name), cls, name)
    if metadata and isinstance(metadata.get(name), dict):
        return _dataclass_from(metadata[name], cls, f"{name} metadata")
    return None


# --- commands --------------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    topology = load_topology(args.topology, lax=args.lax)
    source = _from_args(args, "source", PulsedSource)
    if source is None:
        raise InputError("--source is required (JSON file with at least avg_power_w)")
    detector = _from_args(args, "detector", Detector) or Detector()
    duration_s = parse_duration_s(args.duration, "--duration")
    stream = simulate_otdr_tags(
        topology, source, detector, duration_s, args.seed,
        max_tags=args.max_tags, jobs=args.jobs,
    )
    out = Path(args.out)
    tagio.write_tags_xtt1(out, stream)
    _write_manifests(
        "simulate",
        {
            "topology": str(args.topology),
            "source": asdict(source),
            "detector": asdict(detector),
            "duration_s": duration_s,
            "jobs": args.jobs,
            "max_tags": args.max_tags,
        },
        args.seed,
        {"topology": Path(args.topology), "source": Path(args.source)},
        [out],
        started,
    )
    print(
        f"wrote {out} ({stream.metadata['n_triggers']} triggers, "
        f"{stream.metadata['n_detector_tags']} detector tags)"
    )
    return 0


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    tags = tagio.read_tags(args.tags)
    topology = load_topology(args.topology, lax=args.lax)
    bin_width = parse_bin_ps(args.bin, "--bin")
    window = parse_window_ps(args.window, "--window") if args.window else None
    source = _from_args(args, "source", PulsedSource, tags.metadata)
    detector = _from_args(args, "detector", Detector, tags.metadata)
    report = run_otdr_analysis(
        tags,
        topology,
        bin_width_ps=bin_width,
        k_sigma=args.k_sigma,
        min_separation_bins=args.min_separation,
        window_ps=window,
        source=source,
        detector=detector,
    )
    parameters = {
        "tags": str(args.tags),
        "topology": str(args.topology),
        "bin_width_ps": bin_width,
        "k_sigma": args.k_sigma,
        "min_separation_bins": args.min_separation,
        "window_ps": list(window) if window else None,
    }
    outputs = []
    out = Path(args.out)
    out.write_text(json.dumps(report.to_dict(parameters), indent=2, sort_keys=True) + "\n")
    outputs.append(out)
    if args.hist:
        hist_path = Path(args.hist)
        tagio.write_histogram_csv(hist_path, report.histogram)
        outputs.append(hist_path)
    _write_manifests(
        "analyze", parameters, None,
        {"tags": Path(args.tags), "topology": Path(args.topology)},
        outputs, started,
    )
    print(f"wrote {out} ({len(report.peaks)} peak(s))")
    return 0


def cmd_scan(args) -> int:
    started = time.perf_counter()
    lines_doc = read_json(args.lines, "lines")
    if not isinstance(lines_doc, list):
        raise InputError("lines: expected a JSON array of {wavelength_nm, rate_photons_per_s}")
    lines = [_dataclass_from(entry, LeakLine, f"lines[{i}]") for i, entry in enumerate(lines_doc)]
    filt = _from_args(args, "filter", TunableFilter) or TunableFilter()
    detector = _from_args(args, "detector", Detector) or Detector()
    grid = parse_grid_nm(args.grid, "--grid")  # the simulator checks its range
    dwell_s = parse_duration_s(args.dwell, "--dwell")
    scan = simulate_spectral_scan(lines, filt, detector, grid, dwell_s, args.seed)
    out = Path(args.out)
    tagio.write_scan_csv(out, scan)
    _write_manifests(
        "scan",
        {
            "lines": str(args.lines),
            "filter": asdict(filt),
            "detector": asdict(detector),
            "grid_nm": [grid[0], grid[-1], len(grid)],
            "dwell_s": dwell_s,
        },
        args.seed,
        {"lines": Path(args.lines)},
        [out],
        started,
    )
    print(f"wrote {out} ({len(grid)} wavelength points)")
    return 0


def cmd_scan_analyze(args) -> int:
    started = time.perf_counter()
    dwell_s = parse_duration_s(args.dwell, "--dwell") if args.dwell else None
    scan = tagio.read_scan_csv(args.scan, dwell_s=dwell_s)
    lines = detect_spectral_lines(scan, k_sigma=args.k_sigma)
    parameters = {"scan": str(args.scan), "k_sigma": args.k_sigma, "dwell_s": scan.dwell_s}
    doc = {
        "schema_version": 1,
        "kind": "scan-analysis",
        "parameters": parameters,
        "lines": [
            {
                "wavelength_nm": line.wavelength_nm,
                "rate_per_s": line.rate_per_s,
                "significance_sigma": line.significance_sigma,
            }
            for line in lines
        ],
    }
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _write_manifests("scan-analyze", parameters, None, {"scan": Path(args.scan)}, [out], started)
    print(f"wrote {out} ({len(lines)} line(s))")
    return 0


_MODEL_FLAGS = (
    ("n_in", "n_in"),
    ("n_out", "n_out"),
    ("c0", "c0_db"),
    ("beta_in", "beta_in_db_per_port"),
    ("beta_out", "beta_out_db_per_port"),
    ("lambda_ref", "reference_nm"),
    ("slope", "slope_db_per_nm"),
    ("floor", "floor_db"),
)


def _model_from_args(args) -> SwitchModel:
    """The ``--model`` document, then the model flags and ``--table`` on top.

    A fault in the document is an input error; a flag that puts the model out
    of its domain is a parameter error.
    """
    doc = read_json(args.model, "switch model") if args.model else {}
    if isinstance(doc, dict) and "table" in doc:
        raise InputError("switch model: a measured table comes only from --table")
    overrides = {
        key: getattr(args, flag) for flag, key in _MODEL_FLAGS if getattr(args, flag) is not None
    }
    if args.table:
        overrides["table"] = load_measured_table(args.table)
    return replace(_dataclass_from(doc, SwitchModel, "switch model"), **overrides)


def cmd_switch_sweep_config(args) -> int:
    started = time.perf_counter()
    model = _model_from_args(args)
    nm = parse_wavelength_nm(args.wavelength, "--wavelength") if args.wavelength else None
    points = sweep_configs(model, args.classical_in, args.victim_out, nm)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        fh.write("config,xtalk_db\n")
        for point in points:
            fh.write(f"\"{point.label}\",{point.xtalk_db:.6f}\n")
    _write_manifests(
        "switch sweep-config",
        {
            "model": asdict(model) if model.table is None else {"mode": "measured"},
            "classical_in": args.classical_in,
            "victim_out": args.victim_out,
            "wavelength_nm": nm,
        },
        None,
        {"table": Path(args.table)} if args.table else {},
        [out],
        started,
    )
    print(f"wrote {out} ({len(points)} configurations)")
    return 0


def cmd_switch_sweep_wavelength(args) -> int:
    started = time.perf_counter()
    model = _model_from_args(args)
    aggressor = SwitchConfig.parse(args.aggressor).connections[0]
    victim = SwitchConfig.parse(args.victim).connections[0]
    SwitchConfig(connections=(aggressor, victim)).validate(model)
    grid = parse_grid_nm(args.grid, "--grid")
    curve = sweep_wavelength(model, aggressor, victim, grid)
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        fh.write("lambda_nm,xtalk_db\n")
        for nm, db in curve:
            fh.write(f"{nm:.6f},{db:.6f}\n")
    _write_manifests(
        "switch sweep-wavelength",
        {
            "model": asdict(model) if model.table is None else {"mode": "measured"},
            "aggressor": list(aggressor),
            "victim": list(victim),
            "grid_nm": [grid[0], grid[-1], len(grid)],
        },
        None,
        {"table": Path(args.table)} if args.table else {},
        [out],
        started,
    )
    print(f"wrote {out} ({len(curve)} wavelength points)")
    return 0


def cmd_switch_plan(args) -> int:
    started = time.perf_counter()
    model = _model_from_args(args)
    bands = None
    if args.classical_band or args.quantum_band:
        bands = {}
        if args.classical_band:
            bands["classical"] = parse_band(args.classical_band, "--classical-band")
        if args.quantum_band:
            bands["quantum"] = parse_band(args.quantum_band, "--quantum-band")
    solver = brute_force_assignment if args.oracle else optimize_assignment
    assignment = solver(model, args.classical, args.quantum, bands)
    doc = {
        "schema_version": 1,
        "kind": "switch-assignment",
        "objective_db": assignment.objective_db,
        "method": assignment.method,
        "classical": [asdict(p) for p in assignment.classical],
        "quantum": [asdict(p) for p in assignment.quantum],
    }
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _write_manifests(
        "switch plan",
        {
            "model": asdict(model) if model.table is None else {"mode": "measured"},
            "k_classical": args.classical,
            "k_quantum": args.quantum,
            "bands": bands,
            "oracle": bool(args.oracle),
        },
        None,
        {"table": Path(args.table)} if args.table else {},
        [out],
        started,
    )
    objective = "-inf" if assignment.objective_db == float("-inf") else f"{assignment.objective_db:.2f} dB"
    print(f"wrote {out} (objective {objective}, {assignment.method})")
    return 0


# --- parser ----------------------------------------------------------------------


def _add_switch_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="JSON file with SwitchModel fields")
    parser.add_argument("--table", help="measured crosstalk CSV (a_in,a_out,v_in,v_out,lambda_nm,xtalk_db)")
    parser.add_argument("--n-in", dest="n_in", type=int)
    parser.add_argument("--n-out", dest="n_out", type=int)
    parser.add_argument("--c0", type=float, help="adjacent-path crosstalk in dB")
    parser.add_argument("--beta-in", dest="beta_in", type=float)
    parser.add_argument("--beta-out", dest="beta_out", type=float)
    parser.add_argument("--lambda-ref", dest="lambda_ref", type=float)
    parser.add_argument("--slope", type=float, help="wavelength slope in dB/nm")
    parser.add_argument("--floor", type=float)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error instead of usage text."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves the parser unchanged and fills a fresh namespace on every
    call, so in-process ``main`` calls share nothing through it.
    """
    parser = _Parser(
        prog="xtalk",
        description="Simulate and analyze inter-fiber crosstalk at the single-photon level.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a pulsed-probe crosstalk tag stream")
    sim.add_argument("--topology", required=True)
    sim.add_argument("--source", required=True, help="JSON file with PulsedSource fields")
    sim.add_argument("--detector", help="JSON file with Detector fields")
    sim.add_argument("--duration", required=True, help="acquisition time (s, ms, ... )")
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", required=True)
    sim.add_argument(
        "--jobs", type=int, default=1,
        help=f"threads simulating blocks of {PULSES_PER_CHUNK} pulses; outputs do not depend on it",
    )
    sim.add_argument("--max-tags", dest="max_tags", type=int, default=50_000_000)
    sim.add_argument("--lax", action="store_true", help="ignore unknown topology keys")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="fold a tag file and report peaks/locations/couplings")
    ana.add_argument("--tags", required=True)
    ana.add_argument("--topology", required=True)
    ana.add_argument("--bin", default="100ps", help="histogram bin width (default 100ps)")
    ana.add_argument("--k-sigma", dest="k_sigma", type=float, default=5.0)
    ana.add_argument("--min-separation", dest="min_separation", type=int, default=3)
    ana.add_argument("--window", help="delay window 'lo:hi' (ps units by default)")
    ana.add_argument("--source", help="override source JSON (else tag metadata)")
    ana.add_argument("--detector", help="override detector JSON (else tag metadata)")
    ana.add_argument("--out", required=True, help="analysis report JSON")
    ana.add_argument("--hist", help="histogram CSV (occupied bins)")
    ana.add_argument("--lax", action="store_true")
    ana.set_defaults(func=cmd_analyze)

    scan = sub.add_parser("scan", help="simulate a filter-sweep spectral scan")
    scan.add_argument("--lines", required=True, help="JSON array of leak lines")
    scan.add_argument("--filter", help="JSON file with TunableFilter fields")
    scan.add_argument("--detector", help="JSON file with Detector fields")
    scan.add_argument("--grid", required=True, help="wavelength grid 'start:stop:step' in nm")
    scan.add_argument("--dwell", required=True, help="dwell time per point")
    scan.add_argument("--seed", required=True, type=int)
    scan.add_argument("--out", required=True)
    scan.set_defaults(func=cmd_scan)

    sana = sub.add_parser("scan-analyze", help="detect spectral lines in a scan CSV")
    sana.add_argument("--scan", required=True)
    sana.add_argument("--k-sigma", dest="k_sigma", type=float, default=5.0)
    sana.add_argument("--dwell", help="dwell override when no metadata sidecar exists")
    sana.add_argument("--out", required=True)
    sana.set_defaults(func=cmd_scan_analyze)

    switch = sub.add_parser("switch", help="switch crosstalk sweeps and planning")
    ssub = switch.add_subparsers(dest="switch_command", required=True)

    scfg = ssub.add_parser("sweep-config", help="crosstalk vs. cross-connect configuration")
    _add_switch_model_flags(scfg)
    scfg.add_argument("--classical-in", dest="classical_in", type=int, default=1)
    scfg.add_argument("--victim-out", dest="victim_out", type=int, default=None)
    scfg.add_argument("--wavelength", help="evaluation wavelength (nm)")
    scfg.add_argument("--out", required=True)
    scfg.set_defaults(func=cmd_switch_sweep_config)

    swl = ssub.add_parser("sweep-wavelength", help="crosstalk vs. wavelength for one configuration")
    _add_switch_model_flags(swl)
    swl.add_argument("--aggressor", default="1:10", help="aggressor path 'in:out'")
    swl.add_argument("--victim", default="2:9", help="victim path 'in:out'")
    swl.add_argument("--grid", default="1260:1560:10", help="wavelength grid 'start:stop:step' nm")
    swl.add_argument("--out", required=True)
    swl.set_defaults(func=cmd_switch_sweep_wavelength)

    plan = ssub.add_parser("plan", help="optimize classical/quantum port and band assignment")
    _add_switch_model_flags(plan)
    plan.add_argument("--classical", required=True, type=int, help="number of classical channels")
    plan.add_argument("--quantum", required=True, type=int, help="number of quantum channels")
    plan.add_argument("--classical-band", dest="classical_band", help="'O', 'C', or 'min,max' nm")
    plan.add_argument("--quantum-band", dest="quantum_band")
    plan.add_argument("--oracle", action="store_true", help="use the exhaustive oracle directly")
    plan.add_argument("--out", required=True)
    plan.set_defaults(func=cmd_switch_plan)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return int(args.func(args) or 0)
    except XtalkError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
