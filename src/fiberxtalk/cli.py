"""Batch command-line front end: simulate, analyze, scan, and switch tooling.

Every command is deterministic given its flags and an explicit ``--seed``.
A command writes its outputs and returns a :class:`_Run` record; :func:`main`
then writes, beside each output, a ``<file>.manifest.json`` recording the full
parameter snapshot, the package and numpy versions, and SHA-256 digests of
every file it read and wrote, and prints the one summary line ``wrote <first
output> (...)``. Outputs are rewritten in place (see :mod:`fiberxtalk.tagio`).
A command that fails leaves no manifest whose digest no longer matches its
output. The digest of an ``analyze`` tag file describes its bytes as read: it
is taken before any output is written, so a tag file that is also an output
keeps the digest of what was read. One of at least ``HASH_THREAD_MIN_BYTES``
is hashed on one helper thread, started once the file is read, while the
command folds and analyses. Every other file is hashed when the manifests
are written.

Exit codes: 0 ok, 2 input error, 3 data error, 4 parameter error, 5 resource
error. Failures print a one-line machine-readable JSON object on stderr. A
fault in any input file or document, a flag that argparse or
:func:`parse_band` cannot read, or a path that cannot be read or written (an
output into a missing directory, say) exits 2 (``E_INPUT``). Integer flags are
read by :func:`integer`, with the grammar of the CSV readers: spaces around
the field, an optional sign, then ASCII digits. A flag that reads but lies
outside its domain exits 4 (``E_PARAM``); running out of memory exits 5
(``E_RESOURCE``).

A switch path flag (``--aggressor``, ``--victim``) is parsed by
:func:`parse_path` and checked by ``switchlab.switch_xtalk_db``, which every
sweep point goes through; a path that does not parse, and one whose ports
are out of range or shared, both exit 4 (``E_PARAM``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import re
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import run_otdr_analysis, detect_spectral_lines
from .errors import DataError, InputError, ParameterError, ResourceError, XtalkError, read_dataclass, read_json
from .plant import load_topology
from .simulate import (
    DEFAULT_MAX_TAGS,
    Detector,
    LeakLine,
    PulsedSource,
    TunableFilter,
    simulate_otdr_tags,
    simulate_spectral_scan,
)
from .switchlab import (
    SwitchModel,
    brute_force_assignment,
    load_measured_table,
    optimize_assignment,
    sweep_configs,
    sweep_wavelength,
)
from . import tagio
# validate_wavelength_nm is unused here, but perfbench/spans.py traces the units layer through it.
from .units import require_int, require_number, validate_wavelength_nm  # noqa: F401

MANIFEST_SCHEMA_VERSION = 1
MAX_GRID_POINTS = 1_000_000  # the benchmark's spectral scan has 3601
# A smaller tag file is hashed inline: a helper thread for each slowed otdr-sim by ~8 % (ROADMAP aim 1).
HASH_THREAD_MIN_BYTES = 1 << 20

_INT_RE = re.compile(r"\s*[-+]?[0-9]+\s*", re.ASCII)

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


def integer(text: str) -> int:
    """An integer as the CSV readers read one: spaces around it, an optional sign, then ASCII digits.

    ``int()`` also takes ``1_0`` and non-ASCII digits. Raises ``ValueError``, so
    argparse reports a bad flag value as an input error.
    """
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_path(text: str, flag: str) -> tuple[int, int]:
    """Parse one switch path 'in:out' of two integers; ``switch_xtalk_db`` checks its ports."""
    left, _, right = text.partition(":")
    try:
        return (integer(left), integer(right))
    except ValueError:
        raise ParameterError(f"{flag}: expected one 'in:out', got {text!r}") from None


def _sha256(path: Path) -> str:
    """The file's SHA-256, read through one reused 64 KiB buffer; hashlib releases the GIL per block.

    On the helper thread the buffer is alive while the command computes: a
    1 MiB one added 1.1 MB to the capture analyzes' peak RSS, at the same speed.
    """
    digest, block = hashlib.sha256(), bytearray(1 << 16)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


class _Sha256Thread(threading.Thread):
    """The SHA-256 of one file, taken on a helper thread while the caller computes.

    Entering the ``with`` block starts the thread and leaving it joins it.
    :meth:`hexdigest` joins it and raises, in the caller's thread, what the
    hash raised.
    """

    def __init__(self, path: Path):
        super().__init__(name=f"sha256 {path}")
        self.path = path
        self._result: "str | Exception | None" = None

    def run(self) -> None:
        try:
            self._result = _sha256(self.path)
        except Exception as exc:  # raised again by hexdigest
            self._result = exc

    def __enter__(self) -> "_Sha256Thread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.join()

    def hexdigest(self) -> str:
        self.join()
        if isinstance(self._result, Exception):
            raise self._result
        return self._result


@dataclass(frozen=True)
class _Run:
    """What a command wrote: its manifest record and the summary after ``wrote <first output>``.

    ``digests`` holds the input digests the command took itself, by label;
    :func:`_write_manifests` hashes the other inputs.
    """

    parameters: dict
    inputs: dict[str, Path]
    outputs: list[Path]
    summary: str
    seed: int | None = None
    digests: dict[str, str] = field(default_factory=dict)


def _write_manifests(command: str, run: _Run, started: float) -> None:
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "run-manifest",
        "tool": "fiberxtalk",
        "version": __version__,
        "numpy_version": np.__version__,
        "command": command,
        "parameters": run.parameters,
        "seed": run.seed,
        "inputs": {label: {"path": str(p), "sha256": run.digests.get(label) or _sha256(p)}
                   for label, p in run.inputs.items()},
        "outputs": {str(p): {"sha256": _sha256(p)} for p in run.outputs},
        "duration_s": time.perf_counter() - started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    for out in run.outputs:
        tagio.write_json(str(out) + ".manifest.json", doc)


def _drop_stale_manifest(out: Path) -> None:
    """Remove ``out``'s manifest unless it records ``out`` as it now is."""
    manifest = Path(str(out) + ".manifest.json")
    try:
        if json.loads(manifest.read_text())["outputs"][str(out)]["sha256"] == _sha256(out):
            return
    except (OSError, ValueError, LookupError, TypeError):
        pass  # no manifest, no output, or not a manifest of ours
    with contextlib.suppress(OSError):
        manifest.unlink(missing_ok=True)


def _given(args, *names: str) -> dict[str, Path]:
    """Manifest inputs: the file of each flag in ``names`` that was given."""
    return {name: Path(getattr(args, name)) for name in names if getattr(args, name, None)}


def _sidecar(path: str, label: str) -> dict[str, Path]:
    """Manifest input: the ``.meta.json`` sidecar of ``path``, if there is one."""
    side = tagio.metadata_path(path)
    return {label: side} if side.is_file() else {}


def _from_args(args, name: str, cls, metadata: dict | None = None):
    """``cls`` built from the ``--<name>`` JSON file, else from ``metadata[name]``, else None."""
    if getattr(args, name, None):
        return read_dataclass(read_json(getattr(args, name), name), cls, name)
    if metadata and isinstance(metadata.get(name), dict):
        return read_dataclass(metadata[name], cls, f"metadata.{name}")
    return None


# --- commands --------------------------------------------------------------------


def cmd_simulate(args) -> _Run:
    topology = load_topology(args.topology)
    source = _from_args(args, "source", PulsedSource)
    if source is None:
        raise InputError("--source is required (JSON file with at least avg_power_w)")
    detector = _from_args(args, "detector", Detector) or Detector()
    duration_s = parse_duration_s(args.duration, "--duration")
    stream = simulate_otdr_tags(
        topology, source, detector, duration_s, args.seed, max_tags=args.max_tags,
    )
    out = Path(args.out)
    tagio.write_tags_xtt1(out, stream)
    return _Run(
        {
            "topology": str(args.topology),
            "source": asdict(source),
            "detector": asdict(detector),
            "duration_s": duration_s,
            "max_tags": args.max_tags,
        },
        _given(args, "topology", "source", "detector"),
        [out],
        f"{stream.metadata['n_triggers']} triggers, {stream.metadata['n_detector_tags']} detector tags",
        args.seed,
    )


def cmd_analyze(args) -> _Run:
    # the flags are refused before the tag file is read; detect_peaks checks them again for library callers
    bin_width = parse_bin_ps(args.bin, "--bin")
    window = parse_window_ps(args.window, "--window") if args.window else None
    require_number(args.k_sigma, "k_sigma", minimum=0.0, strict=True)
    require_int(args.min_separation, "min_separation_bins", 0)
    tags = tagio.read_tags(args.tags)
    tags_path = Path(args.tags)
    # started after the read (np.loadtxt holds the GIL) and joined before any output is written
    helper = _Sha256Thread(tags_path) if tags_path.stat().st_size >= HASH_THREAD_MIN_BYTES else None
    with helper or contextlib.nullcontext():
        topology = load_topology(args.topology)
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
        digests = {"tags": helper.hexdigest() if helper else _sha256(tags_path)}
    parameters = {
        "tags": str(args.tags),
        "topology": str(args.topology),
        "bin_width_ps": bin_width,
        "k_sigma": args.k_sigma,
        "min_separation_bins": args.min_separation,
        "window_ps": list(window) if window else None,
    }
    outputs = [Path(args.out)]
    tagio.write_json(outputs[0], report.to_dict(parameters))
    if args.hist:
        outputs.append(Path(args.hist))
        tagio.write_histogram_csv(outputs[1], report.histogram)
    inputs = {**_given(args, "tags", "topology", "source", "detector"), **_sidecar(args.tags, "tags_metadata")}
    return _Run(parameters, inputs, outputs, f"{len(report.peaks)} peak(s)", digests=digests)


def cmd_scan(args) -> _Run:
    lines_doc = read_json(args.lines, "lines")
    if not isinstance(lines_doc, list):
        raise InputError("lines: expected a JSON array of {wavelength_nm, rate_photons_per_s}")
    lines = [read_dataclass(entry, LeakLine, f"lines[{i}]") for i, entry in enumerate(lines_doc)]
    filt = _from_args(args, "filter", TunableFilter) or TunableFilter()
    detector = _from_args(args, "detector", Detector) or Detector()
    grid = parse_grid_nm(args.grid, "--grid")  # the simulator checks its range
    dwell_s = parse_duration_s(args.dwell, "--dwell")
    scan = simulate_spectral_scan(lines, filt, detector, grid, dwell_s, args.seed)
    out = Path(args.out)
    tagio.write_scan_csv(out, scan)
    return _Run(
        {
            "lines": str(args.lines),
            "filter": asdict(filt),
            "detector": asdict(detector),
            "grid_nm": [grid[0], grid[-1], len(grid)],
            "dwell_s": dwell_s,
        },
        _given(args, "lines", "filter", "detector"),
        [out],
        f"{len(grid)} wavelength points",
        args.seed,
    )


def cmd_scan_analyze(args) -> _Run:
    dwell_s = parse_duration_s(args.dwell, "--dwell") if args.dwell else None
    require_number(args.k_sigma, "k_sigma", minimum=0.0, strict=True)  # before the scan is read
    scan = tagio.read_scan_csv(args.scan, dwell_s=dwell_s)
    try:
        lines = detect_spectral_lines(scan, k_sigma=args.k_sigma)
    except DataError as exc:  # a fault of the scan file: name it
        raise DataError(f"{args.scan}: {exc}", code=exc.code) from None
    parameters = {"scan": str(args.scan), "k_sigma": args.k_sigma, "dwell_s": scan.dwell_s}
    out = Path(args.out)
    tagio.write_json(out, {
        "schema_version": 1,
        "kind": "scan-analysis",
        "parameters": parameters,
        "lines": [asdict(line) for line in lines],
    })
    inputs = {**_given(args, "scan"), **_sidecar(args.scan, "scan_metadata")}
    return _Run(parameters, inputs, [out], f"{len(lines)} line(s)")


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
# A measured table replaces the crosstalk fields, but not the switch size or the default carrier.
_TABLE_KEEPS = ("n_in", "n_out", "reference_nm")


def _model_from_args(args) -> tuple[SwitchModel, dict, dict[str, Path]]:
    """The ``--model`` document, then the model flags and ``--table`` on top.

    Returns the model, its manifest record and the manifest inputs. A fault in
    the document is an input error; a flag that puts the model out of its
    domain is a parameter error.
    """
    doc = read_json(args.model, "switch model") if args.model else {}
    if isinstance(doc, dict) and "table" in doc:
        raise InputError("switch model: a measured table comes only from --table")
    overrides = {key: getattr(args, flag) for flag, key in _MODEL_FLAGS if getattr(args, flag) is not None}
    if args.table:
        ignored = [f"--{flag.replace('_', '-')}" for flag, key in _MODEL_FLAGS
                   if key in overrides and key not in _TABLE_KEEPS]
        if ignored:
            raise InputError(f"--table replaces the parametric model, so {', '.join(ignored)} would be ignored")
        overrides["table"] = load_measured_table(args.table)
    model = replace(read_dataclass(doc, SwitchModel, "switch model"), **overrides)
    record = ({"mode": "measured", **{key: getattr(model, key) for key in _TABLE_KEEPS}}
              if args.table else asdict(model))
    return model, record, _given(args, "model", "table")


def cmd_switch_sweep_config(args) -> _Run:
    model, record, inputs = _model_from_args(args)
    nm = parse_wavelength_nm(args.wavelength, "--wavelength") if args.wavelength else None
    points = sweep_configs(model, args.classical_in, args.victim_out, nm)
    out = Path(args.out)
    tagio.write_csv(out, "config,xtalk_db", '"%s",%.6f', ([p.label for p in points], [p.xtalk_db for p in points]))
    return _Run(
        {"model": record, "classical_in": args.classical_in, "victim_out": args.victim_out, "wavelength_nm": nm},
        inputs, [out], f"{len(points)} configurations",
    )


def cmd_switch_sweep_wavelength(args) -> _Run:
    model, record, inputs = _model_from_args(args)
    aggressor = parse_path(args.aggressor, "--aggressor")
    victim = parse_path(args.victim, "--victim")
    grid = parse_grid_nm(args.grid, "--grid")
    curve = sweep_wavelength(model, aggressor, victim, grid)
    out = Path(args.out)
    tagio.write_csv(out, "lambda_nm,xtalk_db", "%.6f,%.6f", list(zip(*curve)))
    return _Run(
        {"model": record, "aggressor": list(aggressor), "victim": list(victim),
         "grid_nm": [grid[0], grid[-1], len(grid)]},
        inputs, [out], f"{len(curve)} wavelength points",
    )


def cmd_switch_plan(args) -> _Run:
    model, record, inputs = _model_from_args(args)
    wanted = {"classical": args.classical_band, "quantum": args.quantum_band}
    bands = {kind: parse_band(text, f"--{kind}-band") for kind, text in wanted.items() if text} or None
    solver = brute_force_assignment if args.oracle else optimize_assignment
    assignment = solver(model, args.classical, args.quantum, bands)
    out = Path(args.out)
    tagio.write_json(out, {"schema_version": 1, "kind": "switch-assignment", **asdict(assignment)})
    objective = "-inf" if assignment.objective_db == float("-inf") else f"{assignment.objective_db:.2f} dB"
    return _Run(
        {"model": record, "k_classical": args.classical, "k_quantum": args.quantum, "bands": bands,
         "oracle": bool(args.oracle)},
        inputs, [out], f"objective {objective}, {assignment.method}",
    )


# --- parser ----------------------------------------------------------------------


def _add_switch_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="JSON file with SwitchModel fields")
    parser.add_argument("--table", help="measured crosstalk CSV (a_in,a_out,v_in,v_out,lambda_nm,xtalk_db)")
    parser.add_argument("--n-in", dest="n_in", type=integer)
    parser.add_argument("--n-out", dest="n_out", type=integer)
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
    sim.add_argument("--seed", required=True, type=integer)
    sim.add_argument("--out", required=True)
    # Kept because perfbench/workloads.py still passes --jobs 1; nothing reads it.
    sim.add_argument("--jobs", type=integer, choices=[1], help=argparse.SUPPRESS)
    sim.add_argument("--max-tags", dest="max_tags", type=integer, default=DEFAULT_MAX_TAGS)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="fold a tag file and report peaks/locations/couplings")
    ana.add_argument("--tags", required=True)
    ana.add_argument("--topology", required=True)
    ana.add_argument("--bin", default="100ps", help="histogram bin width (default 100ps)")
    ana.add_argument("--k-sigma", dest="k_sigma", type=float, default=5.0)
    ana.add_argument("--min-separation", dest="min_separation", type=integer, default=3)
    ana.add_argument("--window", help="delay window 'lo:hi' (ps units by default)")
    ana.add_argument("--source", help="override source JSON (else tag metadata)")
    ana.add_argument("--detector", help="override detector JSON (else tag metadata)")
    ana.add_argument("--out", required=True, help="analysis report JSON")
    ana.add_argument("--hist", help="histogram CSV (occupied bins)")
    ana.set_defaults(func=cmd_analyze)

    scan = sub.add_parser("scan", help="simulate a filter-sweep spectral scan")
    scan.add_argument("--lines", required=True, help="JSON array of leak lines")
    scan.add_argument("--filter", help="JSON file with TunableFilter fields")
    scan.add_argument("--detector", help="JSON file with Detector fields")
    scan.add_argument("--grid", required=True, help="wavelength grid 'start:stop:step' in nm")
    scan.add_argument("--dwell", required=True, help="dwell time per point")
    scan.add_argument("--seed", required=True, type=integer)
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
    scfg.add_argument("--classical-in", dest="classical_in", type=integer, default=1)
    scfg.add_argument("--victim-out", dest="victim_out", type=integer, default=None)
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
    plan.add_argument("--classical", required=True, type=integer, help="number of classical channels")
    plan.add_argument("--quantum", required=True, type=integer, help="number of quantum channels")
    plan.add_argument("--classical-band", dest="classical_band", help="'O', 'C', or 'min,max' nm")
    plan.add_argument("--quantum-band", dest="quantum_band")
    plan.add_argument("--oracle", action="store_true", help="use the exhaustive oracle directly")
    plan.add_argument("--out", required=True)
    plan.set_defaults(func=cmd_switch_plan)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    outputs: list[Path] = []
    try:
        args = build_parser().parse_args(argv)
        outputs = [Path(p) for p in (args.out, getattr(args, "hist", None)) if p]
        started = time.perf_counter()
        run = args.func(args)
        command = " ".join(filter(None, (args.command, getattr(args, "switch_command", None))))
        _write_manifests(command, run, started)
    except BaseException as exc:
        # a failed run may have rewritten some outputs: leave no manifest that no longer matches
        for out in outputs:
            _drop_stale_manifest(out)
        if isinstance(exc, XtalkError):
            error = exc
        elif isinstance(exc, OSError):  # a path the system refused to read or write; the message names it
            error = InputError(str(exc))
        elif isinstance(exc, MemoryError):
            error = ResourceError(f"out of memory: {exc}" if str(exc) else "out of memory")
        else:
            raise
        print(json.dumps({"error": error.code, "message": str(error)}), file=sys.stderr)
        return error.exit_code
    print(f"wrote {run.outputs[0]} ({run.summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
