"""Batch command-line front end: simulate, analyze, scan, and switch tooling.

Every command is deterministic given its flags and an explicit ``--seed``.
A command only parses, reads and computes: it returns a :class:`_Run` record
of the files it read and the writes it needs, and writes nothing. :func:`main`
holds the one run order: it hashes every file the command read, runs the
writes in order, then writes beside each output (every file it writes,
``.meta.json`` sidecars included) a ``<file>.manifest.json``
recording the full parameter snapshot, the package and numpy versions, and
SHA-256 digests of every file read and written, and prints the one summary
line ``wrote <first output> (...)``. As no input is hashed after the first
write, an input that is also an output keeps the digest of the bytes read.
Outputs are rewritten in place (see :mod:`fiberxtalk.tagio`), and a run that
fails removes the manifest of every output it began to write. An ``analyze``
tag file of at least ``HASH_THREAD_MIN_BYTES`` is hashed on one helper
thread, started once the file is read, while the command folds and analyses.

Exit codes: 0 ok, 2 input error, 3 data error, 4 parameter error, 5 resource
error. Failures print a one-line machine-readable JSON object on stderr. A
fault in any input file or document, a flag that argparse or
:func:`parse_band` cannot read, an empty file or output path (see
:func:`path`), or a path that cannot be read or written (an output into a
missing directory, say) exits 2 (``E_INPUT``). Number flags are read with
the grammar of the CSV readers: integers by :func:`integer` (spaces around
the field, an optional sign, then ASCII digits), and ``--k-sigma`` and a
band's edges by :func:`number` (what ``float()`` reads, in ASCII and without
``_``). A flag may have ASCII spaces around it, but not the other Unicode
spaces a CSV field may have: a quantity with a no-break space around its
number exits 4. A flag that reads but lies outside its domain, an empty value
included, exits 4 (``E_PARAM``); running out of memory exits 5
(``E_RESOURCE``).

Every command checks its flags before it reads any file, with the library's
own checkers and messages, so a flag's fault is reported even when an input
is missing: a quantity, grid, band or path that does not parse, and a
duration, dwell, wavelength, grid, band, seed, ``--max-tags``, channel count,
switch size, ``--k-sigma`` or ``--min-separation`` outside its domain. Only
what depends on the model file waits for the read: the ports' range, and
whether the channels fit the switch.

Without ``--table``, a switch model is the ``--model`` JSON document of
:class:`~fiberxtalk.switchlab.SwitchModel` keys, each optional (no document is
the default model). ``--table`` replaces the crosstalk keys with the measured
table, so a ``--model`` beside it may hold only ``n_in``, ``n_out`` and
``reference_nm``; any other key exits 2 (``E_INPUT``), naming the keys.
``--n-in`` and ``--n-out`` override the document's switch size either way.
``switch plan`` runs ``optimize_assignment``; no command runs the exhaustive
``brute_force_assignment``, the library's reference for it.

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
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import detect_spectral_lines, require_scan_points, run_otdr_analysis
from .errors import DataError, InputError, ParameterError, ResourceError, XtalkError, read_dataclass, read_json
from .plant import load_topology
from .simulate import (
    DEFAULT_MAX_TAGS,
    Detector,
    LeakLine,
    PulsedSource,
    TunableFilter,
    _validate_max_tags,
    _validate_seed,
    simulate_otdr_tags,
    simulate_spectral_scan,
)
from .switchlab import (
    BAND_PRESETS,
    SwitchModel,
    _resolve_band,
    brute_force_assignment,  # no command calls it: perfbench/spans.py wraps cli.brute_force_assignment
    load_measured_table,
    optimize_assignment,
    sweep_configs,
    sweep_wavelength,
)
from . import analysis, tagio
from .units import require_int, require_number, validate_grid_nm, validate_wavelength_nm

MANIFEST_SCHEMA_VERSION = 1
MAX_GRID_POINTS = 1_000_000  # the benchmark's spectral scan has 3601
# A smaller tag file is hashed inline: a helper thread for each slowed otdr-sim by ~8 % (ROADMAP aim 1).
HASH_THREAD_MIN_BYTES = 1 << 20

_INT_RE = re.compile(r"\s*[-+]?[0-9]+\s*", re.ASCII)

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ]*)\s*$", re.ASCII)
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
    """A duration in seconds, > 0: bare numbers are seconds; suffixes down to ps are accepted."""
    return require_number(parse_time_ps(text, flag, default_unit="s") * 1e-12, flag, minimum=0.0, strict=True)


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
    """Parse 'start:stop:step' (inclusive endpoints, nm) of at most ``MAX_GRID_POINTS`` points, each in range."""
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
    validate_grid_nm(grid)
    return grid


def parse_band(text: str, flag: str) -> "str | tuple[float, float]":
    """A band preset name, as given, or 'min,max' in nm, checked as the planner checks it.

    A preset is checked whatever its case, and kept as typed, so the manifest
    records the flag's own text.
    """
    if "," not in text:
        if text.upper() not in BAND_PRESETS:
            raise ParameterError(f"{flag}: unknown band {text!r}; presets are {sorted(BAND_PRESETS)}")
        return text
    try:
        lo, hi = (number(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"{flag}: expected a preset or 'min,max' in nm, got {text!r}") from None
    return _resolve_band((lo, hi))


def integer(text: str) -> int:
    """An integer as the CSV readers read one: spaces around it, an optional sign, then ASCII digits.

    ``int()`` also takes ``1_0`` and non-ASCII digits. Raises ``ValueError``, so
    argparse reports a bad flag value as an input error.
    """
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def number(text: str) -> float:
    """A float as the CSV readers read one: what ``float()`` reads, in ASCII and without ``_``.

    ``float()`` also takes ``1_0`` and non-ASCII digits. Raises ``ValueError``, so
    argparse reports a bad flag value as an input error.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def path(text: str) -> str:
    """A file or output path, not empty: ``ValueError`` lets argparse name the flag of an empty one."""
    if not text:
        raise ValueError("empty path")
    return text


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
    """What a command read and computed: manifest record, writes, and the summary after ``wrote <first output>``.

    ``writes`` pairs each output with the call that writes it there, in the
    order :func:`main` runs them; an output given twice is written twice. ``digests``
    holds the input digests the command took itself, by label; :func:`main`
    hashes the other inputs before the first write.
    """

    parameters: dict
    inputs: dict[str, Path]
    writes: list[tuple[Path, Callable[[Path], object]]]
    summary: str
    seed: int | None = None
    digests: dict[str, str] = field(default_factory=dict)


def _write_manifests(command: str, run: _Run, inputs: dict, started: float) -> None:
    outputs = [out for out, _ in run.writes]
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "run-manifest",
        "tool": "fiberxtalk",
        "version": __version__,
        "numpy_version": np.__version__,
        "command": command,
        "parameters": run.parameters,
        "seed": run.seed,
        "inputs": inputs,
        "outputs": {str(p): {"sha256": _sha256(p)} for p in outputs},
        "duration_s": time.perf_counter() - started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    for out in outputs:
        tagio.write_json(str(out) + ".manifest.json", doc)


def _given(args, *names: str) -> dict[str, Path]:
    """Manifest inputs: the file of each flag in ``names`` that was given."""
    return {name: Path(getattr(args, name)) for name in names if getattr(args, name, None) is not None}


def _sidecar(path: str, label: str) -> dict[str, Path]:
    """Manifest input: the ``.meta.json`` sidecar of ``path``, if there is one."""
    side = tagio.metadata_path(path)
    return {label: side} if side.is_file() else {}


def _from_args(args, name: str, cls, metadata: dict | None = None):
    """``cls`` built from the ``--<name>`` JSON file, else from ``metadata[name]``, else None."""
    if getattr(args, name, None) is not None:
        return read_dataclass(read_json(getattr(args, name), name), cls, name)
    if metadata and name in metadata:
        return read_dataclass(metadata[name], cls, f"metadata.{name}")
    return None


# --- commands --------------------------------------------------------------------


def cmd_simulate(args) -> _Run:
    duration_s = parse_duration_s(args.duration, "--duration")
    _validate_seed(args.seed)
    _validate_max_tags(args.max_tags)
    topology = load_topology(args.topology)
    source = _from_args(args, "source", PulsedSource)  # argparse requires --source
    detector = _from_args(args, "detector", Detector) or Detector()
    stream = simulate_otdr_tags(
        topology, source, detector, duration_s, args.seed, max_tags=args.max_tags,
    )
    return _Run(
        {
            "topology": str(args.topology),
            "source": asdict(source),
            "detector": asdict(detector),
            "duration_s": duration_s,
            "max_tags": args.max_tags,
        },
        _given(args, "topology", "source", "detector"),
        [(Path(args.out), lambda out: tagio.write_tags_xtt1(out, stream)),
         (tagio.metadata_path(args.out), lambda _: tagio.write_metadata(args.out, stream.metadata))],
        f"{stream.metadata['n_triggers']} triggers, {stream.metadata['n_detector_tags']} detector tags",
        args.seed,
    )


def cmd_analyze(args) -> _Run:
    bin_width = parse_bin_ps(args.bin, "--bin")
    require_number(args.k_sigma, "k_sigma", minimum=0.0, strict=True)
    require_int(args.min_separation, "min_separation_bins", 0)
    tags = tagio.read_tags(args.tags)
    tags_path = Path(args.tags)
    # started after the read (np.loadtxt holds the GIL) and joined before the command returns
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
            source=source,
            detector=detector,
        )
        digests = {"tags": helper.hexdigest()} if helper else {}
    parameters = {
        "tags": str(args.tags),
        "topology": str(args.topology),
        "bin_width_ps": bin_width,
        "k_sigma": args.k_sigma,
        "min_separation_bins": args.min_separation,
    }
    # built as it is written: a report document built here outlived the tag arrays, and glibc's heap then
    # kept capture-analyze's peak RSS ~4 MB higher
    writes = [(Path(args.out), lambda out: tagio.write_json(out, report.to_dict(parameters)))]
    if args.hist is not None:
        writes.append((Path(args.hist), lambda out: tagio.write_histogram_csv(out, report.histogram)))
    inputs = {**_given(args, "tags", "topology", "source", "detector"), **_sidecar(args.tags, "tags_metadata")}
    return _Run(parameters, inputs, writes, f"{len(report.peaks)} peak(s)", digests=digests)


def cmd_scan(args) -> _Run:
    grid = parse_grid_nm(args.grid, "--grid")
    dwell_s = parse_duration_s(args.dwell, "--dwell")
    _validate_seed(args.seed)
    lines_doc = read_json(args.lines, "lines")
    if not isinstance(lines_doc, list):
        raise InputError("lines: expected a JSON array of {wavelength_nm, rate_photons_per_s}")
    lines = [read_dataclass(entry, LeakLine, f"lines[{i}]") for i, entry in enumerate(lines_doc)]
    filt = _from_args(args, "filter", TunableFilter) or TunableFilter()
    detector = _from_args(args, "detector", Detector) or Detector()
    scan = simulate_spectral_scan(lines, filt, detector, grid, dwell_s, args.seed)
    return _Run(
        {
            "lines": str(args.lines),
            "filter": asdict(filt),
            "detector": asdict(detector),
            "grid_nm": [grid[0], grid[-1], len(grid)],
            "dwell_s": dwell_s,
        },
        _given(args, "lines", "filter", "detector"),
        [(Path(args.out), lambda out: tagio.write_scan_csv(out, scan)),
         (tagio.metadata_path(args.out), lambda _: tagio.write_metadata(args.out, scan.metadata))],
        f"{len(grid)} wavelength points",
        args.seed,
    )


def _scan_record(args, scan, name: str, cls):
    """``cls`` from ``--<name>``, else from the scan's sidecar; with neither, an input error that names the flag."""
    found = _from_args(args, name, cls, scan.metadata)
    if found is None:
        raise InputError(f"{args.scan}: {name} unknown; give --{name} or keep a "
                         f"{tagio.metadata_path(args.scan).name} sidecar that has it")
    return found


def cmd_scan_analyze(args) -> _Run:
    dwell_s = parse_duration_s(args.dwell, "--dwell") if args.dwell is not None else None
    require_number(args.k_sigma, "k_sigma", minimum=0.0, strict=True)
    scan = tagio.read_scan_csv(args.scan, dwell_s=dwell_s)
    try:
        require_scan_points(scan)  # a short scan is a data error, whether or not its filter is known
        filt = _scan_record(args, scan, "filter", TunableFilter)
        detector = _scan_record(args, scan, "detector", Detector)
        report = detect_spectral_lines(scan, filt, detector, k_sigma=args.k_sigma)
    except DataError as exc:  # a fault of the scan file: name it
        raise DataError(f"{args.scan}: {exc}", code=exc.code) from None
    parameters = {"scan": str(args.scan), "k_sigma": args.k_sigma, "dwell_s": scan.dwell_s,
                  "filter": asdict(filt), "detector": asdict(detector)}
    inputs = {**_given(args, "scan", "filter", "detector"), **_sidecar(args.scan, "scan_metadata")}
    return _Run(parameters, inputs, [(Path(args.out), lambda out: tagio.write_json(out, report.to_dict(parameters)))],
                f"{len(report.lines)} line(s)")


# A measured table replaces the crosstalk fields, but not the switch size or the default carrier.
_TABLE_KEEPS = ("n_in", "n_out", "reference_nm")


def _model_from_args(args) -> tuple[SwitchModel, dict, dict[str, Path]]:
    """The ``--model`` document, then ``--n-in``, ``--n-out`` and ``--table`` on top.

    Returns the model, its manifest record and the manifest inputs. A fault in
    the document is an input error, and so is a key that ``--table`` would
    drop; a flag that puts the model out of its domain is a parameter error.
    """
    overrides = {key: require_int(getattr(args, key), key, 1) for key in ("n_in", "n_out")
                 if getattr(args, key) is not None}
    doc = read_json(args.model, "switch model") if args.model is not None else {}
    if isinstance(doc, dict) and "table" in doc:
        raise InputError("switch model: a measured table comes only from --table")
    if args.table is not None:
        dropped = [key for key in doc if key not in _TABLE_KEEPS] if isinstance(doc, dict) else []
        if dropped:
            raise InputError(f"switch model: --table replaces the parametric model, so {', '.join(dropped)} "
                             f"would be dropped; beside it the document may hold only {', '.join(_TABLE_KEEPS)}")
        overrides["table"] = load_measured_table(args.table)
    model = replace(read_dataclass(doc, SwitchModel, "switch model"), **overrides)
    record = ({"mode": "measured", **{key: getattr(model, key) for key in _TABLE_KEEPS}}
              if args.table is not None else asdict(model))
    return model, record, _given(args, "model", "table")


def cmd_switch_sweep_config(args) -> _Run:
    nm = None
    if args.wavelength is not None:
        nm = validate_wavelength_nm(parse_wavelength_nm(args.wavelength, "--wavelength"))
    model, record, inputs = _model_from_args(args)
    points = sweep_configs(model, args.classical_in, args.victim_out, nm)
    columns = ([p.label for p in points], [p.xtalk_db for p in points])
    return _Run(
        {"model": record, "classical_in": args.classical_in, "victim_out": args.victim_out, "wavelength_nm": nm},
        inputs, [(Path(args.out), lambda out: tagio.write_csv(out, "config,xtalk_db", '"%s",%.6f', columns))],
        f"{len(points)} configurations",
    )


def cmd_switch_sweep_wavelength(args) -> _Run:
    aggressor = parse_path(args.aggressor, "--aggressor")
    victim = parse_path(args.victim, "--victim")
    grid = parse_grid_nm(args.grid, "--grid")
    model, record, inputs = _model_from_args(args)
    curve = sweep_wavelength(model, aggressor, victim, grid)
    columns = list(zip(*curve))
    return _Run(
        {"model": record, "aggressor": list(aggressor), "victim": list(victim),
         "grid_nm": [grid[0], grid[-1], len(grid)]},
        inputs, [(Path(args.out), lambda out: tagio.write_csv(out, "lambda_nm,xtalk_db", "%.6f,%.6f", columns))],
        f"{len(curve)} wavelength points",
    )


def cmd_switch_plan(args) -> _Run:
    wanted = {"classical": args.classical_band, "quantum": args.quantum_band}
    bands = {kind: parse_band(text, f"--{kind}-band") for kind, text in wanted.items() if text is not None} or None
    require_int(args.classical, "k_classical", 0)
    require_int(args.quantum, "k_quantum", 0)
    model, record, inputs = _model_from_args(args)
    assignment = optimize_assignment(model, args.classical, args.quantum, bands)
    doc = {"schema_version": 1, "kind": "switch-assignment", **asdict(assignment)}
    objective = f"{assignment.objective_db:.2f} dB"
    if not np.isfinite(assignment.objective_db):  # -inf when nothing can leak; JSON has no -Infinity
        objective, doc["objective_db"] = str(assignment.objective_db), None
    return _Run(
        {"model": record, "k_classical": args.classical, "k_quantum": args.quantum, "bands": bands},
        inputs, [(Path(args.out), lambda out: tagio.write_json(out, doc))],
        f"objective {objective}, {assignment.method}",
    )


# --- parser ----------------------------------------------------------------------


def _add_switch_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", type=path, help="JSON file of SwitchModel keys (n_in, n_out, c0_db, "
                        "beta_in_db_per_port, beta_out_db_per_port, reference_nm, slope_db_per_nm, floor_db)")
    parser.add_argument("--table", type=path, help="measured crosstalk CSV (a_in,a_out,v_in,v_out,lambda_nm,xtalk_db); "
                        "it replaces the parametric model, so --model may then hold only n_in, n_out and reference_nm")
    parser.add_argument("--n-in", dest="n_in", type=integer, help="input ports (overrides the model's n_in)")
    parser.add_argument("--n-out", dest="n_out", type=integer, help="output ports (overrides the model's n_out)")


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
    sim.add_argument("--topology", type=path, required=True)
    sim.add_argument("--source", type=path, required=True, help="JSON file with PulsedSource fields")
    sim.add_argument("--detector", type=path, help="JSON file with Detector fields")
    sim.add_argument("--duration", required=True, help="acquisition time (s, ms, ... )")
    sim.add_argument("--seed", required=True, type=integer)
    sim.add_argument("--out", type=path, required=True)
    # Kept because perfbench/workloads.py still passes --jobs 1; nothing reads it.
    sim.add_argument("--jobs", type=integer, choices=[1], help=argparse.SUPPRESS)
    sim.add_argument("--max-tags", dest="max_tags", type=integer, default=DEFAULT_MAX_TAGS)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="fold a tag file and report peaks/locations/couplings")
    ana.add_argument("--tags", type=path, required=True)
    ana.add_argument("--topology", type=path, required=True)
    bin_ps = f"{analysis.DEFAULT_BIN_WIDTH_PS}ps"
    ana.add_argument("--bin", default=bin_ps, help=f"histogram bin width (default {bin_ps})")
    ana.add_argument("--k-sigma", dest="k_sigma", type=number, default=analysis.DEFAULT_K_SIGMA)
    ana.add_argument("--min-separation", dest="min_separation", type=integer,
                     default=analysis.DEFAULT_MIN_SEPARATION_BINS)
    ana.add_argument("--source", type=path, help="override source JSON (else tag metadata)")
    ana.add_argument("--detector", type=path, help="override detector JSON (else tag metadata)")
    ana.add_argument("--out", type=path, required=True, help="analysis report JSON")
    ana.add_argument("--hist", type=path, help="histogram CSV (occupied bins)")
    ana.set_defaults(func=cmd_analyze)

    scan = sub.add_parser("scan", help="simulate a filter-sweep spectral scan")
    scan.add_argument("--lines", type=path, required=True, help="JSON array of leak lines")
    scan.add_argument("--filter", type=path, help="JSON file with TunableFilter fields")
    scan.add_argument("--detector", type=path, help="JSON file with Detector fields")
    scan.add_argument("--grid", required=True, help="wavelength grid 'start:stop:step' in nm")
    scan.add_argument("--dwell", required=True, help="dwell time per point")
    scan.add_argument("--seed", required=True, type=integer)
    scan.add_argument("--out", type=path, required=True)
    scan.set_defaults(func=cmd_scan)

    sana = sub.add_parser(
        "scan-analyze", help="find the lines of a scan CSV and size them by a Poisson fit of the filter profile",
        description="Find the lines of a filter-sweep scan, then size them all by one Poisson fit of the filter's "
                    "Gaussian profile, one column per line, plus a constant background. The filter and the "
                    "detector come from --filter and --detector, else from the scan's .meta.json sidecar.")
    sana.add_argument("--scan", type=path, required=True)
    sana.add_argument("--filter", type=path, help="JSON file with TunableFilter fields (else the scan's sidecar)")
    sana.add_argument("--detector", type=path, help="JSON file with Detector fields (else the scan's sidecar)")
    sana.add_argument("--k-sigma", dest="k_sigma", type=number, default=analysis.DEFAULT_K_SIGMA)
    sana.add_argument("--dwell", help="dwell time per point; replaces the sidecar's dwell")
    sana.add_argument("--out", type=path, required=True)
    sana.set_defaults(func=cmd_scan_analyze)

    switch = sub.add_parser("switch", help="switch crosstalk sweeps and planning")
    ssub = switch.add_subparsers(dest="switch_command", required=True)

    scfg = ssub.add_parser("sweep-config", help="crosstalk vs. cross-connect configuration")
    _add_switch_model_flags(scfg)
    scfg.add_argument("--classical-in", dest="classical_in", type=integer, default=1)
    scfg.add_argument("--victim-out", dest="victim_out", type=integer, default=None)
    scfg.add_argument("--wavelength", help="evaluation wavelength (nm)")
    scfg.add_argument("--out", type=path, required=True)
    scfg.set_defaults(func=cmd_switch_sweep_config)

    swl = ssub.add_parser("sweep-wavelength", help="crosstalk vs. wavelength for one configuration")
    _add_switch_model_flags(swl)
    swl.add_argument("--aggressor", default="1:10", help="aggressor path 'in:out'")
    swl.add_argument("--victim", default="2:9", help="victim path 'in:out'")
    swl.add_argument("--grid", default="1260:1560:10", help="wavelength grid 'start:stop:step' nm")
    swl.add_argument("--out", type=path, required=True)
    swl.set_defaults(func=cmd_switch_sweep_wavelength)

    plan = ssub.add_parser("plan", help="optimize classical/quantum port and band assignment")
    _add_switch_model_flags(plan)
    plan.add_argument("--classical", required=True, type=integer, help="number of classical channels")
    plan.add_argument("--quantum", required=True, type=integer, help="number of quantum channels")
    plan.add_argument("--classical-band", dest="classical_band", help="'O', 'C', or 'min,max' nm")
    plan.add_argument("--quantum-band", dest="quantum_band")
    plan.add_argument("--out", type=path, required=True)
    plan.set_defaults(func=cmd_switch_plan)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    begun: list[Path] = []  # the outputs whose write has started
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        run = args.func(args)
        # every input is hashed before the first write: an input that is also an output keeps the digest read
        inputs = {label: {"path": str(p), "sha256": run.digests.get(label) or _sha256(p)}
                  for label, p in run.inputs.items()}
        for out, write in run.writes:
            begun.append(out)
            write(out)
        command = " ".join(filter(None, (args.command, getattr(args, "switch_command", None))))
        _write_manifests(command, run, inputs, started)
    except BaseException as exc:
        # a failed run may have rewritten some outputs: leave no manifest that may no longer match
        for out in begun:
            with contextlib.suppress(OSError):
                Path(str(out) + ".manifest.json").unlink(missing_ok=True)
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
    print(f"wrote {run.writes[0][0]} ({run.summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
