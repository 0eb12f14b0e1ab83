"""Crosstalk model of an N x N beam-steering switch and a port/wavelength planner.

Ports are labeled the way the physical device is: inputs 1..n_in, outputs
n_in+1..n_in+n_out (so the default 8x8 switch has inputs 1-8 and outputs
9-16). The parametric model decays with port-index separation on the input
and output planes independently and rises linearly with wavelength; a
measured table can replace it entirely.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, ParameterError, ResourceError, csv_rows
from .units import C_BAND_NM, O_BAND_NM, require_number, validate_wavelength_nm

DEFAULT_SLOPE_DB_PER_NM = 10.0 / 300.0
DEFAULT_STATE_LIMIT = 1_000_000

BAND_PRESETS: dict[str, tuple[float, float]] = {"O": O_BAND_NM, "C": C_BAND_NM}

PathPair = tuple[int, int]
MeasuredTable = Mapping[tuple[int, int, int, int], Sequence[tuple[float, float]]]


@dataclass(frozen=True)
class SwitchModel:
    """Parametric or measured crosstalk model over paths and wavelength."""

    n_in: int = 8
    n_out: int = 8
    c0_db: float = -50.0
    beta_in_db_per_port: float = 5.0
    beta_out_db_per_port: float = 5.0
    reference_nm: float = 1310.0
    slope_db_per_nm: float = DEFAULT_SLOPE_DB_PER_NM
    floor_db: float = -120.0
    table: MeasuredTable | None = None

    def __post_init__(self):
        if not (isinstance(self.n_in, int) and self.n_in >= 1):
            raise ParameterError(f"n_in must be an integer >= 1, got {self.n_in!r}")
        if not (isinstance(self.n_out, int) and self.n_out >= 1):
            raise ParameterError(f"n_out must be an integer >= 1, got {self.n_out!r}")
        if not require_number(self.floor_db, "floor_db") <= require_number(self.c0_db, "c0_db") <= 0.0:
            raise ParameterError(
                f"c0 must satisfy floor <= c0 <= 0 dB, got c0={self.c0_db}, floor={self.floor_db}"
            )
        require_number(self.beta_in_db_per_port, "beta_in_db_per_port", minimum=0.0)
        require_number(self.beta_out_db_per_port, "beta_out_db_per_port", minimum=0.0)
        require_number(self.reference_nm, "reference_nm")
        require_number(self.slope_db_per_nm, "slope_db_per_nm")

    @property
    def mode(self) -> str:
        return "measured" if self.table is not None else "parametric"

    @property
    def input_ports(self) -> range:
        return range(1, self.n_in + 1)

    @property
    def output_ports(self) -> range:
        return range(self.n_in + 1, self.n_in + self.n_out + 1)


@dataclass(frozen=True)
class SwitchConfig:
    """A set of cross-connections forming a partial bijection of ports."""

    connections: tuple[PathPair, ...]

    def validate(self, model: SwitchModel) -> "SwitchConfig":
        seen_in: set[int] = set()
        seen_out: set[int] = set()
        for conn in self.connections:
            i, o = conn
            if i not in model.input_ports:
                raise ParameterError(
                    f"input port {i} outside 1..{model.n_in}", code="E_CONFIG"
                )
            if o not in model.output_ports:
                raise ParameterError(
                    f"output port {o} outside {model.n_in + 1}..{model.n_in + model.n_out}",
                    code="E_CONFIG",
                )
            if i in seen_in:
                raise ParameterError(f"input port {i} used twice", code="E_CONFIG")
            if o in seen_out:
                raise ParameterError(f"output port {o} used twice", code="E_CONFIG")
            seen_in.add(i)
            seen_out.add(o)
        return self

    @classmethod
    def parse(cls, text: str) -> "SwitchConfig":
        """Parse ``"1:10,2:9"`` into a configuration."""
        pairs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                left, right = part.split(":")
                pairs.append((int(left), int(right)))
            except ValueError:
                raise ParameterError(
                    f"bad cross-connection {part!r}; expected 'in:out'", code="E_CONFIG"
                ) from None
        if not pairs:
            raise ParameterError("empty switch configuration", code="E_CONFIG")
        return cls(connections=tuple(pairs))


def _validate_path(model: SwitchModel, path: PathPair, name: str) -> PathPair:
    i, o = path
    if i not in model.input_ports:
        raise ParameterError(f"{name} input port {i} outside 1..{model.n_in}")
    if o not in model.output_ports:
        raise ParameterError(
            f"{name} output port {o} outside {model.n_in + 1}..{model.n_in + model.n_out}"
        )
    return (int(i), int(o))


def _measured_lookup(model: SwitchModel, key: tuple[int, int, int, int], nm: float) -> float:
    assert model.table is not None
    entries = model.table.get(key)
    if not entries:
        raise DataError(
            f"no measured crosstalk for paths {key[0]}->{key[1]} / {key[2]}->{key[3]}"
        )
    pts = sorted((float(l), float(v)) for l, v in entries)
    lams = [p[0] for p in pts]
    vals = [p[1] for p in pts]
    if nm <= lams[0]:
        return vals[0]
    if nm >= lams[-1]:
        return vals[-1]
    for j in range(1, len(lams)):
        if nm <= lams[j]:
            left, right = lams[j - 1], lams[j]
            frac = (nm - left) / (right - left)
            return vals[j - 1] + frac * (vals[j] - vals[j - 1])
    return vals[-1]


def switch_xtalk_db(
    model: SwitchModel,
    aggressor: PathPair,
    victim: PathPair,
    wavelength_nm: float,
) -> float:
    """Crosstalk leaked from the aggressor path into the victim path, in dB."""
    a_in, a_out = _validate_path(model, aggressor, "aggressor")
    v_in, v_out = _validate_path(model, victim, "victim")
    if a_in == v_in or a_out == v_out:
        raise ParameterError(
            f"aggressor {a_in}->{a_out} and victim {v_in}->{v_out} share a port"
        )
    nm = validate_wavelength_nm(wavelength_nm)
    if model.table is not None:
        return _measured_lookup(model, (a_in, a_out, v_in, v_out), nm)
    value = (
        model.c0_db
        - model.beta_in_db_per_port * (abs(a_in - v_in) - 1)
        - model.beta_out_db_per_port * (abs(a_out - v_out) - 1)
        + model.slope_db_per_nm * (nm - model.reference_nm)
    )
    if value > 0.0:
        raise ParameterError(
            f"the model gives {value:.4g} dB of crosstalk at {nm} nm; a passive switch leaks at most 0 dB"
        )
    return max(value, model.floor_db)


def load_measured_table(path: "str | Path") -> dict[tuple[int, int, int, int], list[tuple[float, float]]]:
    """Read a measured crosstalk table from CSV.

    Columns: ``a_in,a_out,v_in,v_out,lambda_nm,xtalk_db``.
    """
    table: dict[tuple[int, int, int, int], list[tuple[float, float]]] = {}
    with csv_rows(path, ["a_in", "a_out", "v_in", "v_out", "lambda_nm", "xtalk_db"]) as rows:
        for lineno, row in rows:
            if not row:
                continue
            try:
                key = (int(row[0]), int(row[1]), int(row[2]), int(row[3]))
                entry = (float(row[4]), float(row[5]))
            except (ValueError, IndexError):
                raise DataError(f"{path}:{lineno}: malformed row {row!r}") from None
            if not entry[1] <= 0.0:
                raise DataError(f"{path}:{lineno}: crosstalk must be <= 0 dB, got {row[5]!r}")
            table.setdefault(key, []).append(entry)
    return table


@dataclass(frozen=True)
class ConfigSweepPoint:
    aggressor: PathPair
    victim: PathPair
    xtalk_db: float

    @property
    def label(self) -> str:
        return (
            f"{self.aggressor[0]}->{self.aggressor[1]},"
            f"{self.victim[0]}->{self.victim[1]}"
        )


def sweep_configs(
    model: SwitchModel,
    classical_in: int = 1,
    victim_out: int | None = None,
    wavelength_nm: float | None = None,
) -> list[ConfigSweepPoint]:
    """Crosstalk into a fixed victim output across cross-connect configurations.

    Enumerates the aggressor input paired with every other output (ascending)
    and the victim output paired with every other input (ascending), so with
    defaults the first entry is the adjacent-on-both-planes configuration.
    """
    if victim_out is None:
        victim_out = model.n_in + 1
    nm = model.reference_nm if wavelength_nm is None else wavelength_nm
    if classical_in not in model.input_ports:
        raise ParameterError(f"classical input {classical_in} outside 1..{model.n_in}")
    if victim_out not in model.output_ports:
        raise ParameterError(
            f"victim output {victim_out} outside {model.n_in + 1}..{model.n_in + model.n_out}"
        )
    points = []
    for agg_out in model.output_ports:
        if agg_out == victim_out:
            continue
        for vic_in in model.input_ports:
            if vic_in == classical_in:
                continue
            aggressor = (classical_in, agg_out)
            victim = (vic_in, victim_out)
            points.append(
                ConfigSweepPoint(
                    aggressor=aggressor,
                    victim=victim,
                    xtalk_db=switch_xtalk_db(model, aggressor, victim, nm),
                )
            )
    return points


def sweep_wavelength(
    model: SwitchModel,
    aggressor: PathPair,
    victim: PathPair,
    grid_nm: Sequence[float],
) -> list[tuple[float, float]]:
    """Crosstalk of one configuration across a wavelength grid."""
    grid = [float(nm) for nm in grid_nm]
    if not grid:
        raise ParameterError("wavelength grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("wavelength grid must be strictly increasing")
    return [(nm, switch_xtalk_db(model, aggressor, victim, nm)) for nm in grid]


# --- port/wavelength assignment planning ----------------------------------------


@dataclass(frozen=True)
class ChannelPlacement:
    input: int
    output: int
    wavelength_nm: float


@dataclass(frozen=True)
class Assignment:
    """A planned placement of classical and quantum channels on the switch."""

    classical: tuple[ChannelPlacement, ...]
    quantum: tuple[ChannelPlacement, ...]
    objective_db: float
    method: str


def _resolve_band(band) -> tuple[float, float] | None:
    if band is None:
        return None
    if isinstance(band, str):
        key = band.upper()
        if key not in BAND_PRESETS:
            raise ParameterError(
                f"unknown band {band!r}; presets are {sorted(BAND_PRESETS)}"
            )
        return BAND_PRESETS[key]
    lo, hi = float(band[0]), float(band[1])
    validate_wavelength_nm(lo)
    validate_wavelength_nm(hi)
    if hi < lo:
        raise ParameterError(f"band must be (min, max), got ({lo}, {hi})")
    return (lo, hi)


def _wavelength_candidates(model: SwitchModel, bands, kind: str) -> tuple[float, ...]:
    resolved = _resolve_band(None if bands is None else bands.get(kind))
    if resolved is None:
        return (model.reference_nm,)
    lo, hi = resolved
    if kind == "quantum":
        # The quantum carrier does not drive classical leakage; pin it for
        # determinism.
        return (lo,)
    return (lo,) if lo == hi else (lo, hi)


def _leakage_objective(
    model: SwitchModel,
    classical: Sequence[ChannelPlacement],
    quantum: Sequence[ChannelPlacement],
) -> tuple[float, float]:
    """(worst-case, total) leakage into quantum outputs, in dB.

    Leakage is aggregated in linear power over classical channels, evaluated
    at each classical carrier wavelength, then converted back to dB. Channels
    are visited in canonical (sorted) order so that independently written
    searches produce bit-identical floats.
    """
    if not classical or not quantum:
        return (-math.inf, -math.inf)
    worst = -math.inf
    total_linear = 0.0
    for q in sorted(quantum, key=lambda p: (p.input, p.output)):
        linear = 0.0
        for c in sorted(classical, key=lambda p: (p.input, p.output, p.wavelength_nm)):
            xdb = switch_xtalk_db(
                model, (c.input, c.output), (q.input, q.output), c.wavelength_nm
            )
            linear += 10.0 ** (xdb / 10.0)
        total_linear += linear
        leak_db = 10.0 * math.log10(linear) if linear > 0.0 else -math.inf
        worst = max(worst, leak_db)
    total_db = 10.0 * math.log10(total_linear) if total_linear > 0.0 else -math.inf
    return (worst, total_db)


def _canonical_key(
    classical: Sequence[ChannelPlacement], quantum: Sequence[ChannelPlacement]
) -> tuple:
    return (
        tuple((p.input, p.output, p.wavelength_nm) for p in sorted(classical, key=lambda p: (p.input, p.output, p.wavelength_nm))),
        tuple((p.input, p.output, p.wavelength_nm) for p in sorted(quantum, key=lambda p: (p.input, p.output, p.wavelength_nm))),
    )


def _assignment_key(model, classical, quantum) -> tuple:
    worst, total = _leakage_objective(model, classical, quantum)
    return (worst, total, _canonical_key(classical, quantum))


def _check_feasible(model: SwitchModel, k_classical: int, k_quantum: int) -> None:
    for name, k in (("k_classical", k_classical), ("k_quantum", k_quantum)):
        if not (isinstance(k, int) and k >= 0):
            raise ParameterError(f"{name} must be an integer >= 0, got {k!r}")
    if k_classical + k_quantum > min(model.n_in, model.n_out):
        raise ParameterError(
            f"{k_classical}+{k_quantum} channels do not fit a "
            f"{model.n_in}x{model.n_out} switch"
        )


def assignment_search_space(
    model: SwitchModel, k_classical: int, k_quantum: int, bands=None
) -> int:
    """Number of distinct assignments the exhaustive searches enumerate."""
    _check_feasible(model, k_classical, k_quantum)
    lam_c = len(_wavelength_candidates(model, bands, "classical"))
    states = (
        math.comb(model.n_in, k_classical)
        * math.perm(model.n_out, k_classical)
        * lam_c**k_classical
        * math.comb(model.n_in - k_classical, k_quantum)
        * math.perm(model.n_out - k_classical, k_quantum)
    )
    return states


def brute_force_assignment(
    model: SwitchModel,
    k_classical: int,
    k_quantum: int,
    bands=None,
    *,
    max_states: int = DEFAULT_STATE_LIMIT,
) -> Assignment:
    """Exhaustive oracle: flat enumeration of every assignment, no pruning.

    Refuses search spaces larger than ``max_states``; this is the reference
    for small instances, not a production path.
    """
    states = assignment_search_space(model, k_classical, k_quantum, bands)
    if states > max_states:
        raise ResourceError(
            f"search space of {states} states exceeds the oracle cap of {max_states}"
        )
    lam_c = _wavelength_candidates(model, bands, "classical")
    lam_q = _wavelength_candidates(model, bands, "quantum")[0]
    inputs = list(model.input_ports)
    outputs = list(model.output_ports)

    best_key = None
    best: tuple[tuple[ChannelPlacement, ...], tuple[ChannelPlacement, ...]] | None = None
    for c_ins in itertools.combinations(inputs, k_classical):
        for c_outs in itertools.permutations(outputs, k_classical):
            for lams in itertools.product(lam_c, repeat=k_classical):
                classical = tuple(
                    ChannelPlacement(i, o, l) for i, o, l in zip(c_ins, c_outs, lams)
                )
                rem_in = [p for p in inputs if p not in c_ins]
                rem_out = [p for p in outputs if p not in c_outs]
                for q_ins in itertools.combinations(rem_in, k_quantum):
                    for q_outs in itertools.permutations(rem_out, k_quantum):
                        quantum = tuple(
                            ChannelPlacement(i, o, lam_q) for i, o in zip(q_ins, q_outs)
                        )
                        key = _assignment_key(model, classical, quantum)
                        if best_key is None or key < best_key:
                            best_key = key
                            best = (classical, quantum)
    assert best is not None and best_key is not None
    return Assignment(
        classical=best[0], quantum=best[1], objective_db=best_key[0], method="brute-force"
    )


def _exhaustive_dfs(
    model: SwitchModel,
    k_classical: int,
    k_quantum: int,
    lam_c: tuple[float, ...],
    lam_q: float,
) -> Assignment:
    """Depth-first exhaustive search with objective-bound pruning.

    Classical channels are placed first (ascending inputs, deduplicating the
    within-class symmetry), then quantum channels; once all classical channels
    are fixed, each quantum placement's leakage is final, so a running maximum
    strictly above the incumbent objective can be pruned. Ties are never
    pruned, preserving the exact tie-breaking order.
    """
    inputs = list(model.input_ports)
    outputs = list(model.output_ports)
    best: dict = {"key": None, "value": None}

    def place_quantum(classical, quantum, used_in, used_out, running_max):
        if best["key"] is not None and running_max > best["key"][0]:
            return
        if len(quantum) == k_quantum:
            key = _assignment_key(model, classical, quantum)
            if best["key"] is None or key < best["key"]:
                best["key"] = key
                best["value"] = (tuple(classical), tuple(quantum))
            return
        min_in = quantum[-1].input if quantum else 0
        for q_in in inputs:
            if q_in in used_in or q_in <= min_in:
                continue
            for q_out in outputs:
                if q_out in used_out:
                    continue
                placement = ChannelPlacement(q_in, q_out, lam_q)
                linear = 0.0
                for c in classical:
                    xdb = switch_xtalk_db(model, (c.input, c.output), (q_in, q_out), c.wavelength_nm)
                    linear += 10.0 ** (xdb / 10.0)
                leak_db = 10.0 * math.log10(linear) if linear > 0.0 else -math.inf
                place_quantum(
                    classical,
                    quantum + [placement],
                    used_in | {q_in},
                    used_out | {q_out},
                    max(running_max, leak_db),
                )

    def place_classical(classical, used_in, used_out):
        if len(classical) == k_classical:
            place_quantum(classical, [], used_in, used_out, -math.inf)
            return
        min_in = classical[-1].input if classical else 0
        for c_in in inputs:
            if c_in in used_in or c_in <= min_in:
                continue
            for c_out in outputs:
                if c_out in used_out:
                    continue
                for lam in lam_c:
                    place_classical(
                        classical + [ChannelPlacement(c_in, c_out, lam)],
                        used_in | {c_in},
                        used_out | {c_out},
                    )

    place_classical([], set(), set())
    assert best["value"] is not None and best["key"] is not None
    classical, quantum = best["value"]
    return Assignment(
        classical=classical, quantum=quantum, objective_db=best["key"][0], method="exhaustive"
    )


def _local_search(
    model: SwitchModel,
    k_classical: int,
    k_quantum: int,
    lam_c: tuple[float, ...],
    lam_q: float,
) -> Assignment:
    """Greedy spread start plus best-improvement 2-swap descent."""
    inputs = list(model.input_ports)
    outputs = list(model.output_ports)
    # Start maximally separated: classical on the low ports, quantum on the high.
    best_lam = min(lam_c, key=lambda l: model.slope_db_per_nm * l)
    classical = [
        ChannelPlacement(inputs[i], outputs[i], best_lam) for i in range(k_classical)
    ]
    quantum = [
        ChannelPlacement(inputs[-1 - i], outputs[-1 - i], lam_q) for i in range(k_quantum)
    ]

    def key_of(c, q):
        return _assignment_key(model, c, q)

    current = key_of(classical, quantum)
    improved = True
    rounds = 0
    while improved and rounds < 1000:
        improved = False
        rounds += 1
        channels = [("c", i) for i in range(len(classical))] + [
            ("q", i) for i in range(len(quantum))
        ]
        used_in = {p.input for p in classical} | {p.input for p in quantum}
        used_out = {p.output for p in classical} | {p.output for p in quantum}
        best_move = None
        best_key = current

        def consider(new_classical, new_quantum):
            nonlocal best_move, best_key
            key = key_of(new_classical, new_quantum)
            if key < best_key:
                best_key = key
                best_move = (list(new_classical), list(new_quantum))

        for kind, i in channels:
            group = classical if kind == "c" else quantum
            placement = group[i]
            for new_in in inputs:  # move input
                if new_in != placement.input and new_in not in used_in:
                    trial = group.copy()
                    trial[i] = ChannelPlacement(new_in, placement.output, placement.wavelength_nm)
                    consider(trial if kind == "c" else classical, trial if kind == "q" else quantum)
            for new_out in outputs:  # move output
                if new_out != placement.output and new_out not in used_out:
                    trial = group.copy()
                    trial[i] = ChannelPlacement(placement.input, new_out, placement.wavelength_nm)
                    consider(trial if kind == "c" else classical, trial if kind == "q" else quantum)
            if kind == "c" and len(lam_c) > 1:  # flip carrier wavelength
                for lam in lam_c:
                    if lam != placement.wavelength_nm:
                        trial = classical.copy()
                        trial[i] = ChannelPlacement(placement.input, placement.output, lam)
                        consider(trial, quantum)
        for (ka, ia), (kb, ib) in itertools.combinations(channels, 2):  # 2-swaps
            ga = classical if ka == "c" else quantum
            gb = classical if kb == "c" else quantum
            pa, pb = ga[ia], gb[ib]
            for swap_inputs in (True, False):
                na = ChannelPlacement(
                    pb.input if swap_inputs else pa.input,
                    pa.output if swap_inputs else pb.output,
                    pa.wavelength_nm,
                )
                nb = ChannelPlacement(
                    pa.input if swap_inputs else pb.input,
                    pb.output if swap_inputs else pa.output,
                    pb.wavelength_nm,
                )
                new_c, new_q = classical.copy(), quantum.copy()
                (new_c if ka == "c" else new_q)[ia] = na
                (new_c if kb == "c" else new_q)[ib] = nb
                consider(new_c, new_q)
        if best_move is not None:
            classical, quantum = best_move
            current = best_key
            improved = True

    classical.sort(key=lambda p: (p.input, p.output, p.wavelength_nm))
    quantum.sort(key=lambda p: (p.input, p.output, p.wavelength_nm))
    return Assignment(
        classical=tuple(classical),
        quantum=tuple(quantum),
        objective_db=current[0],
        method="local-search",
    )


def optimize_assignment(
    model: SwitchModel,
    k_classical: int,
    k_quantum: int,
    bands=None,
    *,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Assignment:
    """Minimize the worst-case aggregated leakage into any quantum channel.

    Exhaustive (with pruning) when the search space fits within
    ``state_limit`` states; otherwise a deterministic greedy start followed by
    2-swap local search. Ties break by total leakage, then lexicographic port
    order.
    """
    states = assignment_search_space(model, k_classical, k_quantum, bands)
    lam_c = _wavelength_candidates(model, bands, "classical")
    lam_q = _wavelength_candidates(model, bands, "quantum")[0]
    if states <= state_limit:
        return _exhaustive_dfs(model, k_classical, k_quantum, lam_c, lam_q)
    return _local_search(model, k_classical, k_quantum, lam_c, lam_q)


def assignment_to_config(assignment: Assignment) -> SwitchConfig:
    """The cross-connect configuration realizing an assignment."""
    pairs = [(p.input, p.output) for p in assignment.classical + assignment.quantum]
    return SwitchConfig(connections=tuple(pairs))
