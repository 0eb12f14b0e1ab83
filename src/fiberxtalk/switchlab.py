"""Crosstalk model of an N x N beam-steering switch and a port/wavelength planner.

Ports are labeled the way the physical device is: inputs 1..n_in, outputs
n_in+1..n_in+n_out (so the default 8x8 switch has inputs 1-8 and outputs
9-16). The parametric model decays with port-index separation on the input
and output planes independently and rises linearly with wavelength; a
measured table can replace it entirely. The parametric model depends only on
the two port separations and the wavelength, so the planner evaluates it once
per (input separation, output separation, carrier) and gathers its leak table
from those values; a measured table is interpolated once per path pair and
carrier. The planner is one exact pruned search over that table; a plan or
sweep whose work exceeds ``PLAN_WORK_LIMIT`` raises ``ResourceError`` (exit 5).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, ResourceError, read_csv_columns, reject_rows
from .units import C_BAND_NM, O_BAND_NM, require_number, validate_wavelength_nm

DEFAULT_SLOPE_DB_PER_NM = 10.0 / 300.0
DEFAULT_STATE_LIMIT = 1_000_000
PLAN_WORK_LIMIT = 4_000_000

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


def _measured_points(model: SwitchModel, key: tuple[int, int, int, int]) -> tuple[list[float], list[float]]:
    """The measured (wavelengths, dB values) of one path pair, sorted by wavelength."""
    assert model.table is not None
    entries = model.table.get(key)
    if not entries:
        raise DataError(
            f"no measured crosstalk for paths {key[0]}->{key[1]} / {key[2]}->{key[3]}"
        )
    pts = sorted((float(l), float(v)) for l, v in entries)
    return [p[0] for p in pts], [p[1] for p in pts]


def _interpolate(lams: list[float], vals: list[float], nm: float) -> float:
    """Linear interpolation in dB, clamped to the end points.

    Strictly between a ``-inf`` point and any other point the value is
    ``-inf``, the limit of the dB-linear formula, which itself gives NaN there.
    """
    if nm <= lams[0]:
        return vals[0]
    if nm >= lams[-1]:
        return vals[-1]
    for j in range(1, len(lams)):
        if nm <= lams[j]:
            left, right = lams[j - 1], lams[j]
            if -math.inf in (vals[j - 1], vals[j]):
                return vals[j] if nm == right else -math.inf
            frac = (nm - left) / (right - left)
            return vals[j - 1] + frac * (vals[j] - vals[j - 1])
    return vals[-1]


def _parametric_db(model: SwitchModel, gap_in: int, gap_out: int, nm: float) -> float:
    """Parametric crosstalk between paths ``gap_in`` inputs and ``gap_out`` outputs apart."""
    value = (
        model.c0_db
        - model.beta_in_db_per_port * (gap_in - 1)
        - model.beta_out_db_per_port * (gap_out - 1)
        + model.slope_db_per_nm * (nm - model.reference_nm)
    )
    if value > 0.0:
        raise ParameterError(
            f"the model gives {value:.4g} dB of crosstalk at {nm} nm; a passive switch leaks at most 0 dB"
        )
    return max(value, model.floor_db)


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
        return _interpolate(*_measured_points(model, (a_in, a_out, v_in, v_out)), nm)
    return _parametric_db(model, abs(a_in - v_in), abs(a_out - v_out), nm)


def load_measured_table(path: "str | Path") -> dict[tuple[int, int, int, int], list[tuple[float, float]]]:
    """Read a measured crosstalk table from CSV.

    Columns: ``a_in,a_out,v_in,v_out,lambda_nm,xtalk_db``.
    """
    *ports, nm, db = read_csv_columns(
        path, ["a_in", "a_out", "v_in", "v_out", "lambda_nm", "xtalk_db"], ["i8"] * 4 + ["f8"] * 2
    )
    reject_rows(path, ~(db <= 0.0), "crosstalk must be <= 0 dB", db)
    table: dict[tuple[int, int, int, int], list[tuple[float, float]]] = {}
    for key, entry in zip(zip(*(column.tolist() for column in ports)), zip(nm.tolist(), db.tolist())):
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
    if (model.n_in - 1) * (model.n_out - 1) > PLAN_WORK_LIMIT:
        raise ResourceError(f"a {model.n_in}x{model.n_out} sweep has over {PLAN_WORK_LIMIT} configurations")
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
    """Number of distinct assignments; ``brute_force_assignment`` enumerates them all."""
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


class _Optimal(Exception):
    """The incumbent reached the lower bound of every assignment."""


def _db(linear: float) -> float:
    return 10.0 * math.log10(linear) if linear > 0.0 else -math.inf


def _leak_rows(model: SwitchModel, lam_c: tuple[float, ...]) -> list[list]:
    """``rows[a]``: ``(b, wavelength, row)`` in port order for each classical path ``a -> b``.

    Ports are 0-based. ``row[v * n_out + w]`` is the linear leakage into victim
    ``v -> w``, infinite where the victim shares a port: ``10 ** (x / 10)`` of
    ``switch_xtalk_db``'s ``x``, bit for bit, without calling it. The
    parametric model depends only on ``|a - v|``, ``|b - w|`` and the carrier,
    so it is evaluated once per (separation, separation, carrier), at most
    ``n_in * n_out * len(lam_c)`` times, and the rows are gathered from that
    small table; a measured table is interpolated once per path pair and
    carrier. The first fault in port order raises the error the per-pair call
    would. Prune 4: a carrier whose row is nowhere below a lower carrier's row
    on the same path is dropped, as the lower one comes first in port order.
    """
    n_in, n_out, n_lam = model.n_in, model.n_out, len(lam_c)
    # Only the reference wavelength can be out of range, and it is the one carrier.
    lams = [validate_wavelength_nm(lam) for lam in lam_c]
    # Object arrays, so that equal entries share one float.
    if model.table is None:
        # by_gap[l, |a - v|, |b - w|], where a gap of 0 shares a port. The first
        # aggressor's victims meet every gap, in this order.
        by_gap = np.full((n_lam, n_in, n_out), math.inf, dtype=object)
        for (l, nm), g_in, g_out in itertools.product(enumerate(lams), range(1, n_in), range(1, n_out)):
            by_gap[l, g_in, g_out] = 10.0 ** (_parametric_db(model, g_in, g_out, nm) / 10.0)
        gap_in = np.abs(np.subtract.outer(np.arange(n_in), np.arange(n_in)))
        gap_out = np.abs(np.subtract.outer(np.arange(n_out), np.arange(n_out)))
        leak = by_gap[
            np.arange(n_lam)[None, None, :, None, None],
            gap_in[:, None, None, :, None],
            gap_out[None, :, None, None, :],
        ]
    else:
        leak = np.full((n_in, n_out, n_lam, n_in, n_out), math.inf, dtype=object)
        for a, b, v, w in itertools.product(range(n_in), range(n_out), range(n_in), range(n_out)):
            if v != a and w != b:
                points = _measured_points(model, (a + 1, n_in + 1 + b, v + 1, n_in + 1 + w))
                for l, nm in enumerate(lams):
                    leak[a, b, l, v, w] = 10.0 ** (_interpolate(*points, nm) / 10.0)
    rows: list[list] = [[] for _ in range(n_in)]
    paths = itertools.product(range(n_in), range(n_out), range(n_lam))
    for (a, b, l), row in zip(paths, leak.reshape(-1, n_in * n_out).tolist()):
        if not any(all(x <= y for x, y in zip(low, row)) for c, _, low in rows[a] if c == b):
            rows[a].append((b, lam_c[l], row))
    return rows


def _search(model: SwitchModel, k_classical: int, k_quantum: int, lam_c: tuple[float, ...]):
    """(worst dB, classical, quantum) of the best assignment, with 0-based ports."""
    n_in, n_out = model.n_in, model.n_out
    entries = n_in * n_out * len(lam_c) * (n_in - 1) * (n_out - 1)
    if entries > PLAN_WORK_LIMIT:
        raise ResourceError(f"a leak table of {entries} entries exceeds the plan budget of {PLAN_WORK_LIMIT}")
    rows = _leak_rows(model, lam_c)
    least = min(min(row) for per_input in rows for _, _, row in per_input)
    leak_floor = total_floor = 0.0
    for _ in range(k_classical):
        leak_floor += least
    for _ in range(k_quantum):
        total_floor += leak_floor
    bound = (_db(leak_floor), _db(total_floor))
    best: list = [math.inf, math.inf, None]  # worst dB, total dB, leaf
    nodes = itertools.count(1)

    def visit() -> None:
        if next(nodes) > PLAN_WORK_LIMIT:
            raise ResourceError(f"the plan search exceeded its budget of {PLAN_WORK_LIMIT} nodes")

    def place_quantum(leak, start, used_out, worst, total, classical, quantum):
        for v in range(start, n_in):
            for w in range(n_out):
                linear = leak[v * n_out + w]
                if linear == math.inf or w in used_out:
                    continue
                db = _db(linear)
                if db > best[0]:  # prune 1
                    continue
                visit()
                placed = quantum + ((v, w),)
                if len(placed) < k_quantum:
                    place_quantum(leak, v + 1, used_out | {w}, max(worst, db), total + linear, classical, placed)
                    continue
                key = (max(worst, db), _db(total + linear))
                if key < (best[0], best[1]):
                    best[:] = [*key, (classical, placed)]
                    if key == bound:  # prune 3
                        raise _Optimal

    def place_classical(start, leak, used_out, classical):
        for a in range(start, n_in):
            for b, lam, row in rows[a]:
                if b in used_out:
                    continue
                visit()
                summed = [x + y for x, y in zip(leak, row)]
                least_per_input = sorted(min(summed[v:v + n_out]) for v in range(0, len(summed), n_out))
                if _db(least_per_input[k_quantum - 1]) > best[0]:  # prune 2
                    continue
                placed = classical + ((a, b, lam),)
                if len(placed) < k_classical:
                    place_classical(a + 1, summed, used_out | {b}, placed)
                else:
                    place_quantum(summed, 0, frozenset(), -math.inf, 0.0, placed, ())

    try:
        place_classical(0, [0.0] * (n_in * n_out), frozenset(), ())
    except _Optimal:
        pass
    return best[0], *best[2]


def optimize_assignment(
    model: SwitchModel,
    k_classical: int,
    k_quantum: int,
    bands=None,
) -> Assignment:
    """Minimize the worst-case aggregated leakage into any quantum channel.

    One exact depth-first search over a leak table built once, in closed form
    from one value per port separation and carrier (see ``_leak_rows``); it
    never calls ``switch_xtalk_db``, which the oracle uses. Channels are
    placed classical first, each by ascending input, then output, then carrier,
    so leaves arrive in the oracle's tie-break order and replace the incumbent
    only when (worst, total) is strictly smaller. Sums run in the order of
    ``_leakage_objective``, so the objective matches ``brute_force_assignment``
    bit for bit. Adding a non-negative float never lowers a rounded sum and
    ``log10`` is monotone, so a partial sum bounds its completions and these
    prunes are exact: (1) a quantum path leaking more than the incumbent's
    worst; (2) a classical prefix under which the k_quantum-th smallest, over
    free inputs, least leakage into a free output exceeds it; (3) all the rest
    once the incumbent equals the bound where every entry is the table's least;
    (4) dominated carriers (see ``_leak_rows``). Beyond ``PLAN_WORK_LIMIT``
    table entries or search nodes it raises ``ResourceError`` (exit 5).
    """
    _check_feasible(model, k_classical, k_quantum)
    lam_c = _wavelength_candidates(model, bands, "classical")
    lam_q = _wavelength_candidates(model, bands, "quantum")[0]
    if k_classical and k_quantum:
        worst, classical, quantum = _search(model, k_classical, k_quantum, lam_c)
    else:  # nothing leaks, so every assignment ties and the first in port order wins
        worst = -math.inf
        classical = [(a, a, lam_c[0]) for a in range(k_classical)]
        quantum = [(v, v) for v in range(k_classical, k_classical + k_quantum)]
    ins, outs = model.input_ports, model.output_ports
    return Assignment(
        classical=tuple(ChannelPlacement(ins[a], outs[b], lam) for a, b, lam in classical),
        quantum=tuple(ChannelPlacement(ins[v], outs[w], lam_q) for v, w in quantum),
        objective_db=worst,
        method="exhaustive",
    )
