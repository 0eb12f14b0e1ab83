"""Crosstalk model of an N x N beam-steering switch and a port/wavelength planner.

Ports are labeled the way the physical device is: inputs 1..n_in, outputs
n_in+1..n_in+n_out (so the default 8x8 switch has inputs 1-8 and outputs
9-16). A path is an ``(in, out)`` pair of ports; the command line parses
its ``in:out`` text in :func:`fiberxtalk.cli.parse_path`, and
:func:`switch_xtalk_db`, which every sweep point goes through, is the one
check of its ports: each in range, and no port shared between the aggressor
and the victim. The parametric model decays with port-index separation on
the input and output planes independently and rises linearly with
wavelength; a measured table can replace it entirely. A measured table is a
``MeasuredTable``: sorted numpy columns of path pairs, wavelengths and dB
values, which only the per-pair model reads pair by pair. The parametric
model depends only on the two port separations and the wavelength, so the
planner evaluates it once per (input separation, output separation, carrier)
and gathers its leak table from those values, one float64 matrix of rows per
input; a measured table is interpolated for every path pair at once, one
numpy pass per carrier. The planner is one exact
pruned search over that table that scores all of an input's classical
children in one numpy pass and visits them in port order; a plan or sweep
whose work exceeds ``PLAN_WORK_LIMIT`` raises ``ResourceError`` (exit 5).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, ResourceError, read_csv_columns, reject_rows
from .units import (
    C_BAND_NM, O_BAND_NM, is_int, require_int, require_number, validate_grid_nm, validate_wavelength_nm,
)

DEFAULT_SLOPE_DB_PER_NM = 10.0 / 300.0
DEFAULT_STATE_LIMIT = 1_000_000
PLAN_WORK_LIMIT = 4_000_000

BAND_PRESETS: dict[str, tuple[float, float]] = {"O": O_BAND_NM, "C": C_BAND_NM}

PathPair = tuple[int, int]
PairKey = tuple[int, int, int, int]


def _no_points(key: Sequence[int]) -> DataError:
    return DataError(f"no measured crosstalk for paths {key[0]}->{key[1]} / {key[2]}->{key[3]}")


class MeasuredTable:
    """A measured crosstalk table, kept as numpy columns sorted once.

    ``ports`` is a ``(4, n)`` int64 array, the ``a_in, a_out, v_in, v_out``
    columns; ``lambda_nm`` and ``xtalk_db`` are float64. ``source`` is the path
    or label of the rows as given: a crosstalk above 0 dB or NaN, a wavelength
    that is not finite and positive, or a path pair measured twice at one
    wavelength (the later row) raises :class:`DataError` naming ``source`` and
    the data row, as :func:`~fiberxtalk.errors.reject_rows` counts them. The
    rows are then sorted by the four ports, then by wavelength, so each path
    pair's wavelengths strictly increase. ``len`` is the number of path pairs.
    """

    def __init__(self, ports: np.ndarray, lambda_nm: np.ndarray, xtalk_db: np.ndarray, source: "str | Path"):
        ports = np.asarray(ports, dtype=np.int64)
        nm, db = np.asarray(lambda_nm, dtype=np.float64), np.asarray(xtalk_db, dtype=np.float64)
        reject = functools.partial(reject_rows, source)
        reject(~(db <= 0.0), "crosstalk must be <= 0 dB", db)
        reject(~((nm > 0.0) & (nm < math.inf)), "wavelength must be finite and > 0 nm", nm)
        order = np.lexsort((nm, *ports[::-1]))  # the last key sorts first
        self.ports, self.lambda_nm, self.xtalk_db = ports[:, order], nm[order], db[order]
        new_pair = np.ones(len(nm), dtype=bool)
        new_pair[1:] = (self.ports[:, 1:] != self.ports[:, :-1]).any(axis=0)
        # The sort is stable, so the later of two equal rows comes second.
        twice = np.zeros(len(nm), dtype=bool)
        twice[order[1:][~new_pair[1:] & (self.lambda_nm[1:] == self.lambda_nm[:-1])]] = True
        reject(twice, "path pair measured twice at one wavelength", nm)
        for column in (self.ports, self.lambda_nm, self.xtalk_db):
            column.flags.writeable = False
        self._starts = np.flatnonzero(new_pair)

    @functools.cached_property
    def by_pair(self) -> dict[PairKey, tuple[list[float], list[float]]]:
        """Path pair -> (wavelengths, dB values), as Python floats; built on first use."""
        bounds = [*self._starts.tolist(), len(self.lambda_nm)]
        nm, db = self.lambda_nm.tolist(), self.xtalk_db.tolist()
        keys = zip(*self.ports[:, self._starts].tolist())
        return {key: (nm[lo:hi], db[lo:hi]) for key, lo, hi in zip(keys, bounds, bounds[1:])}

    def __len__(self) -> int:
        return len(self._starts)


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
        for name in ("n_in", "n_out"):
            object.__setattr__(self, name, require_int(getattr(self, name), name, 1))
        if not require_number(self.floor_db, "floor_db") <= require_number(self.c0_db, "c0_db") <= 0.0:
            raise ParameterError(
                f"c0 must satisfy floor <= c0 <= 0 dB, got c0={self.c0_db}, floor={self.floor_db}"
            )
        require_number(self.beta_in_db_per_port, "beta_in_db_per_port", minimum=0.0)
        require_number(self.beta_out_db_per_port, "beta_out_db_per_port", minimum=0.0)
        require_number(self.reference_nm, "reference_nm")
        require_number(self.slope_db_per_nm, "slope_db_per_nm")
        if self.table is not None and not isinstance(self.table, MeasuredTable):
            raise ParameterError(f"table must be a MeasuredTable or None, got {type(self.table).__name__}")

    @property
    def input_ports(self) -> range:
        return range(1, self.n_in + 1)

    @property
    def output_ports(self) -> range:
        return range(self.n_in + 1, self.n_in + self.n_out + 1)


def _check_ports(model: SwitchModel, i, o, inputs: str, outputs: str) -> None:
    """Raise :class:`ParameterError` unless ``i`` is an input and ``o`` an output port."""
    n_in, last = model.n_in, model.n_in + model.n_out
    if not is_int(i) or not 1 <= i <= n_in:
        raise ParameterError(f"{inputs} {i} outside 1..{n_in}")
    if not is_int(o) or not n_in < o <= last:
        raise ParameterError(f"{outputs} {o} outside {n_in + 1}..{last}")


def _validate_path(model: SwitchModel, path: PathPair, name: str) -> PathPair:
    i, o = path
    _check_ports(model, i, o, f"{name} input port", f"{name} output port")
    return (int(i), int(o))


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
        points = model.table.by_pair.get((a_in, a_out, v_in, v_out))
        if points is None:
            raise _no_points((a_in, a_out, v_in, v_out))
        return _interpolate(*points, nm)
    return _parametric_db(model, abs(a_in - v_in), abs(a_out - v_out), nm)


def load_measured_table(path: "str | Path") -> MeasuredTable:
    """Read a measured crosstalk table from CSV; a faulty row is named as "data row N".

    Columns: ``a_in,a_out,v_in,v_out,lambda_nm,xtalk_db``.
    """
    *ports, nm, db = read_csv_columns(
        path, ["a_in", "a_out", "v_in", "v_out", "lambda_nm", "xtalk_db"], ["i8"] * 4 + ["f8"] * 2
    )
    return MeasuredTable(np.stack(ports), nm, db, path)


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
    # checked here too: a 1xN or Nx1 switch has no configuration to check it
    nm = validate_wavelength_nm(model.reference_nm if wavelength_nm is None else wavelength_nm)
    _check_ports(model, classical_in, victim_out, "classical input", "victim output")
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
    return [(nm, switch_xtalk_db(model, aggressor, victim, nm)) for nm in validate_grid_nm(grid_nm).tolist()]


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


def _check_feasible(model: SwitchModel, k_classical: int, k_quantum: int) -> None:
    channels = require_int(k_classical, "k_classical", 0) + require_int(k_quantum, "k_quantum", 0)
    if channels > min(model.n_in, model.n_out):
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
) -> Assignment:
    """Exhaustive oracle: flat enumeration of every assignment, no pruning.

    Refuses search spaces larger than ``DEFAULT_STATE_LIMIT``; this is the
    reference for small instances, not a production path. When both counts
    are positive, ``switch_xtalk_db`` is called once per classical path,
    carrier and quantum path that share no port, in port order, and
    ``leak[a][b][l][v][w]`` keeps ``10 ** (x / 10)`` of each ``x``, with
    0-based ports and carrier index. A quantum channel's leakage is summed in
    linear power over the classical channels, in sorted order, so that
    independently written searches give bit-identical floats; the objective is
    the (worst, total) leakage into the quantum channels, in dB. The answer is
    the least (objective, sorted classical, sorted quantum); channels are
    enumerated in sorted order, and ports and carriers sort as their indices.
    """
    states = assignment_search_space(model, k_classical, k_quantum, bands)
    if states > DEFAULT_STATE_LIMIT:
        raise ResourceError(f"search space of {states} states exceeds the oracle cap of {DEFAULT_STATE_LIMIT}")
    lam_c = _wavelength_candidates(model, bands, "classical")
    lam_q = _wavelength_candidates(model, bands, "quantum")[0]
    ins, outs = model.input_ports, model.output_ports
    leak = None
    if k_classical and k_quantum:  # None where the paths share a port, which no state reads
        leak = [[[[[10.0 ** (switch_xtalk_db(model, (i, o), (v, w), nm) / 10.0) if v != i and w != o else None
                    for w in outs] for v in ins] for nm in lam_c] for o in outs] for i in ins]

    best_objective, best = (math.inf, math.inf), None
    for c_ins in itertools.combinations(range(model.n_in), k_classical):
        free_ins = [v for v in range(model.n_in) if v not in c_ins]
        for c_outs in itertools.permutations(range(model.n_out), k_classical):
            free_outs = [w for w in range(model.n_out) if w not in c_outs]
            for carriers in itertools.product(range(len(lam_c)), repeat=k_classical):
                classical = tuple(zip(c_ins, c_outs, carriers))
                rows = [leak[a][b][l] for a, b, l in classical] if leak else []
                for q_ins in itertools.combinations(free_ins, k_quantum):
                    for q_outs in itertools.permutations(free_outs, k_quantum):
                        worst = total = 0.0
                        for v, w in zip(q_ins, q_outs):
                            linear = 0.0
                            for row in rows:
                                linear += row[v][w]
                            total += linear
                            if linear > worst:
                                worst = linear
                        objective = (_db(worst), _db(total))  # log10 is monotone: the worst in dB
                        if objective <= best_objective:
                            key = (classical, tuple(zip(q_ins, q_outs)))
                            if objective < best_objective or key < best:
                                best_objective, best = objective, key
    return Assignment(
        classical=tuple(ChannelPlacement(ins[a], outs[b], lam_c[l]) for a, b, l in best[0]),
        quantum=tuple(ChannelPlacement(ins[v], outs[w], lam_q) for v, w in best[1]),
        objective_db=best_objective[0],
        method="brute-force",
    )


class _Optimal(Exception):
    """The incumbent reached the lower bound of every assignment."""


def _db(linear: float) -> float:
    return 10.0 * math.log10(linear) if linear > 0.0 else -math.inf


def _measured_leak(model: SwitchModel, lams: list[float]) -> np.ndarray:
    """``leak[a, b, l, v * n_out + w]`` of a measured table, in the terms of ``_leak_rows``.

    Rows whose ports lie outside the switch are dropped before any arithmetic,
    so no port value can alias onto a real path pair. Each remaining row's
    path pair becomes one dense index in port order, which keeps the table's
    sort. Every needed pair is then interpolated at once per carrier with the
    IEEE operations, end clamps and ``-inf`` rule of ``_interpolate``.
    """
    table = model.table
    n_in, n_out, paths = model.n_in, model.n_out, model.n_in * model.n_out
    lo, size = np.array([1, n_in + 1, 1, n_in + 1]), np.array([n_in, n_out, n_in, n_out])
    inside = ((table.ports >= lo[:, None]) & (table.ports < (lo + size)[:, None])).all(axis=0)
    a, b, v, w = (port[inside] - low for port, low in zip(table.ports, lo.tolist()))
    nm_at, db_at = table.lambda_nm[inside], table.xtalk_db[inside]
    count = np.bincount(((a * n_out + b) * n_in + v) * n_out + w, minlength=paths * paths)
    # The pairs of paths that share no port, in port order.
    ins, outs = np.arange(n_in), np.arange(n_out)
    needed = (ins[:, None, None, None] != ins[:, None]) & (outs[:, None, None] != outs)
    missing = needed.ravel() & (count == 0)
    if missing.any():
        a, b, v, w = (int(i) for i in np.unravel_index(missing.argmax(), needed.shape))
        raise _no_points((a + 1, n_in + 1 + b, v + 1, n_in + 1 + w))
    pairs = np.flatnonzero(needed)
    last = np.cumsum(count)[pairs] - 1
    first = last - count[pairs] + 1
    leak = np.full((len(lams), paths * paths), math.inf)
    for l, nm in enumerate(lams):
        below = np.concatenate(([0], np.cumsum(nm_at < nm)))
        right = np.minimum(first + below[last + 1] - below[first], last)  # first point at or above nm
        left = np.maximum(right - 1, first)
        x0, x1, y0, y1 = nm_at[left], nm_at[right], db_at[left], db_at[right]
        with np.errstate(invalid="ignore", divide="ignore"):  # in the lanes np.where discards
            between = np.where((y0 == -math.inf) | (y1 == -math.inf), np.where(nm == x1, y1, -math.inf),
                               y0 + (nm - x0) / (x1 - x0) * (y1 - y0))
        db = np.where(nm <= nm_at[first], db_at[first], np.where(nm >= nm_at[last], db_at[last], between))
        # Python's power, not np.power, which can differ in the last bit.
        leak[l, pairs] = [10.0 ** (x / 10.0) for x in db.tolist()]
    return leak.reshape(len(lams), n_in, n_out, paths).transpose(1, 2, 0, 3)


def _leak_rows(model: SwitchModel, lam_c: tuple[float, ...]) -> list[tuple[list[tuple[int, float]], np.ndarray]]:
    """``rows[a]``: the kept classical paths ``a -> b``, ``(b, wavelength)`` in port order, and their rows.

    Ports are 0-based. The rows are one float64 matrix per input, a row per
    kept path; ``row[v * n_out + w]`` is the linear leakage into victim
    ``v -> w``, infinite where the victim shares a port: ``10 ** (x / 10)`` of
    ``switch_xtalk_db``'s ``x``, bit for bit, without calling it. The
    parametric model depends only on ``|a - v|``, ``|b - w|`` and the carrier,
    so it is evaluated once per (separation, separation, carrier), at most
    ``n_in * n_out * len(lam_c)`` times, and each input's rows are gathered
    from that small table. A measured table is interpolated for all path pairs
    at once, one vector pass over its sorted columns per carrier (see
    ``_measured_leak``). The first fault in port order raises the error the
    per-pair call would. Prune 4: a carrier whose row is nowhere below a lower
    carrier's row on the same path is dropped, as the lower one comes first in
    port order.
    """
    n_in, n_out, n_lam = model.n_in, model.n_out, len(lam_c)
    # Only the reference wavelength can be out of range, and it is the one carrier.
    lams = [validate_wavelength_nm(lam) for lam in lam_c]
    if model.table is None:
        # by_gap[l, |a - v|, |b - w|], where a gap of 0 shares a port. The first
        # aggressor's victims meet every gap, in this order.
        by_gap = np.full((n_lam, n_in, n_out), math.inf)
        for (l, nm), g_in, g_out in itertools.product(enumerate(lams), range(1, n_in), range(1, n_out)):
            by_gap[l, g_in, g_out] = 10.0 ** (_parametric_db(model, g_in, g_out, nm) / 10.0)
        gap_in = np.abs(np.subtract.outer(np.arange(n_in), np.arange(n_in)))
        gap_out = np.abs(np.subtract.outer(np.arange(n_out), np.arange(n_out)))
    else:
        measured = _measured_leak(model, lams)
    rows = []
    for a in range(n_in):
        if model.table is None:  # leak[b, l, v, w]
            leak = by_gap[np.arange(n_lam)[:, None, None], gap_in[a][:, None], gap_out[:, None, None, :]]
            leak = leak.reshape(n_out, n_lam, n_in * n_out)
        else:
            leak = measured[a]
        # Dominance is transitive, so a carrier below any lower one is below a kept one.
        keep = np.ones((n_out, n_lam), dtype=bool)
        for l in range(1, n_lam):
            keep[:, l] = ~(leak[:, :l] <= leak[:, l, None]).all(axis=2).any(axis=1)
        kept = np.flatnonzero(keep).tolist()
        rows.append(([(i // n_lam, lam_c[i % n_lam]) for i in kept], leak.reshape(n_out * n_lam, -1)[kept]))
    return rows


def _search(model: SwitchModel, k_classical: int, k_quantum: int, lam_c: tuple[float, ...]):
    """(worst dB, classical, quantum) of the best assignment, with 0-based ports."""
    n_in, n_out = model.n_in, model.n_out
    entries = n_in * n_out * len(lam_c) * (n_in - 1) * (n_out - 1)
    if entries > PLAN_WORK_LIMIT:
        raise ResourceError(f"a leak table of {entries} entries exceeds the plan budget of {PLAN_WORK_LIMIT}")
    rows = _leak_rows(model, lam_c)
    least = float(min(matrix.min() for _, matrix in rows))
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
            # Every child of input a at once: its sums and the k_quantum-th
            # smallest, over inputs, least leakage into an output.
            paths, matrix = rows[a]
            summed = matrix + leak
            least_per_input = summed.reshape(-1, n_in, n_out).min(axis=2)
            kth = np.partition(least_per_input, k_quantum - 1, axis=1)[:, k_quantum - 1].tolist()
            for (b, lam), row, least_kth in zip(paths, summed, kth):
                if b in used_out:
                    continue
                visit()
                if _db(least_kth) > best[0]:  # prune 2
                    continue
                placed = classical + ((a, b, lam),)
                if len(placed) < k_classical:
                    place_classical(a + 1, row, used_out | {b}, placed)
                else:
                    place_quantum(row.tolist(), 0, frozenset(), -math.inf, 0.0, placed, ())

    try:
        place_classical(0, np.zeros(n_in * n_out), frozenset(), ())
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

    One exact depth-first search over a leak table built once (see
    ``_leak_rows``): in closed form from one value per port separation and
    carrier, or from a measured table's sorted columns in one numpy
    interpolation pass per carrier. It never calls ``switch_xtalk_db``, which
    the oracle uses, nor reads the table pair by pair. Channels are placed
    classical first, each by ascending input, then output, then carrier, so
    leaves arrive in the oracle's tie-break order and replace the incumbent
    only when (worst, total) is strictly smaller. The classical children of one
    input are scored together, as float64 sums over that input's matrix of rows
    (the same IEEE additions) and a partition for prune 2's order statistic;
    they are then visited and pruned one by one, in the same order and against
    the current incumbent, so the nodes visited do not change. Sums run in the
    oracle's order, so the objective matches
    ``brute_force_assignment`` bit for bit. Adding a non-negative float never
    lowers a rounded sum and ``log10`` is monotone, so a partial sum bounds its
    completions and these prunes are exact: (1) a quantum path leaking more
    than the incumbent's worst; (2) a classical prefix under which the
    k_quantum-th smallest, over free inputs, least leakage into a free output
    exceeds it; (3) all the rest once the incumbent equals the bound where
    every entry is the table's least; (4) dominated carriers (see
    ``_leak_rows``). Beyond ``PLAN_WORK_LIMIT`` table entries or search nodes
    it raises ``ResourceError`` (exit 5).
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
