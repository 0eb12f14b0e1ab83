"""Monte Carlo generation of single-photon time-tag streams and spectral scans.

Randomness comes from the Philox counter-based generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11). An OTDR run is cut
into fixed blocks of ``PULSES_PER_CHUNK`` pulses and each block draws from its
own ``[seed, chunk]`` key. A block draws one Poisson total per crosstalk point
and one for the darks, thins the point totals binomially by the detector
efficiency, and only then gives each kept photon and each dark count a pulse
and a time (Poisson splitting; Devroye, *Non-Uniform Random Variate
Generation*, 1986, ch. X), so its cost follows the photons, not the pulses.
An OTDR run's output therefore depends only on the seed and the chunk size,
which makes repeated runs byte-identical. A spectral scan draws all its counts
in grid order, in one Poisson call on the stream keyed ``[seed, 0]``. NumPy's
RNG policy (NEP 19) lets a numpy release change what ``poisson``, ``binomial``
and ``normal`` draw, so both kinds of metadata record ``numpy_version``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, ParameterError, ResourceError
from .plant import (
    CrosstalkPoint,
    Topology,
    crosstalk_points,
    delay_ps_for_distance,
    path_loss_db,
)
from .units import (
    _GAUSSIAN_FWHM_TO_SIGMA,
    photon_energy_joules,
    require_int,
    require_number,
    validate_grid_nm,
    validate_wavelength_nm,
)

TRIGGER_CHANNEL = 0
DETECTOR_CHANNEL = 1

MAX_SEED = 2**64 - 1
DEFAULT_MAX_TAGS = 50_000_000
PULSES_PER_CHUNK = 65_536
MAX_POISSON_MEAN = 1e18  # numpy refuses Poisson means above ~9.2e18
# A photon is never drawn this many timing sigmas from its point's delay (the odds are below 1e-300).
TAG_TIME_SIGMAS = 40.0
# math.exp(-0.5 * z ** 2) is exactly 0.0 beyond this |z| (exp(-746) underflows to 0).
_EXP_ZERO_Z = math.sqrt(2 * 746.0)


@dataclass(frozen=True)
class PulsedSource:
    """Pulsed probe laser described by average power, rate, width, wavelength."""

    avg_power_w: float
    rep_rate_hz: float = 1000.0
    pulse_width_ps: float = 100.0
    wavelength_nm: float = 1550.0

    def __post_init__(self):
        require_number(self.avg_power_w, "avg_power_w", minimum=0.0, strict=True)
        require_number(self.rep_rate_hz, "rep_rate_hz", minimum=0.0, strict=True)
        validate_wavelength_nm(self.wavelength_nm)
        require_number(self.pulse_width_ps, "pulse_width_ps", minimum=0.0, strict=True)
        if self.pulse_width_ps >= self.period_ps:
            raise ParameterError(
                f"pulse width {self.pulse_width_ps} ps must be shorter than the "
                f"{self.period_ps} ps pulse period"
            )

    @property
    def period_ps(self) -> int:
        return max(1, int(round(1e12 / self.rep_rate_hz)))

    @property
    def photons_per_pulse(self) -> float:
        return (self.avg_power_w / self.rep_rate_hz) / photon_energy_joules(self.wavelength_nm)


@dataclass(frozen=True)
class Detector:
    """Single-photon detector model: efficiency, darks, jitter, dead time."""

    efficiency: float = 0.85
    dark_rate_hz: float = 100.0
    jitter_sigma_ps: float = 50.0
    dead_time_ps: int = 50_000

    def __post_init__(self):
        if require_number(self.efficiency, "efficiency", minimum=0.0) > 1.0:
            raise ParameterError(f"efficiency must be in [0, 1], got {self.efficiency}")
        require_number(self.dark_rate_hz, "dark_rate_hz", minimum=0.0)
        require_number(self.jitter_sigma_ps, "jitter_sigma_ps", minimum=0.0)
        object.__setattr__(self, "dead_time_ps", require_int(self.dead_time_ps, "dead_time_ps", 0))


@dataclass(frozen=True)
class TunableFilter:
    """Scanning Gaussian bandpass filter; a scan parks it at each grid point in turn."""

    fwhm_nm: float = 0.8
    insertion_loss_db: float = 3.0

    def __post_init__(self):
        require_number(self.fwhm_nm, "fwhm_nm", minimum=0.0, strict=True)
        if self.fwhm_nm * _GAUSSIAN_FWHM_TO_SIGMA == 0.0:
            raise ParameterError(f"fwhm_nm {self.fwhm_nm!r} is too narrow: its sigma underflows to 0")
        require_number(self.insertion_loss_db, "insertion_loss_db", minimum=0.0)


@dataclass(frozen=True)
class LeakLine:
    """A classical laser line leaking into the victim fiber at a fixed rate."""

    wavelength_nm: float
    rate_photons_per_s: float

    def __post_init__(self):
        validate_wavelength_nm(self.wavelength_nm)
        require_number(self.rate_photons_per_s, "rate_photons_per_s", minimum=0.0)


@dataclass
class TagStream:
    """Timestamped trigger/detector events.

    ``channels`` uses 0 for trigger and 1 for detector; ``times_ps`` is int64
    picoseconds. The simulator writes them merged and sorted by time, with
    detector tags that respect its dead-time gap. The tag readers enforce no
    order, and :func:`analysis.fold_histogram` relies on none beyond strictly
    increasing triggers: it takes detector tags in any order.
    """

    channels: np.ndarray
    times_ps: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.uint8)
        self.times_ps = np.asarray(self.times_ps, dtype=np.int64)
        if self.channels.shape != self.times_ps.shape:
            raise DataError("channels and times arrays must have the same length")

    @property
    def n_records(self) -> int:
        return int(self.times_ps.size)


def _validate_seed(seed) -> int:
    """``seed`` as an int in [0, 2^64); a numpy integer is accepted, a bool is not."""
    with contextlib.suppress(ParameterError):
        if (value := require_int(seed, "seed", 0)) <= MAX_SEED:
            return value
    raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _validate_max_tags(max_tags) -> int:
    """``max_tags`` as an int in [1, ``DEFAULT_MAX_TAGS``]: the tag readers refuse a larger file."""
    if (value := require_int(max_tags, "max_tags", 1)) > DEFAULT_MAX_TAGS:
        raise ParameterError(f"max_tags must be at most {DEFAULT_MAX_TAGS}, got {value}")
    return value


def _substream(seed: int, index: int) -> np.random.Generator:
    """Generator on the Philox stream keyed ``[seed, index]``.

    The key is built as uint64 so that seeds of 2^63 and above keep every bit.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def point_mu_optical(topology: Topology, source: PulsedSource, point: CrosstalkPoint) -> float:
    """Mean photons per pulse arriving at the detector from one point.

    Detector efficiency excluded; covers the route's one-way loss out on the
    aggressor, the coupling at the point, and the same loss back on the
    victim to the near end.
    """
    one_way = path_loss_db(topology, 0.0, min(point.position_m, topology.total_length_m), source.wavelength_nm)
    loss_db = one_way + abs(point.coupling_db) + one_way
    return source.photons_per_pulse * 10.0 ** (-loss_db / 10.0)


def expected_peak_rate(
    topology: Topology, source: PulsedSource, detector: Detector, point: CrosstalkPoint
) -> float:
    """Analytic detected count rate (counts/s) for one crosstalk point."""
    return source.rep_rate_hz * point_mu_optical(topology, source, point) * detector.efficiency


def _timing_sigma_ps(source: PulsedSource, detector: Detector) -> float:
    pulse_sigma = source.pulse_width_ps * _GAUSSIAN_FWHM_TO_SIGMA
    return math.hypot(pulse_sigma, detector.jitter_sigma_ps)


def _simulate_chunk(
    chunk: int,
    n_pulses: int,
    seed: int,
    period: int,
    mus: np.ndarray,
    delays: np.ndarray,
    sigma_ps: float,
    efficiency: float,
    dark_mu: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Unsorted detector-candidate times for one block of ``n`` pulses.

    Also returns, per point, the photons that arrived and those that survived
    efficiency thinning, and the number of dark counts. Poisson splitting and
    binomial thinning give each pulse and point an independent Poisson count,
    as a draw per pulse would, from work in proportion to the photons. The
    draws are made in this order, which is part of the stream's definition:

    1. ``poisson(n * [mu_1 ... mu_P, dark_mu])``, the chunk's total per point
       and its darks;
    2. ``binomial(arrived[:P], efficiency)``, the detected photons per point;
    3. ``integers(0, n)``, a pulse for each detected photon, points in order;
    4. ``normal(delay, sigma_ps)``, each detected photon's arrival;
    5. ``integers(0, n)``, a pulse for each dark count, then
       ``floor(random() * period)``, its phase.
    """
    rng = _substream(seed, chunk)
    first = chunk * PULSES_PER_CHUNK
    n = min(PULSES_PER_CHUNK, n_pulses - first)
    arrived = rng.poisson(n * np.append(mus, dark_mu))
    signal, n_darks = arrived[:-1], int(arrived[-1])
    detected = rng.binomial(signal, efficiency)
    pulse = rng.integers(0, n, int(detected.sum()))
    arrivals = rng.normal(np.repeat(delays, detected), sigma_ps)
    dark_pulse = rng.integers(0, n, n_darks)
    dark_phase = np.floor(rng.random(n_darks) * period)
    times = np.concatenate([
        (first + pulse) * period + np.rint(arrivals).astype(np.int64),
        (first + dark_pulse) * period + dark_phase.astype(np.int64),
    ])
    return times, signal, detected, n_darks


def _apply_dead_time(times_sorted: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Non-paralyzable dead-time sweep over a sorted detector series.

    A tag at least the dead time after its predecessor is always kept, so
    only runs of closer tags need the sequential sweep. Stamps stay strictly
    increasing even with no dead time.
    """
    dead = max(dead_time_ps, 1)
    keep = np.ones(times_sorted.size, dtype=bool)
    close = np.flatnonzero(np.diff(times_sorted) < dead) + 1
    last = previous = None
    for j, t, t_before in zip(close.tolist(), times_sorted[close].tolist(),
                              times_sorted[close - 1].tolist()):
        if j - 1 != previous:
            last = t_before  # j opens a run; the tag before it was kept
        if t - last >= dead:
            last = t
        else:
            keep[j] = False
        previous = j
    return times_sorted[keep]


def simulate_otdr_tags(
    topology: Topology,
    source: PulsedSource,
    detector: Detector,
    duration_s: float,
    seed: int,
    *,
    max_tags: int = DEFAULT_MAX_TAGS,
) -> TagStream:
    """Simulate a pulsed-probe crosstalk measurement into a tag stream.

    One trigger tag is emitted per pulse. For every pulse and crosstalk point
    a Poisson number of photons arrives at the round-trip delay, spread by the
    pulse width and detector jitter combined in quadrature; detection
    efficiency thins photons before the dead-time sweep. Dark counts are
    uniform over each pulse period and are not thinned (the dark rate is
    already detector-referred). Each block of ``PULSES_PER_CHUNK`` pulses
    draws its photons by Poisson splitting from its own ``[seed, chunk]``
    key, in the order :func:`_simulate_chunk` gives; a chunk's expected
    photons from one point must not pass ``MAX_POISSON_MEAN``. The metadata
    accounts for every candidate: photons after efficiency plus darks, minus
    ``dropped_negative_time`` and ``dropped_dead_time``, equals
    ``n_detector_tags``. ``max_tags`` caps the
    records, triggers included, and may not pass ``DEFAULT_MAX_TAGS``, the
    most a tag reader accepts; a run expected to pass it, or whose draw
    passes it, raises :class:`ResourceError` before returning anything. Every
    tag time must stay below 2^63 ps (about 107 days), the int64 limit: a run
    whose last pulse period, or whose last pulse's start plus the latest point
    delay plus ``TAG_TIME_SIGMAS`` timing sigmas, reaches it raises
    :class:`ParameterError` before drawing.
    """
    seed = _validate_seed(seed)
    require_number(duration_s, "duration_s", minimum=0.0, strict=True)
    max_tags = _validate_max_tags(max_tags)
    hint = "shorten the run"
    if max_tags < DEFAULT_MAX_TAGS:
        hint += f" or raise max_tags up to {DEFAULT_MAX_TAGS}"

    points = crosstalk_points(topology, source.wavelength_nm)
    period = source.period_ps
    n_pulses = int(round(duration_s * source.rep_rate_hz))
    if n_pulses < 1:
        raise ParameterError(
            f"duration {duration_s} s yields no pulses at {source.rep_rate_hz} Hz"
        )

    mus = np.array([point_mu_optical(topology, source, p) for p in points], dtype=float)
    delays = np.array([delay_ps_for_distance(topology, p.position_m) for p in points], dtype=float)
    sigma_ps = _timing_sigma_ps(source, detector)
    dark_mu = detector.dark_rate_hz * period * 1e-12

    expected_detector = n_pulses * (float(mus.sum()) * detector.efficiency + dark_mu)
    expected_total = n_pulses + expected_detector
    if not expected_total <= max_tags:  # also catches a NaN from inf * 0 in the rates
        raise ResourceError(
            f"expected ~{expected_total:.3g} tags exceeds the cap of {max_tags}; {hint}"
        )
    # The cap counts detections, so it bounds the darks, which are not
    # thinned; a chunk's photons from a point before thinning must still fit
    # numpy's Poisson sampler.
    chunk_pulses = min(PULSES_PER_CHUNK, n_pulses)
    chunk_means = chunk_pulses * mus
    over = np.flatnonzero(~(chunk_means <= MAX_POISSON_MEAN))
    if over.size:
        first = over[0]
        raise ParameterError(
            f"expected {float(chunk_means[first]):.3g} photons from the point at {points[first].position_m} m "
            f"in a chunk of {chunk_pulses} pulses; the limit is {MAX_POISSON_MEAN:.0e}"
        )
    # a dark count can fall anywhere in the last period, a photon up to TAG_TIME_SIGMAS after its delay
    last_start = (n_pulses - 1) * period
    latest = max(last_start + period, last_start + float(delays.max(initial=0.0)) + TAG_TIME_SIGMAS * sigma_ps)
    if not latest < 2**63:
        raise ParameterError(
            f"tag times would reach {latest:.4g} ps ({n_pulses} pulses {period} ps apart, the latest point delay and "
            f"{TAG_TIME_SIGMAS:g} timing sigmas of {sigma_ps:.4g} ps); an int64 time must stay below 2^63 ps, ~107 days"
        )

    chunk_times, arrived, after_efficiency, darks = zip(*(
        _simulate_chunk(chunk, n_pulses, seed, period, mus, delays, sigma_ps, detector.efficiency, dark_mu)
        for chunk in range(-(-n_pulses // PULSES_PER_CHUNK))
    ))
    candidates = np.concatenate(chunk_times)
    negative = int((candidates < 0).sum())
    if negative:
        candidates = candidates[candidates >= 0]
    candidates.sort()
    det_times = _apply_dead_time(candidates, detector.dead_time_ps)
    if n_pulses + det_times.size > max_tags:
        raise ResourceError(f"drew {n_pulses + det_times.size} tags, over the cap of {max_tags}; {hint}")

    trig_times = np.arange(n_pulses, dtype=np.int64) * period
    times = np.concatenate([trig_times, det_times])
    channels = np.concatenate([
        np.zeros(trig_times.size, dtype=np.uint8),
        np.ones(det_times.size, dtype=np.uint8),
    ])
    order = np.lexsort((channels, times))

    metadata = {
        "schema_version": 1,
        "kind": "otdr-tags",
        "generator": "philox-chunked-split",
        "numpy_version": np.__version__,
        "pulses_per_chunk": PULSES_PER_CHUNK,
        "seed": seed,
        "duration_s": duration_s,
        "n_pulses": n_pulses,
        "period_ps": period,
        "timing_sigma_ps": sigma_ps,
        "source": asdict(source),
        "detector": asdict(detector),
        "aggressor_fiber": topology.aggressor_fiber_id,
        "victim_fiber": topology.victim_fiber_id,
        "points": [
            {
                "position_m": p.position_m,
                "source_element": p.source_element,
                "coupling_db": p.coupling_db,
                "delay_ps": float(d),
                "mu_optical_per_pulse": float(m),
                "photons_arrived": int(a),
                "photons_after_efficiency": int(e),
            }
            for p, d, m, a, e in zip(points, delays, mus, sum(arrived), sum(after_efficiency))
        ],
        "n_triggers": int(trig_times.size),
        "n_darks": sum(darks),
        "n_detector_tags": int(det_times.size),
        "dropped_negative_time": negative,
        "dropped_dead_time": int(candidates.size - det_times.size),
    }
    return TagStream(channels=channels[order], times_ps=times[order], metadata=metadata)


@dataclass
class SpectralScan:
    """Counts per wavelength from a scanning-filter noise measurement."""

    wavelengths_nm: np.ndarray
    counts: np.ndarray
    dwell_s: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.wavelengths_nm = np.asarray(self.wavelengths_nm, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.wavelengths_nm.shape != self.counts.shape:
            raise DataError("wavelength grid and counts must have the same length")
        if (self.counts < 0).any():
            raise DataError("scan counts must be non-negative")
        self.dwell_s = require_number(self.dwell_s, "dwell_s", minimum=0.0, strict=True)


def _scan_rates(
    lines: "list[LeakLine] | tuple[LeakLine, ...]",
    filt: TunableFilter,
    detector: Detector,
    centers_nm: np.ndarray,
) -> np.ndarray:
    """Analytic count rate with the filter parked at each of ``centers_nm``.

    Bit for bit the scalar sum: the dark rate plus, line by line in list
    order, ``rate * (peak * math.exp(-0.5 * z ** 2)) * efficiency`` with
    ``z`` the line's offset in filter sigmas. A term is skipped only where
    it leaves the sum as it is: beyond ``_EXP_ZERO_Z``, where it is +0.0, or
    below half an ulp of the dark rate, from which every rate only grows
    (|z| > sqrt(2 (ln(s / half_ulp) + 1)) at scale s = rate peak efficiency,
    an e-fold margin). The kept terms use Python floats, as ``np.exp`` and
    numpy's ``z ** 2`` differ in the last bit on some inputs.
    """
    sigma = filt.fwhm_nm * _GAUSSIAN_FWHM_TO_SIGMA
    peak = 10.0 ** (-filt.insertion_loss_db / 10.0)
    dark, efficiency = float(detector.dark_rate_hz), detector.efficiency
    half_ulp = math.ulp(dark) / 2.0
    rates = np.full(centers_nm.shape, dark)
    # Rates may overflow to inf, as the scalar sum would; the caller rejects them.
    with np.errstate(over="ignore"):
        for line in lines:
            rate, reach = line.rate_photons_per_s, _EXP_ZERO_Z
            # no cut where a term's subnormal roundings, each up to ulp(0) times rate * efficiency, could add up
            if min(rate, efficiency, peak) > 0 and (rate * efficiency + 1.0) * math.ulp(0.0) < half_ulp / 2:
                exponent = math.log(rate) + math.log(peak) + math.log(efficiency) - math.log(half_ulp) + 1.0
                reach = min(reach, math.sqrt(2.0 * max(exponent, 0.0)))
            z = (line.wavelength_nm - centers_nm) / sigma
            near = np.flatnonzero(np.abs(z) <= reach)
            rates[near] += [rate * (peak * math.exp(-0.5 * x ** 2)) * efficiency for x in z[near].tolist()]
    return rates


def simulate_spectral_scan(
    lines: "list[LeakLine] | tuple[LeakLine, ...]",
    filt: TunableFilter,
    detector: Detector,
    grid_nm: "list[float] | np.ndarray",
    dwell_s: float,
    seed: int,
) -> SpectralScan:
    """Simulate a wavelength scan of leaked classical light plus dark counts.

    The counts are one Poisson draw over the whole grid, in grid order, from
    the Philox stream keyed ``[seed, 0]``. The scan is deterministic, and
    the scan of ``grid[:k]`` gives the first k counts of the scan of
    ``grid``; a point's count also depends on the means before it.
    """
    seed = _validate_seed(seed)
    require_number(dwell_s, "dwell_s", minimum=0.0, strict=True)
    grid = validate_grid_nm(grid_nm)
    for line in lines:
        if not isinstance(line, LeakLine):
            raise ParameterError(f"expected LeakLine entries, got {type(line).__name__}")

    with np.errstate(over="ignore"):
        means = _scan_rates(lines, filt, detector, grid) * dwell_s
    over = np.flatnonzero(~(means <= MAX_POISSON_MEAN))
    if over.size:
        first = over[0]
        raise ParameterError(
            f"expected {float(means[first]):.3g} counts at {grid[first]} nm; the limit is {MAX_POISSON_MEAN:.0e}"
        )
    counts = _substream(seed, 0).poisson(means)

    metadata = {
        "schema_version": 1,
        "kind": "spectral-scan",
        "generator": "philox-vector",
        "numpy_version": np.__version__,
        "seed": seed,
        "dwell_s": dwell_s,
        "filter": asdict(filt),
        "detector": asdict(detector),
        "lines": [asdict(line) for line in lines],
    }
    return SpectralScan(wavelengths_nm=grid, counts=counts, dwell_s=dwell_s, metadata=metadata)
