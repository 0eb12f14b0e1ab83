"""Analysis pipeline: fold tag streams, detect peaks, localize, estimate coupling.

The chain mirrors a time-correlated single-photon counting workflow: delays
relative to the most recent trigger are folded into a fixed-period histogram,
peaks are picked against a robust median baseline, converted to distances via
the plant's group-index profile, and inverted into coupling levels using the
recorded source/detector parameters.

A folded histogram is sparse: one period at 1 kHz and 100 ps bins is 10^7
bins, of which a capture occupies a few percent, so :class:`Histogram` keeps
only the occupied bins (ascending indices and their counts) plus ``n_bins``.
The median baseline is exact from the number of empty bins and the occupied
counts, and peak detection scans the occupied bins only: an empty bin is
below any threshold above a non-negative level. Results equal those of the
dense form, which :meth:`Histogram.dense` builds for tests and small
histograms.

The fold walks a stream's records in blocks of ``FOLD_BLOCK_RECORDS``: each
block's detector tags become a sparse histogram of their own, and the block
histograms are summed once at the end. Its working set is the triggers plus
one block, so it grows with the number of pulses and occupied bins, not with
the number of detector tags.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import DataError, ParameterError, ResourceError
from .plant import Topology, distance_for_delay_ps, path_loss_db
from .simulate import DETECTOR_CHANNEL, TRIGGER_CHANNEL, Detector, PulsedSource, SpectralScan, TagStream
from .units import _GAUSSIAN_FWHM_TO_SIGMA, C_M_PER_S, require_int, require_number

_DB_PER_NEPER = 10.0 / math.log(10.0)

DEFAULT_BIN_WIDTH_PS = 100
DEFAULT_K_SIGMA = 5.0
DEFAULT_MIN_SEPARATION_BINS = 3
MIN_BASELINE_BINS = 16  # the fewest bins, or scan points, a median baseline is taken over
PERIOD_JITTER_WARN_PPM = 1.0
MAX_FOLD_BINS = 100_000_000  # Histogram.dense() of that many bins takes 800 MB
_MAX_DIVISOR_TRIALS = 1_000_000  # ~0.1 s of trial division in suggest_bin_width
FOLD_BLOCK_RECORDS = 1 << 16  # records per block of the fold's detector pass


@dataclass
class FoldDiagnostics:
    """Bookkeeping for tags that did not land in the histogram."""

    dropped_before_first_trigger: int = 0
    dropped_beyond_period: int = 0
    dropped_outside_window: int = 0
    period_jitter_ppm: float = 0.0
    irregular_period: bool = False

    @property
    def dropped_total(self) -> int:
        return (
            self.dropped_before_first_trigger
            + self.dropped_beyond_period
            + self.dropped_outside_window
        )


@dataclass
class Histogram:
    """Folded delay histogram over one trigger period, holding its occupied bins.

    ``bins`` are the ascending int64 indices of the bins with counts, and
    ``counts`` their int64 counts, each >= 1; every other of the ``n_bins``
    bins is empty.
    """

    bins: np.ndarray
    counts: np.ndarray
    n_bins: int
    bin_width_ps: int
    period_ps: int
    total_triggers: int
    live_time_s: float
    diagnostics: FoldDiagnostics = field(default_factory=FoldDiagnostics)

    def dense(self) -> np.ndarray:
        """All ``n_bins`` counts as one int64 array."""
        out = np.zeros(self.n_bins, dtype=np.int64)
        out[self.bins] = self.counts
        return out


@dataclass(frozen=True)
class BaselineEstimate:
    """Robust background level and a Poisson noise scale for thresholding."""

    level: float
    noise_scale: float


@dataclass(frozen=True)
class Peak:
    """A detected excursion above baseline in a counts series."""

    bin_index: int
    centroid_bins: float
    delay_ps: float
    amplitude_counts: float
    background_counts: float
    significance_sigma: float
    fwhm_ps: float


@dataclass(frozen=True)
class LocatedCrosstalk:
    """A peak mapped onto the fiber plant."""

    distance_m: float
    distance_uncertainty_m: float
    coupling_db: float | None = None
    coupling_uncertainty_db: float | None = None
    matched_element: str | None = None


@dataclass(frozen=True)
class CouplingEstimate:
    coupling_db: float
    uncertainty_db: float


@dataclass(frozen=True)
class SpectralLine:
    wavelength_nm: float
    rate_per_s: float
    significance_sigma: float


def suggest_bin_width(period_ps: int, requested_ps: int) -> int | None:
    """Divisor of the period nearest to a requested width >= 1 ps (ties go small).

    1 always divides, so no divisor of 2 * requested or more can win: trial
    division up to min(sqrt(period), 2 * requested) finds every one that can,
    each small divisor d together with period // d. None when that takes more
    than ``_MAX_DIVISOR_TRIALS`` divisions.
    """
    limit = min(math.isqrt(period_ps), 2 * requested_ps)
    if limit > _MAX_DIVISOR_TRIALS:
        return None
    small = [d for d in range(1, limit + 1) if period_ps % d == 0]
    divisors = sorted({*small, *(period_ps // d for d in small)})
    i = bisect.bisect_right(divisors, requested_ps)
    below = divisors[i - 1]
    if i == len(divisors) or requested_ps - below <= divisors[i] - requested_ps:
        return below
    return divisors[i]


def _preceding_trigger(edges: np.ndarray, det: np.ndarray, period: int) -> np.ndarray:
    """``np.searchsorted(trig, det, side="right") - 1`` for strictly increasing ``trig``.

    ``edges`` is ``trig`` between the int64 extremes, so trigger i is
    ``edges[i + 1]``. Each tag's trigger is guessed as
    ``(det - trig[0]) // period`` and checked against the triggers on both
    sides of it; only the tags whose guess fails are searched. The check is
    exact, so a poor guess (jitter, gaps, tags out of order) costs searches,
    never a wrong index.
    """
    trig = edges[1:-1]
    # Updated in place: a fresh array per step costs as much as the arithmetic. A single
    # trigger's period can exceed int64, and any divisor will do for a guess that is checked.
    idx = det - trig[0]
    idx //= min(period, np.iinfo(np.int64).max)
    np.clip(idx, -1, trig.size - 1, out=idx)
    idx += 1
    # guessing trigger i, the tag must lie in [edges[i + 1], edges[i + 2])
    wrong = np.flatnonzero((edges.take(idx) > det) | (det >= edges[1:].take(idx)))
    idx -= 1
    if wrong.size:
        idx[wrong] = np.searchsorted(trig, det.take(wrong), side="right") - 1
    return idx


def _channel_blocks(tags: TagStream, channel: int):
    """The times of ``tags`` on ``channel``, ``FOLD_BLOCK_RECORDS`` records at a time, in stream order."""
    for start in range(0, tags.n_records, FOLD_BLOCK_RECORDS):
        stop = start + FOLD_BLOCK_RECORDS
        # compress runs ~4x faster than boolean indexing on interleaved channels
        yield np.compress(tags.channels[start:stop] == channel, tags.times_ps[start:stop])


def _merge_counts(parts: "list[tuple[np.ndarray, np.ndarray]]") -> "tuple[np.ndarray, np.ndarray]":
    """One sparse histogram, ascending bins and their int64 counts, summed from ``(bins, counts)`` parts."""
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if len(parts) == 1:
        bins, counts = parts[0]
    else:
        bins, inverse = np.unique(np.concatenate([b for b, _ in parts]), return_inverse=True)
        counts = np.zeros(bins.size, dtype=np.int64)
        np.add.at(counts, inverse, np.concatenate([c for _, c in parts]))
    return bins, counts.astype(np.int64, copy=False)


def fold_histogram(
    tags: TagStream,
    bin_width_ps: int = DEFAULT_BIN_WIDTH_PS,
    window_ps: tuple[int, int] | None = None,
) -> Histogram:
    """Fold detector tags into delays relative to the most recent trigger.

    The trigger period is the median trigger spacing; spacing jitter above
    1 ppm is flagged in the diagnostics but the median is still used. The bin
    width must divide the period exactly, otherwise a nearby divisor is
    suggested. Tags before the first trigger, beyond one period after their
    trigger, or outside the optional delay window are dropped and counted.
    A period of more than ``MAX_FOLD_BINS`` bins is a :class:`ResourceError`.

    The triggers are taken out whole; the detector tags are folded
    ``FOLD_BLOCK_RECORDS`` records at a time, each block into a sparse
    histogram of its own, and the block histograms are summed at the end. So
    the fold holds the triggers and one block at a time, never an array per
    detector tag. Each detector tag's trigger is guessed from the period and
    checked exactly against its neighbouring triggers; only the tags whose
    guess fails are binary-searched. The result equals a binary search for
    every tag, so it is exact for detector tags in any order, and jittered or
    gapped triggers only cost more searches.
    """
    bin_width_ps = require_int(bin_width_ps, "bin_width_ps", 1)
    if bin_width_ps > np.iinfo(np.int64).max:  # delays are int64
        raise ParameterError(f"bin width must be at most {np.iinfo(np.int64).max} ps, got {bin_width_ps}")
    # the triggers between the int64 extremes, as _preceding_trigger takes them
    edges = np.concatenate(
        ([np.iinfo(np.int64).min], *_channel_blocks(tags, TRIGGER_CHANNEL), [np.iinfo(np.int64).max])
    )
    trig = edges[1:-1]
    if trig.size == 0:
        raise DataError("stream contains no trigger events", code="E_NO_TRIGGER")

    diagnostics = FoldDiagnostics()
    if trig.size > 1:
        spacings = np.diff(trig)
        shortest, longest = spacings.min(), spacings.max()
        if shortest <= 0:
            raise DataError("trigger timestamps are not strictly increasing")
        median = float(np.median(spacings, overwrite_input=True))
        del spacings
        period = int(round(median))
        if period < 1:
            raise DataError("trigger period collapsed to zero")
        # max |spacing - median| from the extremes, without a float array per spacing
        jitter_ppm = float(max(longest - median, median - shortest) / median * 1e6)
        diagnostics.period_jitter_ppm = jitter_ppm
        diagnostics.irregular_period = jitter_ppm > PERIOD_JITTER_WARN_PPM
    else:
        # A single trigger cannot define a period; span all following tags.
        last = max((det.max() for det in _channel_blocks(tags, DETECTOR_CHANNEL) if det.size), default=None)
        if last is not None:
            max_delay = int(max(last - trig[0], 0)) + 1
        else:
            max_delay = bin_width_ps
        period = ((max_delay + bin_width_ps - 1) // bin_width_ps) * bin_width_ps

    if period > MAX_FOLD_BINS * bin_width_ps:
        raise ResourceError(f"a {period} ps period needs over {MAX_FOLD_BINS} histogram bins of {bin_width_ps} ps")
    if period % bin_width_ps:
        suggestion = suggest_bin_width(period, bin_width_ps)
        raise ParameterError(
            f"bin width {bin_width_ps} ps does not divide the {period} ps trigger period"
            + ("" if suggestion is None else f"; nearest divisor is {suggestion} ps"),
            code="E_BIN_WIDTH",
        )
    n_bins = period // bin_width_ps

    if window_ps is not None:
        lo, hi = int(window_ps[0]), int(window_ps[1])
        if not 0 <= lo < hi:
            raise ParameterError(f"window must satisfy 0 <= lo < hi, got {window_ps!r}")
    else:
        lo = hi = None

    parts = []
    for det in _channel_blocks(tags, DETECTOR_CHANNEL):
        if not det.size:
            continue
        idx = _preceding_trigger(edges, det, period)
        before = idx < 0
        n_before = int(np.count_nonzero(before))
        diagnostics.dropped_before_first_trigger += n_before
        if n_before:
            kept = np.flatnonzero(~before)
            det, idx = det.take(kept), idx.take(kept)
        delays = det - trig.take(idx)
        beyond = delays >= period
        n_beyond = int(np.count_nonzero(beyond))
        diagnostics.dropped_beyond_period += n_beyond
        if n_beyond:
            delays = delays.take(np.flatnonzero(~beyond))
        if lo is not None:
            inside = (delays >= lo) & (delays < hi)
            diagnostics.dropped_outside_window += int(delays.size - int(inside.sum()))
            delays = delays[inside]
        if delays.size:
            parts.append(np.unique(delays // bin_width_ps, return_counts=True))
    bins, counts = _merge_counts(parts)

    return Histogram(
        bins=bins,
        counts=counts,
        n_bins=n_bins,
        bin_width_ps=bin_width_ps,
        period_ps=period,
        total_triggers=int(trig.size),
        live_time_s=float(trig.size) * period * 1e-12,
        diagnostics=diagnostics,
    )


def _histogram_median(histogram: Histogram) -> float:
    """``np.median(histogram.dense())`` without the dense array.

    Sorted, the bins are ``n_bins - counts.size`` zeros followed by the sorted
    occupied counts; the median is the mean of the one or two middle values.
    """
    n = histogram.n_bins
    zeros = n - histogram.counts.size
    middle = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    ranks = [k - zeros for k in middle if k >= zeros]
    occupied = np.partition(histogram.counts, ranks) if ranks else histogram.counts
    values = np.array([occupied[k - zeros] if k >= zeros else 0 for k in middle], dtype=np.int64)
    return float(np.mean(values))


def estimate_baseline(histogram_or_counts) -> BaselineEstimate:
    """Median background level with a sqrt-of-median Poisson noise scale."""
    if isinstance(histogram_or_counts, Histogram):
        n_bins, median = histogram_or_counts.n_bins, _histogram_median
    else:
        histogram_or_counts = np.asarray(histogram_or_counts)
        n_bins, median = histogram_or_counts.size, np.median
    if n_bins < MIN_BASELINE_BINS:
        raise ParameterError(f"baseline estimation needs >= {MIN_BASELINE_BINS} bins, got {n_bins}")
    level = float(median(histogram_or_counts))
    return BaselineEstimate(level=level, noise_scale=max(math.sqrt(max(level, 0.0)), 1.0))


def _runs(hits: np.ndarray) -> list[tuple[int, int]]:
    """Inclusive (start, end) pairs of the runs of consecutive ascending indices."""
    if hits.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(hits) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [hits.size - 1]))
    return [(int(hits[s]), int(hits[e])) for s, e in zip(starts, ends)]


def detect_peaks(
    series: "Histogram | np.ndarray",
    baseline: BaselineEstimate,
    k_sigma: float = DEFAULT_K_SIGMA,
    min_separation_bins: int = DEFAULT_MIN_SEPARATION_BINS,
) -> list[Peak]:
    """Find excursions of ``series`` above baseline + k_sigma * noise.

    ``series`` is a :class:`Histogram` or a dense array, whose every index is
    occupied. Contiguous above-threshold runs become candidate peaks; runs
    separated by fewer than ``min_separation_bins`` below-threshold bins are
    merged. The nominal peak bin is the leftmost maximum of the region, the
    centroid is amplitude-weighted over the region, and the FWHM comes from
    the weighted second moment (floored at one bin). A histogram's empty bins
    never cross the threshold, so it must exceed 0. A histogram's ``bin_width_ps``
    scales ``delay_ps`` and ``fwhm_ps``; for an array they are in points.
    """
    k_sigma = require_number(k_sigma, "k_sigma", minimum=0.0, strict=True)
    min_separation_bins = require_int(min_separation_bins, "min_separation_bins", 0)
    threshold = baseline.level + k_sigma * baseline.noise_scale
    if isinstance(series, Histogram):
        if not threshold > 0.0:
            raise ParameterError(f"a histogram needs a peak threshold > 0 counts, got {threshold}")
        bins, values, bin_width_ps = series.bins, series.counts, series.bin_width_ps
    else:
        values = np.asarray(series)
        bins, bin_width_ps = np.arange(values.size), 1
    runs = _runs(bins[values >= threshold])
    if not runs:
        return []

    merged: list[list[int]] = [list(runs[0])]
    for start, end in runs[1:]:
        gap = start - merged[-1][1] - 1
        if gap < min_separation_bins:
            merged[-1][1] = end
        else:
            merged.append([start, end])

    peaks: list[Peak] = []
    for start, end in merged:
        # the region rebuilt densely, so its sums run over the same elements in
        # the same order whatever form the series came in
        lo, hi = np.searchsorted(bins, [start, end + 1])
        seg = np.zeros(end + 1 - start)
        seg[bins[lo:hi] - start] = values[lo:hi]
        weights = np.maximum(seg - baseline.level, 0.0)
        amplitude = float(weights.sum())
        if amplitude <= 0.0:
            continue
        centers = np.arange(start, end + 1, dtype=float) + 0.5
        centroid = float((centers * weights).sum() / amplitude)
        variance = float(((centers - centroid) ** 2 * weights).sum() / amplitude)
        # 1 / _GAUSSIAN_FWHM_TO_SIGMA rounds back to exactly 2.355; dividing by
        # the constant instead would move the last bit of some widths.
        fwhm_bins = max(1.0 / _GAUSSIAN_FWHM_TO_SIGMA * math.sqrt(max(variance, 0.0)), 1.0)
        peak_offset = int(np.argmax(seg))  # argmax returns the leftmost maximum
        peaks.append(
            Peak(
                bin_index=start + peak_offset,
                centroid_bins=centroid,
                delay_ps=centroid * bin_width_ps,
                amplitude_counts=amplitude,
                background_counts=baseline.level * seg.size,
                significance_sigma=float((seg[peak_offset] - baseline.level) / baseline.noise_scale),
                fwhm_ps=fwhm_bins * bin_width_ps,
            )
        )
    return peaks


def _peak_location(peak: Peak, topology: Topology):
    """Distance, its uncertainty, and the matched connector (or None) for a peak."""
    distance = distance_for_delay_ps(topology, peak.delay_ps)
    sigma_t_ps = peak.fwhm_ps * _GAUSSIAN_FWHM_TO_SIGMA
    # Round trip: out on the aggressor fiber and back on the victim.
    uncertainty = C_M_PER_S * (sigma_t_ps * 1e-12) / (2.0 * topology.group_index_at(distance))
    matched = None
    if topology.connectors:
        nearest = min(topology.connectors, key=lambda c: abs(c.position_m - distance))
        if abs(nearest.position_m - distance) <= 3.0 * uncertainty:
            matched = nearest
    return distance, uncertainty, matched


def localize(peaks: "list[Peak]", topology: Topology) -> list[LocatedCrosstalk]:
    """Convert peak delays to distances along the plant.

    Only a near-end (co-located) detector sees a distance-dependent delay; a
    far-end detector yields one constant delay for every crosstalk point.
    The nearest connector within three distance uncertainties is reported as
    the matched element.
    """
    if topology.detector_end != "near":
        raise ParameterError(
            "localization impossible: with a far-end detector the delay is "
            "position-independent"
        )
    located = []
    for peak in peaks:
        distance, uncertainty, matched = _peak_location(peak, topology)
        located.append(
            LocatedCrosstalk(
                distance_m=distance,
                distance_uncertainty_m=uncertainty,
                matched_element=matched.id if matched else None,
            )
        )
    return located


def estimate_coupling_db(
    peak: Peak,
    histogram: Histogram,
    topology: Topology,
    source: PulsedSource,
    detector: Detector,
) -> CouplingEstimate:
    """Invert the detected peak amplitude into a coupling level in dB.

    Adds back the outbound and return span losses so the result refers to the
    crosstalk point itself; the uncertainty is the Poisson error of the
    amplitude converted to dB. When the peak matches a connector, losses are
    evaluated at the connector position: millimeter-level noise in the
    estimated distance must not flip whether that connector's own insertion
    loss falls inside the path.
    """
    if peak.amplitude_counts <= 0.0:
        raise ParameterError("coupling undefined for a peak with non-positive amplitude")
    if detector.efficiency <= 0.0:
        raise ParameterError("cannot invert a coupling with zero detector efficiency")
    pulses = histogram.live_time_s * source.rep_rate_hz
    if pulses <= 0.0:
        raise ParameterError("histogram carries no live time")
    raw_distance, _, matched = _peak_location(peak, topology)
    distance = matched.position_m if matched else min(raw_distance, topology.total_length_m)
    nm = source.wavelength_nm
    fraction = peak.amplitude_counts / (pulses * source.photons_per_pulse * detector.efficiency)
    coupling = (
        10.0 * math.log10(fraction)
        + path_loss_db(topology, topology.aggressor_fiber_id, 0.0, distance, nm)
        + path_loss_db(topology, topology.victim_fiber_id, 0.0, distance, nm)
    )
    uncertainty = _DB_PER_NEPER / math.sqrt(peak.amplitude_counts)
    return CouplingEstimate(coupling_db=coupling, uncertainty_db=uncertainty)


def detect_spectral_lines(scan: SpectralScan, k_sigma: float = DEFAULT_K_SIGMA) -> list[SpectralLine]:
    """Run peak detection over a spectral scan and convert centroids to nm.

    A scan of fewer than ``MIN_BASELINE_BINS`` points is a :class:`DataError`.
    """
    if scan.counts.size < MIN_BASELINE_BINS:
        raise DataError(f"baseline estimation needs >= {MIN_BASELINE_BINS} scan points, got {scan.counts.size}")
    baseline = estimate_baseline(scan.counts)
    peaks = detect_peaks(scan.counts, baseline, k_sigma)
    grid = scan.wavelengths_nm
    indices = np.arange(grid.size, dtype=float)
    lines = []
    for peak in peaks:
        idx = min(max(peak.centroid_bins - 0.5, 0.0), float(grid.size - 1))
        lines.append(
            SpectralLine(
                wavelength_nm=float(np.interp(idx, indices, grid)),
                rate_per_s=peak.amplitude_counts / scan.dwell_s,
                significance_sigma=peak.significance_sigma,
            )
        )
    return lines


@dataclass
class OtdrReport:
    """Bundled result of one analysis pass over a tag stream."""

    histogram: Histogram
    baseline: BaselineEstimate
    peaks: list[Peak]
    located: list[LocatedCrosstalk]
    notes: list[str] = field(default_factory=list)

    def to_dict(self, parameters: dict | None = None) -> dict:
        hist = self.histogram
        # the occupied bins go to the histogram CSV, and the fold's diagnostics to their own section
        summary = {
            f.name: getattr(hist, f.name) for f in fields(hist) if f.name not in ("bins", "counts", "diagnostics")
        }
        return {
            "schema_version": 1,
            "kind": "otdr-analysis",
            "parameters": parameters or {},
            "histogram": {**summary, "total_counts": int(hist.counts.sum())},
            "baseline": asdict(self.baseline),
            # a peak's centroid in bins is internal to detection: the report gives its delay
            "peaks": [{k: v for k, v in asdict(p).items() if k != "centroid_bins"} for p in self.peaks],
            "located": [asdict(loc) for loc in self.located],
            "diagnostics": {**asdict(hist.diagnostics), "notes": self.notes},
        }


def run_otdr_analysis(
    tags: TagStream,
    topology: Topology,
    *,
    bin_width_ps: int = DEFAULT_BIN_WIDTH_PS,
    k_sigma: float = DEFAULT_K_SIGMA,
    min_separation_bins: int = DEFAULT_MIN_SEPARATION_BINS,
    window_ps: tuple[int, int] | None = None,
    source: PulsedSource | None = None,
    detector: Detector | None = None,
) -> OtdrReport:
    """Fold, detect, localize, and (when source/detector are known) estimate coupling."""
    histogram = fold_histogram(tags, bin_width_ps, window_ps)
    baseline = estimate_baseline(histogram)
    peaks = detect_peaks(histogram, baseline, k_sigma, min_separation_bins)
    notes: list[str] = []
    if histogram.diagnostics.irregular_period:
        notes.append(
            f"trigger spacing jitter {histogram.diagnostics.period_jitter_ppm:.1f} ppm "
            "exceeds 1 ppm; median period used"
        )
    located: list[LocatedCrosstalk] = []
    if topology.detector_end == "near":
        located = localize(peaks, topology)
        if source is not None and detector is not None:
            enriched = []
            for peak, loc in zip(peaks, located):
                est = estimate_coupling_db(peak, histogram, topology, source, detector)
                enriched.append(
                    replace(loc, coupling_db=est.coupling_db, coupling_uncertainty_db=est.uncertainty_db)
                )
            located = enriched
        else:
            notes.append("source/detector parameters unavailable; couplings not estimated")
    else:
        notes.append("localization impossible: delay is position-independent for a far-end detector")
    return OtdrReport(histogram=histogram, baseline=baseline, peaks=peaks, located=located, notes=notes)
