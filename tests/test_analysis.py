"""Folding, baseline, peak detection, localization, and coupling inversion."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fiberxtalk as fx
from fiberxtalk import analysis, plant
from fiberxtalk.analysis import (
    BaselineEstimate,
    Peak,
    detect_peaks,
    estimate_baseline,
    fold_histogram,
    suggest_bin_width,
)
from fiberxtalk.errors import DataError, ParameterError, ResourceError

from conftest import connector_doc, lossless_topology, power_for_mu_det, topology_doc


def stream_from(triggers, detectors, metadata=None):
    channels = np.concatenate(
        [np.zeros(len(triggers), dtype=np.uint8), np.ones(len(detectors), dtype=np.uint8)]
    )
    times = np.concatenate(
        [np.asarray(triggers, dtype=np.int64), np.asarray(detectors, dtype=np.int64)]
    )
    order = np.lexsort((channels, times))
    return fx.TagStream(channels=channels[order], times_ps=times[order], metadata=metadata or {})


PERIOD = 1_000_000_000  # 1 kHz in ps


def shuffled_stream(triggers, detectors, rng):
    """Triggers in order, detector tags in the given order, the two channels interleaved at random."""
    channels = rng.permutation(np.repeat(np.array([0, 1], dtype=np.uint8), [len(triggers), len(detectors)]))
    times = np.empty(channels.size, dtype=np.int64)
    times[channels == 0] = triggers
    times[channels == 1] = detectors
    return fx.TagStream(channels=channels, times_ps=times)


def searched_fold(triggers, detectors, period, bin_width, window):
    """Bins, counts and drop counters of a fold by one plain binary search per detector tag."""
    idx = np.searchsorted(triggers, detectors, side="right") - 1
    before = idx < 0
    delays = detectors[~before] - triggers[idx[~before]]
    beyond = delays >= period
    delays = delays[~beyond]
    outside = np.zeros(delays.size, dtype=bool)
    if window is not None:
        outside = (delays < window[0]) | (delays >= window[1])
    bins, counts = np.unique(delays[~outside] // bin_width, return_counts=True)
    return bins, counts, (int(before.sum()), int(beyond.sum()), int(outside.sum()))


class TestFoldHistogram:
    def test_single_tag_lands_in_the_right_bin(self):
        stream = stream_from([0, PERIOD], [12_345])
        hist = fold_histogram(stream, bin_width_ps=100)
        assert hist.period_ps == PERIOD
        assert hist.dense()[123] == 1
        assert int(hist.counts.sum()) == 1

    @pytest.mark.parametrize("bin_width", [np.int64(100), np.int32(100)])
    def test_numpy_integer_bin_width_is_accepted(self, bin_width):
        stream = stream_from([0, PERIOD], [12_345])
        assert fold_histogram(stream, bin_width_ps=bin_width).dense()[123] == 1

    @pytest.mark.parametrize("bin_width", [True, 100.0, 0])
    def test_bin_width_must_be_an_integer_of_at_least_1(self, bin_width):
        with pytest.raises(ParameterError, match="bin_width_ps must be an integer >= 1"):
            fold_histogram(stream_from([0, PERIOD], [5]), bin_width_ps=bin_width)

    def test_empty_detector_channel(self):
        stream = stream_from([0, PERIOD, 2 * PERIOD], [])
        hist = fold_histogram(stream, bin_width_ps=100)
        assert int(hist.counts.sum()) == 0
        assert hist.total_triggers == 3

    def test_no_triggers_is_a_data_error(self):
        stream = stream_from([], [123, 456])
        with pytest.raises(DataError) as err:
            fold_histogram(stream, bin_width_ps=100)
        assert err.value.code == "E_NO_TRIGGER"

    def test_non_divisor_bin_width_suggests_a_divisor(self):
        stream = stream_from([0, PERIOD], [5])
        with pytest.raises(ParameterError) as err:
            fold_histogram(stream, bin_width_ps=300)
        assert err.value.code == "E_BIN_WIDTH"
        assert "320" in str(err.value)  # nearest divisor of 1e9 to 300

    @pytest.mark.parametrize("triggers, detectors", [
        ([0, 9 * 10**18], [5]),  # 9e16 bins of 100 ps
        ([0], [2**63 - 1]),  # one trigger: the period spans the last tag
        ([0, (analysis.MAX_FOLD_BINS + 1) * 100], []),
    ])
    def test_period_beyond_bin_cap_is_resource_error(self, triggers, detectors):
        with pytest.raises(ResourceError, match="histogram bins"):
            fold_histogram(stream_from(triggers, detectors), bin_width_ps=100)

    def test_suggest_bin_width(self):
        assert suggest_bin_width(PERIOD, 300) == 320
        assert suggest_bin_width(PERIOD, 100) == 100
        assert suggest_bin_width(10, 7) == 5  # tie 5 vs 10 resolved small

    def test_suggest_bin_width_matches_a_scan_of_every_width(self):
        # the rule of a scan over every width 1..period: the nearest divisor,
        # ties to the smaller (argmin returns the first of equal distances)
        widths = np.arange(1, 201)
        for period in range(1, 3001):
            cand = np.arange(1, period + 1)
            divisors = cand[period % cand == 0]
            want = divisors[np.argmin(np.abs(divisors[None, :] - widths[:, None]), axis=1)]
            assert [suggest_bin_width(period, int(w)) for w in widths] == want.tolist(), period

    def test_bin_width_error_on_a_large_prime_period_is_fast(self):
        stream = stream_from([0, 10**8 + 7], [5])  # 10^8 + 7 is prime
        started = time.perf_counter()
        with pytest.raises(ParameterError, match="nearest divisor is 1 ps") as err:
            fold_histogram(stream, bin_width_ps=100)
        assert time.perf_counter() - started < 1.0
        assert err.value.code == "E_BIN_WIDTH"

    def test_bin_width_error_past_the_divisor_cap_is_fast(self):
        # 10^7 + 1 ps is the least width that folds this period within MAX_FOLD_BINS;
        # a full search for the nearest divisor would take 2 * 10^7 trial divisions.
        stream = stream_from([0, 10**15 + 37], [5])
        started = time.perf_counter()
        with pytest.raises(ParameterError, match="does not divide the 1000000000000037 ps") as err:
            fold_histogram(stream, bin_width_ps=10**7 + 1)
        assert time.perf_counter() - started < 0.5
        assert err.value.code == "E_BIN_WIDTH"
        assert "nearest divisor" not in str(err.value)
        assert suggest_bin_width(10**15 + 37, 10**7) is None

    def test_bin_width_beyond_int64_is_parameter_error(self):
        stream = stream_from([0], [5])  # one trigger: the period is one bin of any width
        assert fold_histogram(stream, bin_width_ps=2**63 - 1).n_bins == 1
        with pytest.raises(ParameterError, match="at most 9223372036854775807 ps"):
            fold_histogram(stream, bin_width_ps=2**63)

    def test_tags_before_first_trigger_are_dropped_and_counted(self):
        stream = stream_from([1000, 1000 + PERIOD], [5, 999, 1100])
        hist = fold_histogram(stream, bin_width_ps=100)
        assert hist.diagnostics.dropped_before_first_trigger == 2
        assert int(hist.counts.sum()) == 1
        assert hist.dense()[1] == 1  # delay 100 ps

    def test_count_conservation_is_exact(self):
        rng = np.random.default_rng(0)
        triggers = np.arange(50, dtype=np.int64) * PERIOD
        detectors = np.sort(rng.integers(-100, 50 * PERIOD, size=2000)).astype(np.int64)
        detectors = np.unique(detectors)
        stream = stream_from(triggers, detectors)
        hist = fold_histogram(stream, bin_width_ps=100)
        assert int(hist.counts.sum()) + hist.diagnostics.dropped_total == detectors.size

    def test_fold_invariance_under_global_shift(self):
        rng = np.random.default_rng(1)
        triggers = np.arange(20, dtype=np.int64) * PERIOD + 777
        detectors = np.unique(rng.integers(777, 20 * PERIOD, size=500).astype(np.int64))
        stream = stream_from(triggers, detectors)
        shifted = stream_from(triggers + 31_415_926, detectors + 31_415_926)
        a = fold_histogram(stream, bin_width_ps=100)
        b = fold_histogram(shifted, bin_width_ps=100)
        assert np.array_equal(a.bins, b.bins)
        assert np.array_equal(a.counts, b.counts)

    def test_window_filters_and_counts(self):
        stream = stream_from([0, PERIOD], [100, 200_000, 900_000_000])
        hist = fold_histogram(stream, bin_width_ps=100, window_ps=(100_000, 1_000_000))
        assert int(hist.counts.sum()) == 1
        assert hist.diagnostics.dropped_outside_window == 2

    def test_irregular_trigger_spacing_warns_and_uses_median(self):
        triggers = [0, PERIOD, 2 * PERIOD + 5_000, 3 * PERIOD + 5_000]
        stream = stream_from(triggers, [50])
        hist = fold_histogram(stream, bin_width_ps=100)
        assert hist.diagnostics.irregular_period
        assert hist.period_ps == PERIOD

    def test_single_trigger_stream(self):
        stream = stream_from([0], [12_345])
        hist = fold_histogram(stream, bin_width_ps=100)
        assert hist.dense()[123] == 1

    def test_single_trigger_period_beyond_int64(self):
        # two bins of 2^62 ps span a tag at the largest time; the 2^63 ps period fits no int64
        hist = fold_histogram(stream_from([0], [5, 2**63 - 1]), bin_width_ps=2**62)
        assert hist.period_ps == 2**63
        assert (hist.bins.tolist(), hist.counts.tolist()) == ([0, 1], [1, 1])

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_triggers=st.integers(1, 40),
        spacing=st.sampled_from(["regular", "jittered", "gapped", "irregular"]),
        requested_bin=st.integers(1, 40),
        windowed=st.booleans(),
        block=st.sampled_from([analysis.FOLD_BLOCK_RECORDS, 1, 7]),
    )
    @example(seed=0, n_triggers=1, spacing="regular", requested_bin=1, windowed=False, block=1)
    @example(seed=1, n_triggers=1, spacing="regular", requested_bin=7, windowed=True, block=7)
    @example(seed=2, n_triggers=2, spacing="regular", requested_bin=1, windowed=True, block=7)
    def test_matches_a_binary_search_for_every_tag(self, seed, n_triggers, spacing, requested_bin, windowed, block):
        rng = np.random.default_rng(seed)
        period = int(rng.integers(1, 2000))
        spacings = {
            "regular": np.full(n_triggers - 1, period),
            "jittered": np.maximum(period + rng.integers(-(period // 10), period // 10 + 1, n_triggers - 1), 1),
            "gapped": period * rng.choice([1, 1, 1, 2, 7], n_triggers - 1),
            "irregular": rng.integers(1, 3 * period, n_triggers - 1),
        }[spacing]
        triggers = int(rng.integers(-10**6, 10**6)) + np.concatenate(([0], np.cumsum(spacings))).astype(np.int64)
        near = rng.choice(triggers, 30) + rng.integers(-1, 2, 30)  # on a trigger, just before or just after
        spread = rng.integers(triggers[0] - 3 * period, triggers[-1] + 3 * period, 60)
        detectors = rng.permutation(np.concatenate((near, spread))).astype(np.int64)
        stream = shuffled_stream(triggers, detectors, rng)

        window = None
        if windowed:
            lo = int(rng.integers(0, 2 * period))
            window = (lo, lo + int(rng.integers(1, 2 * period)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "FOLD_BLOCK_RECORDS", block)
            bin_width = suggest_bin_width(fold_histogram(stream, bin_width_ps=1).period_ps, requested_bin)
            hist = fold_histogram(stream, bin_width_ps=bin_width, window_ps=window)

        bins, counts, dropped = searched_fold(triggers, detectors, hist.period_ps, bin_width, window)
        assert hist.bins.tolist() == bins.tolist()
        assert hist.counts.tolist() == counts.tolist()
        diagnostics = hist.diagnostics
        assert (
            diagnostics.dropped_before_first_trigger,
            diagnostics.dropped_beyond_period,
            diagnostics.dropped_outside_window,
        ) == dropped

    @pytest.mark.parametrize("block", [1, 8, 13])
    @pytest.mark.parametrize("window", [None, (1_000, 600_000_000)])
    def test_blocks_fold_as_one_search_over_all_tags(self, monkeypatch, block, window):
        # Drops of each kind sit in blocks of their own, among shuffled detector tags,
        # over more than three blocks plus a remainder.
        monkeypatch.setattr(analysis, "FOLD_BLOCK_RECORDS", block)
        rng = np.random.default_rng(11)
        triggers = np.arange(1, 13, dtype=np.int64) * PERIOD
        triggers[5] += 2_000  # 2 ppm of jitter; the median spacing stays PERIOD
        delays = rng.integers(0, 2 * PERIOD // 3, 9)  # few delays, so the blocks share bins

        def inside(n):
            return rng.permutation(rng.choice(triggers, n) + rng.choice(delays, n))

        before = rng.integers(0, PERIOD // 2, 6)
        beyond = triggers[-1] + PERIOD + rng.integers(1, PERIOD, 5)
        outside = rng.choice(triggers, 5) + rng.integers(PERIOD * 7 // 10, PERIOD - 4_000, 5)
        groups = [inside(20), before, inside(20), beyond, inside(20), outside, inside(7)]
        detectors = np.concatenate(groups).astype(np.int64)
        stream = shuffled_stream(triggers, detectors, rng)
        assert stream.n_records > 3 * 13 and stream.n_records % 13

        record_block = np.flatnonzero(stream.channels == 1) // block
        ends = np.cumsum([g.size for g in groups])
        blocks_of = [set(record_block[e - g.size : e].tolist()) for g, e in zip(groups, ends)]
        if block > 1:
            assert not blocks_of[1] & blocks_of[3] and not blocks_of[3] & blocks_of[5]

        hist = fold_histogram(stream, bin_width_ps=100, window_ps=window)
        spacings = np.diff(triggers)
        median = float(np.median(spacings))
        bins, counts, dropped = searched_fold(triggers, detectors, PERIOD, 100, window)
        assert hist.period_ps == PERIOD
        assert hist.bins.dtype == hist.counts.dtype == np.int64
        assert (hist.bins.tolist(), hist.counts.tolist()) == (bins.tolist(), counts.tolist())
        assert max(counts) > 1  # tags of different blocks share bins
        diagnostics = hist.diagnostics
        assert (
            diagnostics.dropped_before_first_trigger,
            diagnostics.dropped_beyond_period,
            diagnostics.dropped_outside_window,
        ) == dropped
        assert dropped[:2] == (6, 5) and dropped[2] == (0 if window is None else 5)
        assert diagnostics.dropped_total == sum(dropped)
        jitter = float(max(spacings.max() - median, median - spacings.min()) / median * 1e6)
        assert diagnostics.period_jitter_ppm == jitter
        assert diagnostics.irregular_period == (jitter > analysis.PERIOD_JITTER_WARN_PPM)
        assert hist.total_triggers == triggers.size

    def test_peak_memory_is_bounded_by_triggers_and_one_block(self):
        # 2.2M records, 2M of them detector tags: an array per detector tag would take 16 MB
        rng = np.random.default_rng(5)
        period, n_triggers, n_detectors = 1_000_000, 200_000, 2_000_000
        triggers = np.arange(n_triggers, dtype=np.int64) * period
        detectors = rng.integers(0, n_triggers * period, n_detectors)
        times = np.concatenate((triggers, detectors))
        order = np.argsort(times, kind="stable")
        channels = (order >= n_triggers).astype(np.uint8)
        stream = fx.TagStream(channels=channels, times_ps=times.take(order))
        del times, order, channels
        tracemalloc.start()
        try:
            hist = fold_histogram(stream, bin_width_ps=1_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the triggers twice (1.6 MB each) and one block's temporaries
        assert peak < 8 * 2**20
        assert int(hist.counts.sum()) + hist.diagnostics.dropped_total == n_detectors
        assert hist.n_bins == 1_000 and hist.bins.size == 1_000


class TestBaseline:
    def test_flat(self):
        est = estimate_baseline(np.full(64, 100))
        assert est.level == 100.0
        assert est.noise_scale == pytest.approx(10.0)

    def test_median_ignores_a_spike(self):
        counts = np.full(64, 100)
        counts[10] = 10_000
        assert estimate_baseline(counts).level == 100.0

    def test_all_zero_floor(self):
        est = estimate_baseline(np.zeros(64, dtype=np.int64))
        assert est.level == 0.0
        assert est.noise_scale == 1.0

    def test_requires_16_bins(self):
        with pytest.raises(ParameterError):
            estimate_baseline(np.zeros(15))


def sparse_from(dense, bin_width_ps=100):
    dense = np.asarray(dense, dtype=np.int64)
    bins = np.flatnonzero(dense)
    return analysis.Histogram(
        bins=bins, counts=dense[bins], n_bins=dense.size, bin_width_ps=bin_width_ps,
        period_ps=dense.size * bin_width_ps, total_triggers=1, live_time_s=1e-12 * dense.size * bin_width_ps,
    )


@st.composite
def dense_counts(draw):
    """Random counts: a share of bins occupied by background, plus a few tall bins."""
    n_bins = draw(st.integers(16, 120))
    occupied = draw(st.sampled_from([0.0, 0.1, 0.4, 0.6, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.where(rng.random(n_bins) < occupied, rng.integers(1, 6, n_bins), 0)
    for pos in draw(st.lists(st.integers(0, n_bins - 1), max_size=6)):
        counts[pos] = draw(st.integers(1, 80))
    return counts.tolist()


def gapped(gaps, height=40, edge=5):
    """Tall single bins separated by runs of ``gaps`` empty bins."""
    counts = [0] * edge + [height]
    for gap in gaps:
        counts += [0] * gap + [height]
    return counts + [0] * edge


class TestSparseMatchesDense:
    @settings(max_examples=300, deadline=None)
    @given(
        counts=dense_counts(),
        k_sigma=st.sampled_from([1e-3, 0.5, 2.0, 5.0]),
        min_separation=st.integers(0, 5),
    )
    @example(counts=[0] * 16, k_sigma=5.0, min_separation=3)
    @example(counts=[0] * 17, k_sigma=5.0, min_separation=3)
    @example(counts=list(range(1, 18)), k_sigma=5.0, min_separation=3)  # fully occupied, odd
    @example(counts=list(range(1, 19)), k_sigma=1e-3, min_separation=3)  # fully occupied, even
    @example(counts=[3] * 15 + [0] * 5 + [40] + [0] * 3, k_sigma=1.0, min_separation=3)  # level 3
    @example(counts=[3] * 11 + [0] * 12 + [40], k_sigma=0.1, min_separation=1)  # level (0 + 3) / 2
    @example(counts=[50] + [0] * 30 + [50], k_sigma=5.0, min_separation=3)  # peaks at both ends
    @example(counts=[50, 50] + [0] * 30 + [9, 50], k_sigma=5.0, min_separation=0)
    @example(counts=gapped([2, 3, 4]), k_sigma=5.0, min_separation=3)
    @example(counts=gapped([0, 1, 2, 3]), k_sigma=5.0, min_separation=1)
    @example(counts=gapped([4, 5, 6, 5]) + [1] * 30, k_sigma=2.0, min_separation=5)
    @example(counts=[1, 0] * 20, k_sigma=1e-3, min_separation=1)  # every occupied bin crosses
    def test_baseline_and_peaks(self, counts, k_sigma, min_separation):
        hist = sparse_from(counts)
        dense = hist.dense()
        assert dense.tolist() == counts
        base = estimate_baseline(hist)
        assert np.float64(base.level).tobytes() == np.float64(np.median(dense)).tobytes()
        assert base == estimate_baseline(dense)
        width = hist.bin_width_ps
        assert detect_peaks(hist, base, k_sigma, min_separation) == [
            dataclasses.replace(p, delay_ps=p.delay_ps * width, fwhm_ps=p.fwhm_ps * width)
            for p in detect_peaks(dense, base, k_sigma, min_separation)
        ]

    def test_histogram_peaks_are_in_ps(self):
        hist = sparse_from(gapped([10]))  # 100 ps bins: tall bins 5 and 16
        peaks = detect_peaks(hist, estimate_baseline(hist))
        assert [p.centroid_bins for p in peaks] == [5.5, 16.5]
        assert [p.delay_ps for p in peaks] == [p.centroid_bins * 100 for p in peaks] == [550.0, 1650.0]
        assert [p.fwhm_ps for p in peaks] == [100.0, 100.0]

    def test_histogram_needs_a_positive_threshold(self):
        with pytest.raises(ParameterError, match="threshold"):
            detect_peaks(sparse_from([0] * 16), BaselineEstimate(level=-5.0, noise_scale=1.0))

    def test_analysis_of_a_long_period_never_builds_it_densely(self):
        # seven triggers 1 ms apart fold into a period of 10^7 bins of 100 ps,
        # whose dense counts alone would take 80 MB
        topo = lossless_topology([connector_doc("c", 800.0)])
        triggers = np.arange(7, dtype=np.int64) * PERIOD
        stream = stream_from(triggers, np.concatenate([triggers + 12_345, [500_000, 7]]))
        tracemalloc.start()
        try:
            report = fx.run_otdr_analysis(stream, topo)
            doc = report.to_dict()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert doc["histogram"]["n_bins"] == 10_000_000
        assert doc["histogram"]["total_counts"] == 9
        assert report.baseline.level == 0.0
        assert [p.bin_index for p in report.peaks] == [123]


def gaussian_series(n_bins, centers, amplitudes, sigma_bins, baseline, rng=None):
    x = np.arange(n_bins, dtype=float)
    series = np.full(n_bins, float(baseline))
    for c, a in zip(centers, amplitudes):
        series += a * np.exp(-0.5 * ((x - c) / sigma_bins) ** 2)
    if rng is not None:
        series = rng.poisson(series)
    return np.asarray(series)


class TestDetectPeaks:
    def test_three_gaussians_recovered(self):
        base = BaselineEstimate(level=100.0, noise_scale=10.0)
        series = gaussian_series(4096, [500.3, 1500.7, 3000.5], [5000, 5000, 5000], 2.0, 100.0)
        peaks = detect_peaks(series, base, k_sigma=5.0)
        assert len(peaks) == 3
        for peak, center in zip(peaks, [500.3, 1500.7, 3000.5]):
            assert peak.centroid_bins == pytest.approx(center + 0.5, abs=1.0)

    def test_flat_noise_rarely_alarms(self):
        # false-positive control at 5 sigma over 100 seeded runs
        base_level = 100.0
        empties = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            series = rng.poisson(base_level, size=4096)
            peaks = detect_peaks(series, estimate_baseline(series), k_sigma=5.0)
            empties += not peaks
        assert empties >= 95

    def test_nearby_peaks_merge(self):
        base = BaselineEstimate(level=0.0, noise_scale=1.0)
        series = np.zeros(64)
        series[30] = 50.0
        series[32] = 50.0  # one below-threshold bin between the two spikes
        peaks = detect_peaks(series, base, k_sigma=5.0, min_separation_bins=3)
        assert len(peaks) == 1
        assert peaks[0].centroid_bins == pytest.approx(31.5)

    def test_distant_peaks_stay_separate(self):
        base = BaselineEstimate(level=0.0, noise_scale=1.0)
        series = np.zeros(64)
        series[10] = 50.0
        series[20] = 50.0
        peaks = detect_peaks(series, base, k_sigma=5.0, min_separation_bins=3)
        assert len(peaks) == 2

    def test_plateau_nominal_bin_is_leftmost(self):
        base = BaselineEstimate(level=0.0, noise_scale=1.0)
        series = np.zeros(64)
        series[40:43] = 70.0
        peaks = detect_peaks(series, base, k_sigma=5.0)
        assert peaks[0].bin_index == 40
        assert peaks[0].centroid_bins == pytest.approx(41.5)

    def test_translation_equivariance(self):
        base = BaselineEstimate(level=50.0, noise_scale=np.sqrt(50.0))
        rng = np.random.default_rng(7)
        series = gaussian_series(512, [100.0], [2000.0], 1.5, 50.0, rng)
        for shift in (1, 17, 200):
            rolled = np.roll(series, shift)
            a = detect_peaks(series, base, k_sigma=5.0)
            b = detect_peaks(rolled, base, k_sigma=5.0)
            assert len(a) == len(b) == 1
            assert b[0].centroid_bins - a[0].centroid_bins == pytest.approx(shift, abs=1e-9)

    def test_amplitude_is_background_subtracted(self):
        base = BaselineEstimate(level=100.0, noise_scale=10.0)
        series = np.full(64, 100.0)
        series[20] = 600.0
        peaks = detect_peaks(series, base, k_sigma=5.0)
        assert peaks[0].amplitude_counts == pytest.approx(500.0)
        assert peaks[0].significance_sigma == pytest.approx(50.0)

    def test_rejects_bad_parameters(self):
        base = BaselineEstimate(level=0.0, noise_scale=1.0)
        with pytest.raises(ParameterError):
            detect_peaks(np.zeros(8), base, k_sigma=0.0)
        for k_sigma, message in [(math.inf, "finite"), (math.nan, "finite"), (True, "a number"), ("5", "a number")]:
            with pytest.raises(ParameterError, match=f"^k_sigma must be {message}"):
                detect_peaks(np.zeros(8), base, k_sigma=k_sigma)
        with pytest.raises(ParameterError):
            detect_peaks(np.zeros(8), base, min_separation_bins=-1)


class TestLocalize:
    def test_known_delay(self, three_point_topology):
        peak = Peak(
            bin_index=100000, centroid_bins=100000.5, delay_ps=1e7,
            amplitude_counts=100.0, background_counts=0.0,
            significance_sigma=50.0, fwhm_ps=150.0,
        )
        located = fx.localize([peak], three_point_topology)
        assert located[0].distance_m == pytest.approx(1021.0914782016348, rel=1e-9)
        assert located[0].distance_uncertainty_m > 0

    @pytest.mark.parametrize(
        "indices, distance_m, index",
        [((1.468,), 1021.0, 1.468), ((1.45, 1.49), 500.0, 1.45), ((1.45, 1.49), 1500.0, 1.49)],
        ids=["uniform", "mixed-first-span", "mixed-second-span"],
    )
    def test_distance_uncertainty_is_round_trip_sigma(self, indices, distance_m, index):
        doc = topology_doc()
        doc["spans"] = [
            {"id": f"s{i}", "length_m": 1000.0 if len(indices) > 1 else 5000.0, "group_index": n}
            for i, n in enumerate(indices)
        ]
        topo = fx.load_topology(doc)
        peak = Peak(
            bin_index=0, centroid_bins=0.0, delay_ps=plant.delay_ps_for_distance(topo, distance_m),
            amplitude_counts=100.0, background_counts=0.0,
            significance_sigma=50.0, fwhm_ps=150.0,
        )
        # oracle: sigma_t * c / (2 n), with the Gaussian sigma = FWHM / 2.355
        expected = (150.0 / 2.355) * 299792458.0 * 1e-12 / (2.0 * index)
        assert fx.localize([peak], topo)[0].distance_uncertainty_m == pytest.approx(expected, rel=1e-12)

    def test_zero_delay_is_the_injection_point(self, three_point_topology):
        peak = Peak(
            bin_index=0, centroid_bins=0.0, delay_ps=0.0,
            amplitude_counts=10.0, background_counts=0.0,
            significance_sigma=10.0, fwhm_ps=100.0,
        )
        assert fx.localize([peak], three_point_topology)[0].distance_m == 0.0

    def test_far_end_detector_cannot_localize(self):
        topo = fx.load_topology(topology_doc(victim_end="far"))
        peak = Peak(
            bin_index=0, centroid_bins=0.0, delay_ps=0.0,
            amplitude_counts=10.0, background_counts=0.0,
            significance_sigma=10.0, fwhm_ps=100.0,
        )
        with pytest.raises(ParameterError, match="position-independent"):
            fx.localize([peak], topo)

    def test_matching_rule(self):
        # peak at 1021.09 m vs a connector modeled at 1021 m: the 9 cm gap is
        # inside 3x the distance uncertainty of a 1 ns FWHM peak
        topo = fx.load_topology(topology_doc([connector_doc("mpoX", 1021.0)]))
        peak = Peak(
            bin_index=100000, centroid_bins=100000.5, delay_ps=1e7,
            amplitude_counts=100.0, background_counts=0.0,
            significance_sigma=50.0, fwhm_ps=1000.0,
        )
        located = fx.localize([peak], topo)
        assert located[0].matched_element == "mpoX"
        # with a sharp 150 ps FWHM the same gap is far outside 3 sigma
        sharp = Peak(
            bin_index=100000, centroid_bins=100000.5, delay_ps=1e7,
            amplitude_counts=100.0, background_counts=0.0,
            significance_sigma=50.0, fwhm_ps=150.0,
        )
        assert fx.localize([sharp], topo)[0].matched_element is None


class TestCouplingEstimate:
    def make_fixture(self, amplitude, efficiency=0.85):
        topo = lossless_topology([connector_doc("c", 800.0, insertion_loss_db=0.0)])
        src = fx.PulsedSource(avg_power_w=1e-6)
        det = fx.Detector(efficiency=efficiency)
        from fiberxtalk.plant import delay_ps_for_distance

        delay = delay_ps_for_distance(topo, 800.0)
        peak = Peak(
            bin_index=int(delay // 100), centroid_bins=delay / 100.0, delay_ps=delay,
            amplitude_counts=amplitude, background_counts=0.0,
            significance_sigma=100.0, fwhm_ps=150.0,
        )
        hist = analysis.Histogram(
            bins=np.zeros(0, dtype=np.int64), counts=np.zeros(0, dtype=np.int64),
            n_bins=10_000_000, bin_width_ps=100,
            period_ps=PERIOD, total_triggers=60_000, live_time_s=60.0,
        )
        return peak, hist, topo, src, det

    def test_doubled_amplitude_adds_3db(self):
        peak1, hist, topo, src, det = self.make_fixture(1000.0)
        peak2, *_ = self.make_fixture(2000.0)
        est1 = fx.estimate_coupling_db(peak1, hist, topo, src, det)
        est2 = fx.estimate_coupling_db(peak2, hist, topo, src, det)
        assert est2.coupling_db - est1.coupling_db == pytest.approx(10 * np.log10(2), abs=1e-9)

    def test_halved_efficiency_adds_3db(self):
        peak, hist, topo, src, det_full = self.make_fixture(1000.0)
        det_half = fx.Detector(efficiency=0.425)
        est_full = fx.estimate_coupling_db(peak, hist, topo, src, det_full)
        est_half = fx.estimate_coupling_db(peak, hist, topo, src, det_half)
        assert est_half.coupling_db - est_full.coupling_db == pytest.approx(
            10 * np.log10(2), abs=1e-9
        )

    def test_poisson_uncertainty(self):
        peak, hist, topo, src, det = self.make_fixture(400.0)
        est = fx.estimate_coupling_db(peak, hist, topo, src, det)
        assert est.uncertainty_db == pytest.approx(10 / np.log(10) / 20.0, rel=1e-9)

    def test_rejects_nonpositive_amplitude(self):
        peak, hist, topo, src, det = self.make_fixture(0.0)
        with pytest.raises(ParameterError):
            fx.estimate_coupling_db(peak, hist, topo, src, det)

    def test_closed_loop_simulated_coupling(self):
        topo = fx.load_topology(topology_doc([connector_doc("mpo1", 800.0)]))
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(0.08, -100.0))
        det = fx.Detector()
        stream = fx.simulate_otdr_tags(topo, src, det, 15.0, seed=5)
        report = fx.run_otdr_analysis(stream, topo, source=src, detector=det)
        assert len(report.located) == 1
        assert report.located[0].coupling_db == pytest.approx(-100.0, abs=0.5)
        assert report.located[0].matched_element == "mpo1"


class TestSpectralLines:
    def test_dark_only_scan_has_no_lines(self):
        det = fx.Detector(dark_rate_hz=100.0)
        grid = np.arange(1260.0, 1360.0 + 1e-9, 0.2)
        scan = fx.simulate_spectral_scan([], fx.TunableFilter(), det, grid, 1.0, seed=2)
        assert fx.detect_spectral_lines(scan) == []

    def test_four_itu_lines_recovered(self):
        det = fx.Detector(dark_rate_hz=100.0)
        lines = [fx.LeakLine(nm, 2e5) for nm in (1270.0, 1290.0, 1310.0, 1330.0)]
        grid = np.arange(1260.0, 1360.0 + 1e-9, 0.2)
        scan = fx.simulate_spectral_scan(lines, fx.TunableFilter(), det, grid, 1.0, seed=2)
        found = fx.detect_spectral_lines(scan)
        assert len(found) == 4
        for line, expected_nm in zip(found, (1270.0, 1290.0, 1310.0, 1330.0)):
            assert line.wavelength_nm == pytest.approx(expected_nm, abs=0.2)
            assert line.rate_per_s > 0
            assert line.significance_sigma >= 5.0

    def test_weak_line_below_threshold_not_reported(self):
        det = fx.Detector(dark_rate_hz=100.0)
        lines = [fx.LeakLine(1310.0, 30.0)]  # ~13 detected counts/s at the peak
        grid = np.arange(1260.0, 1360.0 + 1e-9, 0.2)
        scan = fx.simulate_spectral_scan(lines, fx.TunableFilter(), det, grid, 1.0, seed=2)
        assert fx.detect_spectral_lines(scan, k_sigma=5.0) == []

    @pytest.mark.parametrize("n", [0, 1, 15])
    def test_short_scan_is_a_data_error(self, n):
        scan = fx.SpectralScan(wavelengths_nm=1300.0 + np.arange(n, dtype=float), counts=np.full(n, 3), dwell_s=1.0)
        with pytest.raises(DataError, match=f"needs >= 16 scan points, got {n}$"):
            fx.detect_spectral_lines(scan)


class TestRunOtdrAnalysis:
    def test_three_point_closed_loop(self, three_point_topology):
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(0.3, -100.0))
        det = fx.Detector()
        stream = fx.simulate_otdr_tags(three_point_topology, src, det, 20.0, seed=99)
        report = fx.run_otdr_analysis(stream, three_point_topology, source=src, detector=det)
        assert len(report.peaks) == 3
        distances = [loc.distance_m for loc in report.located]
        for got, want in zip(distances, (150.0, 800.0, 2300.0)):
            assert got == pytest.approx(want, abs=0.2)
        assert [loc.matched_element for loc in report.located] == ["mpoA", "mpoB", "mpoC"]

    def test_far_end_reports_without_locations(self):
        topo = fx.load_topology(
            topology_doc([connector_doc("mpo1", 800.0)], victim_end="far")
        )
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(0.1, -100.0))
        det = fx.Detector()
        stream = fx.simulate_otdr_tags(topo, src, det, 5.0, seed=4)
        report = fx.run_otdr_analysis(stream, topo, source=src, detector=det)
        assert report.located == []
        assert any("localization impossible" in note for note in report.notes)

    def test_report_dict_shape(self, three_point_topology):
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(0.1, -100.0))
        det = fx.Detector()
        stream = fx.simulate_otdr_tags(three_point_topology, src, det, 3.0, seed=1)
        doc = fx.run_otdr_analysis(
            stream, three_point_topology, source=src, detector=det
        ).to_dict({"bin_width_ps": 100})
        assert doc["schema_version"] == 1
        assert doc["histogram"]["total_triggers"] == 3000
        assert len(doc["peaks"]) == len(doc["located"]) == 3
        assert doc["parameters"]["bin_width_ps"] == 100
