"""Folding, baseline, peak detection, localization, and coupling inversion."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fiberxtalk as fx
from fiberxtalk import analysis, plant, simulate
from fiberxtalk.analysis import (
    BaselineEstimate,
    Peak,
    detect_peaks,
    estimate_baseline,
    fold_histogram,
)
from fiberxtalk.errors import DataError, ParameterError

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


def dense(histogram):
    """All ``n_bins`` counts of a histogram as one int64 array."""
    out = np.zeros(histogram.n_bins, dtype=np.int64)
    out[histogram.bins] = histogram.counts
    return out


def searched_fold(triggers, detectors, period, bin_width):
    """Bins, counts and drop counters of a fold by one plain binary search per detector tag."""
    idx = np.searchsorted(triggers, detectors, side="right") - 1
    before = idx < 0
    delays = detectors[~before] - triggers[idx[~before]]
    beyond = delays >= period
    bins, counts = np.unique(delays[~beyond] // bin_width, return_counts=True)
    return bins, counts, (int(before.sum()), int(beyond.sum()), 0)


class TestFoldHistogram:
    def test_single_tag_lands_in_the_right_bin(self):
        stream = stream_from([0, PERIOD], [12_345])
        hist = fold_histogram(stream, bin_width_ps=100)
        assert hist.period_ps == PERIOD
        assert dense(hist)[123] == 1
        assert int(hist.counts.sum()) == 1

    @pytest.mark.parametrize("bin_width", [np.int64(100), np.int32(100)])
    def test_numpy_integer_bin_width_is_accepted(self, bin_width):
        stream = stream_from([0, PERIOD], [12_345])
        assert dense(fold_histogram(stream, bin_width_ps=bin_width))[123] == 1

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

    def test_single_trigger_stream(self):
        # the period is the median trigger spacing, so one trigger defines none
        with pytest.raises(DataError, match="^a period needs two or more trigger events, the stream has 1$") as err:
            fold_histogram(stream_from([0], [123, 456]), bin_width_ps=100)
        assert err.value.code == "E_NO_TRIGGER"

    def test_single_trigger_period_beyond_int64(self):
        # a tag at the largest time and 2^62 ps bins: one trigger is refused before any period arithmetic
        with pytest.raises(DataError, match="^a period needs two or more trigger events, the stream has 1$") as err:
            fold_histogram(stream_from([0], [5, 2**63 - 1]), bin_width_ps=2**62)
        assert err.value.code == "E_NO_TRIGGER"

    def test_non_divisor_bin_width_suggests_a_divisor(self):
        # no divisor is needed: 300 ps bins cut the 1 ms period into 3333333 full bins and a last one of 100 ps
        stream = stream_from([0, PERIOD], [5, 600, PERIOD - 1])
        hist = fold_histogram(stream, bin_width_ps=300)
        assert (hist.period_ps, hist.n_bins, hist.last_bin_width_ps) == (PERIOD, 3_333_334, 100)
        assert (hist.bins.tolist(), hist.counts.tolist()) == ([0, 2, 3_333_333], [1, 1, 1])

    @pytest.mark.parametrize("triggers, detectors", [
        ([0, 9 * 10**18], [5]),  # 9e16 bins of 100 ps
        ([0, 2**63 - 1], [5]),  # the median spacing rounds to a 2^63 ps period, whose last bin is 8 ps
        ([0, (10**8 + 1) * 100], []),
    ])
    def test_period_beyond_bin_cap_is_resource_error(self, triggers, detectors):
        # no cap on the bins: a fold of any number of them holds only the occupied ones
        hist = fold_histogram(stream_from(triggers, detectors), bin_width_ps=100)
        assert (hist.n_bins - 1) * 100 < hist.period_ps <= hist.n_bins * 100
        assert (hist.bins.tolist(), hist.counts.tolist()) == ([0] * len(detectors), [1] * len(detectors))

    def test_bin_width_error_on_a_large_prime_period_is_fast(self):
        # a prime period takes no divisor search: at 100 ps it folds at once, into a last bin of 7 ps
        stream = stream_from([0, 10**8 + 7], [5, 10**8 + 6])  # 10^8 + 7 is prime
        started = time.perf_counter()
        hist = fold_histogram(stream, bin_width_ps=100)
        assert time.perf_counter() - started < 1.0
        assert (hist.n_bins, hist.last_bin_width_ps) == (1_000_001, 7)
        assert hist.bins.tolist() == [0, 1_000_000]

    def test_bin_width_error_past_the_divisor_cap_is_fast(self):
        # 10^15 + 37 ps has no divisor near 10^7 + 1 ps, and needs none: its last bin is 47 ps
        stream = stream_from([0, 10**15 + 37], [5, 10**15 + 36])
        started = time.perf_counter()
        hist = fold_histogram(stream, bin_width_ps=10**7 + 1)
        assert time.perf_counter() - started < 0.5
        assert (hist.n_bins, hist.last_bin_width_ps) == (99_999_991, 47)
        assert hist.bins.tolist() == [0, 99_999_990]

    def test_bin_width_beyond_int64_is_parameter_error(self):
        # the median spacing rounds to a 2^63 ps period, which fits no int64 but folds into int64 bins
        stream = stream_from([0, 2**63 - 1], [5, 2**63 - 2])
        hist = fold_histogram(stream, bin_width_ps=2**40)
        assert (hist.period_ps, hist.n_bins) == (2**63, 2**23)
        assert (hist.bins.tolist(), hist.counts.tolist()) == ([0, 2**23 - 1], [1, 1])
        with pytest.raises(ParameterError, match="at most 9223372036854775807 ps"):
            fold_histogram(stream, bin_width_ps=2**63)
        # 2^63 bins of 1 ps: the last index would pass int64; 2 ps bins take 2^62
        with pytest.raises(ParameterError, match="^a 9223372036854775808 ps period needs 9223372036854775808 bins "
                                                 "of 1 ps, beyond an int64 index$"):
            fold_histogram(stream, bin_width_ps=1)
        assert fold_histogram(stream, bin_width_ps=2).bins.tolist() == [2, 2**62 - 1]

    def test_tags_before_first_trigger_are_dropped_and_counted(self):
        stream = stream_from([1000, 1000 + PERIOD], [5, 999, 1100])
        hist = fold_histogram(stream, bin_width_ps=100)
        assert hist.diagnostics.dropped_before_first_trigger == 2
        assert int(hist.counts.sum()) == 1
        assert dense(hist)[1] == 1  # delay 100 ps

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

    def test_irregular_trigger_spacing_warns_and_uses_median(self):
        triggers = [0, PERIOD, 2 * PERIOD + 5_000, 3 * PERIOD + 5_000]
        stream = stream_from(triggers, [50])
        hist = fold_histogram(stream, bin_width_ps=100)
        assert hist.diagnostics.irregular_period
        assert hist.period_ps == PERIOD

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_triggers=st.integers(2, 40),
        spacing=st.sampled_from(["regular", "jittered", "gapped", "irregular"]),
        requested_bin=st.integers(1, 40),
        block=st.sampled_from([analysis.FOLD_BLOCK_RECORDS, 1, 7]),
    )
    @example(seed=2, n_triggers=2, spacing="regular", requested_bin=1, block=7)
    def test_matches_a_binary_search_for_every_tag(self, seed, n_triggers, spacing, requested_bin, block):
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

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "FOLD_BLOCK_RECORDS", block)
            hist = fold_histogram(stream, bin_width_ps=requested_bin)

        bins, counts, dropped = searched_fold(triggers, detectors, hist.period_ps, requested_bin)
        assert hist.n_bins == math.ceil(hist.period_ps / requested_bin)
        assert hist.bins.tolist() == bins.tolist()
        assert hist.counts.tolist() == counts.tolist()
        diagnostics = hist.diagnostics
        assert (
            diagnostics.dropped_before_first_trigger,
            diagnostics.dropped_beyond_period,
            diagnostics.dropped_outside_window,
        ) == dropped

    @pytest.mark.parametrize("block", [1, 8, 13])
    def test_blocks_fold_as_one_search_over_all_tags(self, monkeypatch, block):
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

        hist = fold_histogram(stream, bin_width_ps=100)
        spacings = np.diff(triggers)
        median = float(np.median(spacings))
        bins, counts, dropped = searched_fold(triggers, detectors, PERIOD, 100)
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
        assert dropped == (6, 5, 0)
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
        full = dense(hist)
        assert full.tolist() == counts
        base = estimate_baseline(hist)
        assert np.float64(base.level).tobytes() == np.float64(np.median(full)).tobytes()
        assert base == estimate_baseline(full)
        width = hist.bin_width_ps
        assert detect_peaks(hist, base, k_sigma, min_separation) == [
            dataclasses.replace(p, delay_ps=p.delay_ps * width, fwhm_ps=p.fwhm_ps * width)
            for p in detect_peaks(full, base, k_sigma, min_separation)
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

    @pytest.mark.parametrize("form", ["dense", "histogram"])
    @pytest.mark.parametrize("min_separation, empty, merged", [
        (0, 0, True), (0, 1, False), (1, 0, True), (1, 1, False), (3, 2, True), (3, 3, False),
    ])
    def test_merge_boundary(self, form, min_separation, empty, merged):
        # two spikes merge exactly when fewer than min_separation_bins empty bins lie between them; adjacent is one run
        counts = gapped([empty])  # spikes at bins 5 and 6 + empty
        series = sparse_from(counts) if form == "histogram" else np.asarray(counts, dtype=float)
        peaks = detect_peaks(series, BaselineEstimate(level=0.0, noise_scale=1.0), 5.0, min_separation)
        second = 6 + empty
        assert [p.run_bins for p in peaks] == ([(5, second)] if merged else [(5, 5), (second, second)])

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
            significance_sigma=50.0, fwhm_ps=150.0, run_bins=(100000, 100000),
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
            significance_sigma=50.0, fwhm_ps=150.0, run_bins=(0, 0),
        )
        # oracle: sigma_t * c / (2 n), with the Gaussian sigma = FWHM / 2.355
        expected = (150.0 / 2.355) * 299792458.0 * 1e-12 / (2.0 * index)
        assert fx.localize([peak], topo)[0].distance_uncertainty_m == pytest.approx(expected, rel=1e-12)

    def test_zero_delay_is_the_injection_point(self, three_point_topology):
        peak = Peak(
            bin_index=0, centroid_bins=0.0, delay_ps=0.0,
            amplitude_counts=10.0, background_counts=0.0,
            significance_sigma=10.0, fwhm_ps=100.0, run_bins=(0, 0),
        )
        assert fx.localize([peak], three_point_topology)[0].distance_m == 0.0

    def test_matching_rule(self):
        # peak at 1021.09 m vs a connector modeled at 1021 m: the 9 cm gap is
        # inside 3x the distance uncertainty of a 1 ns FWHM peak
        topo = fx.load_topology(topology_doc([connector_doc("mpoX", 1021.0)]))
        peak = Peak(
            bin_index=100000, centroid_bins=100000.5, delay_ps=1e7,
            amplitude_counts=100.0, background_counts=0.0,
            significance_sigma=50.0, fwhm_ps=1000.0, run_bins=(100000, 100000),
        )
        located = fx.localize([peak], topo)
        assert located[0].matched_element == "mpoX"
        # with a sharp 150 ps FWHM the same gap is far outside 3 sigma
        sharp = Peak(
            bin_index=100000, centroid_bins=100000.5, delay_ps=1e7,
            amplitude_counts=100.0, background_counts=0.0,
            significance_sigma=50.0, fwhm_ps=150.0, run_bins=(100000, 100000),
        )
        assert fx.localize([sharp], topo)[0].matched_element is None


class TestCouplingEstimate:
    TRIGGERS = 60_000

    def make_fixture(self, counts, efficiency=0.85):
        """A lossless connector at 800 m, and a histogram whose one occupied bin, the peak's, holds ``counts``."""
        topo = lossless_topology([connector_doc("c", 800.0, insertion_loss_db=0.0)])
        src = fx.PulsedSource(avg_power_w=1e-6)
        det = fx.Detector(efficiency=efficiency)
        delay = plant.delay_ps_for_distance(topo, 800.0)
        peak_bin = int(delay // 100)
        peak = Peak(
            bin_index=peak_bin, centroid_bins=delay / 100.0, delay_ps=delay,
            amplitude_counts=float(counts), background_counts=0.0,
            significance_sigma=100.0, fwhm_ps=150.0, run_bins=(peak_bin, peak_bin),
        )
        hist = analysis.Histogram(
            bins=np.array([peak_bin]), counts=np.array([counts]),
            n_bins=10_000_000, bin_width_ps=100,
            period_ps=PERIOD, total_triggers=self.TRIGGERS, live_time_s=60.0,
        )
        return peak, hist, topo, src, det

    @pytest.mark.parametrize("counts", [1000, 2000, 45_000])
    def test_counts_invert_through_self_pile_up(self, counts):
        # no detection falls within the dead time before the peak's one bin, so it opens live and
        # none leave: mu = -ln(1 - N / T), and the bins after it open dead in N of the T pulses
        peak, hist, topo, src, det = self.make_fixture(counts)
        est = fx.estimate_coupling_db(peak, hist, topo, src, det)
        corrected = -self.TRIGGERS * math.log1p(-counts / self.TRIGGERS)
        assert est.corrected_counts == pytest.approx(corrected, rel=1e-12)
        assert est.coupling_db == pytest.approx(
            10 * math.log10(corrected / (self.TRIGGERS * src.photons_per_pulse * det.efficiency)), abs=1e-12)
        assert est.raw_counts == counts
        (loc,) = fx.localize([peak], topo)  # the estimate is the peak's located record, its coupling set
        assert (est.distance_m, est.distance_uncertainty_m, est.matched_element) == (
            loc.distance_m, loc.distance_uncertainty_m, "c")
        assert est.min_live_fraction == pytest.approx(1.0 - counts / self.TRIGGERS, rel=1e-12)
        half = analysis.REGION_SIGMAS * simulate._timing_sigma_ps(src, det) / 100
        assert est.region_bins == (math.floor(peak.centroid_bins - half), math.floor(peak.centroid_bins + half))

    def test_halved_efficiency_adds_3db(self):
        peak, hist, topo, src, det_full = self.make_fixture(1000)
        det_half = fx.Detector(efficiency=0.425)
        est_full = fx.estimate_coupling_db(peak, hist, topo, src, det_full)
        est_half = fx.estimate_coupling_db(peak, hist, topo, src, det_half)
        assert est_half.coupling_db - est_full.coupling_db == pytest.approx(
            10 * np.log10(2), abs=1e-9
        )

    @pytest.mark.parametrize("counts", [400, 30_000])
    def test_binomial_uncertainty(self, counts):
        # N is binomial over the T live pulses: Var(N) = N (1 - N/T), and d(T mu)/dN = 1 / (1 - N/T)
        peak, hist, topo, src, det = self.make_fixture(counts)
        est = fx.estimate_coupling_db(peak, hist, topo, src, det)
        x = counts / self.TRIGGERS
        assert est.coupling_uncertainty_db == pytest.approx(
            10 / np.log(10) * math.sqrt(counts / (1.0 - x)) / est.corrected_counts, rel=1e-12)

    def test_rejects_nonpositive_amplitude(self):
        peak, hist, topo, src, det = self.make_fixture(0)
        with pytest.raises(ParameterError):
            fx.estimate_coupling_db(peak, hist, topo, src, det)

    def test_a_bin_that_every_live_pulse_fills_is_a_data_error(self):
        peak, hist, topo, src, det = self.make_fixture(self.TRIGGERS)
        with pytest.raises(DataError, match="saturates the detector"):
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


def small_histogram():
    """A 1000 ps period of 100 bins of 10 ps, holding 20 counts in bins 2, 50, 51 and 98."""
    return analysis.Histogram(
        bins=np.array([2, 50, 51, 98]), counts=np.array([3, 4, 8, 5]), n_bins=100, bin_width_ps=10,
        period_ps=1000, total_triggers=100, live_time_s=1e-7,
    )


@pytest.mark.parametrize("bin_index, dead_time_ps, expected", [
    # (500, 600): bins 50 and 51; the start passes bin 50 as bin 60 is read
    (60, 100, (12.0, 4.0)),
    # two whole periods end where bin 51 opens: its own counts of two periods back leave as it is read
    (51, 2000, (40.0, 8.0)),
    # one period and 25 ps, (495 - 1000, 520): the whole period, then half of bin 50 and bin 51;
    # the start passes bin 50's second half and bin 51's first, 2.5 counts on average
    (52, 1015, (30.0, 5.0)),
    # (-20, 30) wraps past the period's end: bin 98, then bin 2
    (3, 50, (8.0, 5.0)),
    # a dead time shorter than a bin: the 5 ps before bin 50's centre hold half of it, and none leave
    (50, 5, (2.0, 0.0)),
], ids=["below-period", "whole-periods", "remainder-inside-bins", "wraps", "below-bin"])
def test_dead_time_counts_on_a_hand_built_histogram(bin_index, dead_time_ps, expected):
    bins = range(bin_index, bin_index + 1)
    own, dead, leaving = analysis.dead_time_counts(small_histogram(), bins, dead_time_ps)
    assert own == [{50: 4, 51: 8}.get(bin_index, 0)]
    assert (dead[0], leaving[0]) == expected


@pytest.mark.parametrize("bins, dead_time_ps", [(range(0, 6), 50), (range(45, 56), 1015), (range(96, 100), 2000)])
def test_dead_time_counts_of_a_run_of_bins_are_those_of_each_bin(bins, dead_time_ps):
    # a run's windows are read one bin after another, and wrap at the period's end partway
    histogram = small_histogram()
    singles = [analysis.dead_time_counts(histogram, range(b, b + 1), dead_time_ps) for b in bins]
    assert analysis.dead_time_counts(histogram, bins, dead_time_ps) == tuple(
        [part[0] for part in column] for column in zip(*singles))


def short_bin_histogram():
    """A 1003 ps period of 100 bins of 10 ps and a last one of 3 ps, holding 35 counts in seven bins."""
    return analysis.Histogram(
        bins=np.array([0, 2, 50, 51, 98, 99, 100]), counts=np.array([2, 3, 4, 8, 5, 6, 7]), n_bins=101,
        bin_width_ps=10, period_ps=1003, total_triggers=100, live_time_s=1.003e-7,
    )


def spread_dead_time_counts(histogram, bins, dead_time_ps):
    """``dead_time_counts`` from the 1 ps expansion of ``histogram``, each bin's counts spread evenly over its width."""
    period = histogram.period_ps
    edges = np.minimum(np.arange(histogram.n_bins + 1) * histogram.bin_width_ps, period)
    per_ps = np.repeat(dense(histogram) / np.diff(edges), np.diff(edges))
    cumulative = np.concatenate(([0.0], np.cumsum(per_ps)))

    def below(x):  # the counts below x ps, unwrapped over periods
        turn, phase = divmod(x, period)
        ps = int(phase)
        return turn * cumulative[-1] + cumulative[ps] + (phase - ps) * per_ps[ps]

    own, dead, leaving = [], [], []
    for b in bins:
        own.append(int(dense(histogram)[b]))
        if dead_time_ps < histogram.bin_width_ps:
            centre = (edges[b] + edges[b + 1]) / 2
            dead.append(below(centre) - below(centre - dead_time_ps))
            leaving.append(0.0)
            continue
        start, end = int(edges[b]) - dead_time_ps, int(edges[b + 1]) - dead_time_ps
        dead.append(below(edges[b]) - below(start))
        # the count below the window's start is linear within each ps, so its mean over the sweep is exact
        mean = sum(below(y) + below(y + 1) for y in range(start, end)) / (2 * (end - start))
        leaving.append(2.0 * (mean - below(start)))
    return own, dead, leaving


@pytest.mark.parametrize("bins", [range(0, 5), range(48, 53), range(96, 101)], ids=["first", "middle", "last"])
@pytest.mark.parametrize("dead_time_ps", [5, 18, 250, 2 * 1003 + 17],
                         ids=["below-bin", "passes-the-short-bin", "bins", "periods-and-rest"])
def test_dead_time_counts_on_a_short_last_bin_match_the_spread_counts(bins, dead_time_ps):
    # 18 ps: the window's start sweeps from 995 ps past the 3 ps bin into the next period
    own, dead, leaving = analysis.dead_time_counts(short_bin_histogram(), bins, dead_time_ps)
    want_own, want_dead, want_leaving = spread_dead_time_counts(short_bin_histogram(), bins, dead_time_ps)
    assert own == want_own
    assert dead == pytest.approx(want_dead, rel=1e-12, abs=1e-12)
    assert leaving == pytest.approx(want_leaving, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("q, opening", [(0.0, 1.0), (1e-9, 0.7), (0.3, 0.9), (0.6, 0.61)])
def test_pile_up_inversion_limits(q, opening):
    # nothing leaving: -ln(1 - q / opening); a bin's own detections leaving as they arrive: q / opening
    m, slope = analysis._invert_pile_up(q, opening, 0.0)
    assert m == pytest.approx(-math.log1p(-q / opening), rel=1e-12, abs=1e-300)
    assert slope == pytest.approx(opening - q, rel=1e-12)
    m, _ = analysis._invert_pile_up(q, opening, q)
    assert m == pytest.approx(q / opening, rel=1e-9, abs=1e-300)


def test_pile_up_inversion_converges_where_rounding_dominates():
    # a bin in a peak's tail, one count in 1.6e7 pulses, while the dead window's start crosses the peak:
    # a relative step test never passed here, as the steps turned to rounding noise around 1e-17
    q, opening, leaving = 6.300828377302152e-08, 0.27515694404492974, 0.023040776234534568
    m, slope = analysis._invert_pile_up(q, opening, leaving)
    assert opening * -math.expm1(-m) + leaving * (1.0 + math.expm1(-m) / m) == pytest.approx(q, rel=1e-9)
    assert slope == pytest.approx(opening + leaving / 2, rel=1e-6)


# (rep rate Hz, dead time ps): 50 ns at 1 kHz; exactly five 10 us periods at 100 kHz; five periods plus
# 2.37 bins of 100 ps, so the dead window's start falls inside a bin.
# 0 and 50 ps are shorter than a 100 ps bin, so their couplings take mu = q / live, not the pile-up inverse
DEAD_TIME_CASES = {"50ns@1kHz": (1000.0, 50_000), "5P@100kHz": (100_000.0, 50_000_000),
                   "5P+237ps@100kHz": (100_000.0, 50_000_237), "0@1kHz": (1000.0, 0), "50ps@1kHz": (1000.0, 50)}
CALIBRATION_SEEDS = (11, 12, 13)


@pytest.mark.parametrize("mu", [0.01, 0.08, 0.3, 0.66])
@pytest.mark.parametrize("case", sorted(DEAD_TIME_CASES))
def test_coupling_is_unbiased_through_pile_up_and_dead_time(case, mu):
    """One lossless -100 dB point at ``mu`` detected photons per pulse: the mean error over three seeds
    lies within three stated sigmas of that mean. The linear estimator missed by -1.3 dB at 50 ns
    (self pile-up) and by -6.3 and -6.7 dB at five periods, at mu = 0.66."""
    rep_rate_hz, dead_time_ps = DEAD_TIME_CASES[case]
    topo = lossless_topology([connector_doc("c", 500.0)])
    src = fx.PulsedSource(avg_power_w=power_for_mu_det(mu, -100.0, rep_rate_hz=rep_rate_hz),
                          rep_rate_hz=rep_rate_hz)
    det = fx.Detector(dead_time_ps=dead_time_ps)
    errors, variances = [], []
    for seed in CALIBRATION_SEEDS:
        stream = fx.simulate_otdr_tags(topo, src, det, 20_000 / rep_rate_hz, seed)
        report = fx.run_otdr_analysis(stream, topo, source=src, detector=det)
        (loc,) = report.located
        errors.append(loc.coupling_db + 100.0)
        variances.append(loc.coupling_uncertainty_db ** 2)
    bias, sigma = np.mean(errors), math.sqrt(sum(variances)) / len(errors)
    assert abs(bias) <= 3.0 * sigma, (errors, sigma)


FILTER_SIGMA_NM = fx.TunableFilter().fwhm_nm * analysis._GAUSSIAN_FWHM_TO_SIGMA
SPECTRAL_SEEDS = tuple(range(301, 321))


def windows(grid, centres):
    """Start and values of each centre's default-filter profile over +-FIT_WINDOW_SIGMAS of it."""
    reach = analysis.FIT_WINDOW_SIGMAS * FILTER_SIGMA_NM
    starts = np.searchsorted(grid, np.asarray(centres) - reach, "left")
    ends = np.searchsorted(grid, np.asarray(centres) + reach, "right")
    return starts, [np.exp(-0.5 * ((grid[s:e] - c) / FILTER_SIGMA_NM) ** 2) for s, e, c in zip(starts, ends, centres)]


def dense_poisson_fit(counts, starts, profiles):
    """Fisher scoring over the dense points x (columns + 1) design matrix, from a flat start, for 100 steps."""
    design = np.zeros((counts.size, len(profiles) + 1))
    design[:, -1] = 1.0
    for k, (start, profile) in enumerate(zip(starts, profiles)):
        design[start:start + profile.size, k] = profile
    theta = np.zeros(len(profiles) + 1)
    theta[-1] = counts.mean()
    for _ in range(100):
        mu = design @ theta
        info = design.T @ (design / mu[:, None])
        step = np.linalg.solve(info, design.T @ (counts / mu - 1.0))
        while ((design @ (theta + step)) <= 0.0).any():
            step = 0.5 * step
        theta = theta + step
    return theta[:-1], theta[-1], np.linalg.inv(design.T @ (design / (design @ theta)[:, None]))


# 400 points of 0.05 nm: a line 0.5 nm (1.5 sigma) inside each end, so its window is cut by the grid, and
# two pairs whose windows overlap, 2.35 and 11.8 filter sigmas apart
FIT_GRID = 1300.0 + 0.05 * np.arange(400)
FIT_CENTRES = [1300.5, 1306.0, 1306.8, 1310.0, 1314.0, 1319.45]
FIT_AMPLITUDES = np.array([50.0, 400.0, 30.0, 2000.0, 150.0, 80.0])
FIT_BACKGROUND = 5.0


class TestPoissonFit:
    def test_noiseless_round_trip(self):
        starts, profiles = windows(FIT_GRID, FIT_CENTRES)
        means = np.full(FIT_GRID.size, FIT_BACKGROUND)
        for start, profile, amplitude in zip(starts, profiles, FIT_AMPLITUDES):
            means[start:start + profile.size] += amplitude * profile
        amplitudes, background, covariance = fx.fit_poisson_amplitudes(means, starts, profiles)
        np.testing.assert_allclose(amplitudes, FIT_AMPLITUDES, rtol=1e-9)
        assert background == pytest.approx(FIT_BACKGROUND, rel=1e-9)
        assert covariance.shape == (7, 7)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_windowed_fit_equals_dense_fit(self, seed):
        starts, profiles = windows(FIT_GRID, FIT_CENTRES)
        assert starts[0] == 0 and starts[-1] + profiles[-1].size == FIT_GRID.size  # both end windows are cut
        means = np.full(FIT_GRID.size, FIT_BACKGROUND)
        for start, profile, amplitude in zip(starts, profiles, FIT_AMPLITUDES):
            means[start:start + profile.size] += amplitude * profile
        counts = np.random.default_rng(seed).poisson(means)
        amplitudes, background, covariance = fx.fit_poisson_amplitudes(counts, starts, profiles)
        ref_amplitudes, ref_background, ref_covariance = dense_poisson_fit(counts.astype(float), starts, profiles)
        np.testing.assert_allclose(amplitudes, ref_amplitudes, rtol=1e-9)
        assert background == pytest.approx(ref_background, rel=1e-9)
        np.testing.assert_allclose(covariance, ref_covariance, rtol=1e-9, atol=1e-9 * np.abs(ref_covariance).max())

    def test_no_column_is_the_mean_without_a_fit(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", None)  # any fit step would fail
        amplitudes, background, covariance = fx.fit_poisson_amplitudes([3, 5, 4, 8], [], [])
        assert amplitudes.size == 0
        assert background == 5.0
        assert covariance.tolist() == [[1.25]]

    def test_zero_background_converges(self):
        # with no dark count the background's optimum is 0: each step halves it, until it counts as converged
        starts, profiles = windows(FIT_GRID, [1310.0])
        counts = np.zeros(FIT_GRID.size)
        counts[starts[0]:starts[0] + profiles[0].size] = np.round(300.0 * profiles[0])
        amplitudes, background, _ = fx.fit_poisson_amplitudes(counts, starts, profiles)
        assert amplitudes[0] == pytest.approx(300.0, rel=1e-3)
        assert 0.0 < background < 1e-15

    @pytest.mark.parametrize("starts, sizes", [([0], [0]), ([-1], [3]), ([398], [3]), ([0, 5], [3])])
    def test_window_outside_the_counts_is_parameter_error(self, starts, sizes):
        with pytest.raises(ParameterError, match="each column needs"):
            fx.fit_poisson_amplitudes(np.ones(400), starts, [np.ones(n) for n in sizes[:1]])


class TestSpectralLines:
    FILTER = fx.TunableFilter()

    def test_dark_only_scan_has_no_lines(self):
        det = fx.Detector(dark_rate_hz=100.0)
        grid = np.arange(1260.0, 1360.0 + 1e-9, 0.2)
        scan = fx.simulate_spectral_scan([], self.FILTER, det, grid, 1.0, seed=2)
        report = fx.detect_spectral_lines(scan, self.FILTER, det)
        assert report.lines == []
        assert report.background_counts_per_point == scan.counts.mean()

    def test_four_itu_lines_recovered(self):
        det = fx.Detector(dark_rate_hz=100.0)
        lines = [fx.LeakLine(nm, 2e5) for nm in (1270.0, 1290.0, 1310.0, 1330.0)]
        grid = np.arange(1260.0, 1360.0 + 1e-9, 0.2)
        scan = fx.simulate_spectral_scan(lines, self.FILTER, det, grid, 1.0, seed=2)
        found = fx.detect_spectral_lines(scan, self.FILTER, det).lines
        assert len(found) == 4
        for line, expected_nm in zip(found, (1270.0, 1290.0, 1310.0, 1330.0)):
            assert line.wavelength_nm == pytest.approx(expected_nm, abs=0.2)
            assert line.rate_per_s > 0
            assert line.significance_sigma >= 5.0

    def test_weak_line_below_threshold_not_reported(self):
        det = fx.Detector(dark_rate_hz=100.0)
        lines = [fx.LeakLine(1310.0, 30.0)]  # ~13 detected counts/s at the peak
        grid = np.arange(1260.0, 1360.0 + 1e-9, 0.2)
        scan = fx.simulate_spectral_scan(lines, self.FILTER, det, grid, 1.0, seed=2)
        assert fx.detect_spectral_lines(scan, self.FILTER, det, k_sigma=5.0).lines == []

    @pytest.mark.parametrize("n", [0, 1, 15])
    def test_short_scan_is_a_data_error(self, n):
        scan = fx.SpectralScan(wavelengths_nm=1300.0 + np.arange(n, dtype=float), counts=np.full(n, 3), dwell_s=1.0)
        with pytest.raises(DataError, match=f"needs >= 16 scan points, got {n}$"):
            fx.detect_spectral_lines(scan, self.FILTER, fx.Detector())

    def test_closed_loop_through_detection(self):
        """Lines of 30, 470 and 5000 photons/s, 12 filter sigmas apart so their windows overlap, over 100 s
        points and a 10 Hz dark rate, at which every line clears 5 sigma: each line is found within 0.1 nm,
        and its mean leaked rate over the seeds lies within three stated sigmas of the planted one. The
        above-threshold area read the 30 photons/s line 6 % low, about 19 of those sigmas."""
        det = fx.Detector(dark_rate_hz=10.0)
        grid = np.round(np.arange(1300.0, 1330.0 + 1e-9, 0.1), 6)
        planted = [(round(1305.0 + 12 * k * FILTER_SIGMA_NM, 6), rate) for k, rate in enumerate((30.0, 470.0, 5000.0))]
        lines = [fx.LeakLine(nm, rate) for nm, rate in planted]
        fits = []
        for seed in SPECTRAL_SEEDS:
            scan = fx.simulate_spectral_scan(lines, self.FILTER, det, grid, 100.0, seed)
            found = fx.detect_spectral_lines(scan, self.FILTER, det).lines
            assert [line.wavelength_nm for line in found] == pytest.approx([nm for nm, _ in planted], abs=0.1)
            fits.append([(line.line_rate_photons_per_s, line.line_rate_uncertainty_photons_per_s) for line in found])
        for (_, rate), column in zip(planted, np.array(fits).transpose(1, 0, 2)):
            bias, sigma = column[:, 0].mean() - rate, math.sqrt((column[:, 1] ** 2).sum()) / len(column)
            assert abs(bias) <= 3.0 * sigma, (rate, bias, sigma)

    def test_closed_loop_deblends_lines_under_3_sigma(self):
        """Lines of 30, 470 and 5000 photons/s, 2.5 filter sigmas apart, fitted at their planted centres:
        each mean amplitude lies within three stated sigmas of the planted one. Detection at 5 sigma
        reports such lines as one, and its centroids of lines this close are pulled together."""
        det = fx.Detector(dark_rate_hz=10.0)
        grid = np.round(np.arange(1300.0, 1320.0 + 1e-9, 0.1), 6)
        centres = [round(1308.0 + 2.5 * k * FILTER_SIGMA_NM, 6) for k in range(3)]
        rates = (30.0, 470.0, 5000.0)
        lines = [fx.LeakLine(nm, rate) for nm, rate in zip(centres, rates)]
        starts, profiles = windows(grid, centres)
        per_photon = 100.0 * 10.0 ** (-self.FILTER.insertion_loss_db / 10.0) * det.efficiency
        fits = []
        for seed in SPECTRAL_SEEDS:
            scan = fx.simulate_spectral_scan(lines, self.FILTER, det, grid, 100.0, seed)
            amplitudes, _, covariance = fx.fit_poisson_amplitudes(scan.counts, starts, profiles)
            fits.append((amplitudes / per_photon, np.sqrt(np.diag(covariance)[:-1]) / per_photon))
        fits = np.array(fits)
        for k, rate in enumerate(rates):
            bias, sigma = fits[:, 0, k].mean() - rate, math.sqrt((fits[:, 1, k] ** 2).sum()) / len(fits)
            assert abs(bias) <= 3.0 * sigma, (rate, bias, sigma)


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

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_three_point_couplings_through_loss(self, three_point_topology, seed):
        # 0.35 dB/km at 1310 nm and 0.3 dB a connector lie on each way to every point; the inversion adds them back
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(0.3, -100.0), wavelength_nm=1310.0)
        det = fx.Detector()
        stream = fx.simulate_otdr_tags(three_point_topology, src, det, 20.0, seed=seed)
        report = fx.run_otdr_analysis(stream, three_point_topology, source=src, detector=det)
        assert [loc.matched_element for loc in report.located] == ["mpoA", "mpoB", "mpoC"]
        for loc in report.located:
            assert abs(loc.coupling_db + 100.0) < 3.0 * loc.coupling_uncertainty_db, loc

    @pytest.mark.parametrize("period_ps, length_m, position_m, coupling_db, seed", [
        (1_000_003, 90.0, 40.0, -70.0, 41),
        (999_999_937, 5000.0, 800.0, -100.0, 42),
    ], ids=["1MHz", "1kHz"])
    def test_prime_period_closed_loop(self, period_ps, length_m, position_m, coupling_db, seed):
        # a prime period at 100 ps bins: every bin is full but the last
        rate = 1e12 / period_ps
        topo = fx.load_topology(topology_doc([connector_doc("mpo1", position_m, coupling_db)], length_m=length_m))
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(0.3, coupling_db, rep_rate_hz=rate), rep_rate_hz=rate)
        det = fx.Detector()
        stream = fx.simulate_otdr_tags(topo, src, det, 20_000 / rate, seed=seed)
        report = fx.run_otdr_analysis(stream, topo, source=src, detector=det)
        hist = report.histogram
        last = period_ps % 100
        assert (hist.period_ps, hist.n_bins, hist.last_bin_width_ps) == (period_ps, period_ps // 100 + 1, last)
        assert report.notes == [f"the {period_ps} ps period ends in a bin of {last} ps, not 100 ps: it holds less "
                                "background, and a peak that reaches it is centred on full-width bin centres"]
        (loc,) = report.located
        assert loc.matched_element == "mpo1"
        assert abs(loc.distance_m - position_m) < 3.0 * loc.distance_uncertainty_m, loc
        assert abs(loc.coupling_db - coupling_db) < 3.0 * loc.coupling_uncertainty_db, loc

    def test_a_saturated_peak_is_noted_without_a_coupling(self):
        # a detection in the same bin of every pulse: no live fraction explains it
        topo = lossless_topology([connector_doc("c", 800.0)])
        delay = int(plant.delay_ps_for_distance(topo, 800.0))
        triggers = np.arange(200, dtype=np.int64) * PERIOD
        stream = stream_from(triggers, triggers + delay)
        src = fx.PulsedSource(avg_power_w=1e-6)
        report = fx.run_otdr_analysis(stream, topo, source=src, detector=fx.Detector())
        (loc,) = report.located
        assert loc.matched_element == "c" and loc.coupling_db is None and loc.corrected_counts is None
        assert report.notes == [f"the peak at bin {delay // 100} saturates the detector: no live fraction inverts "
                                "its counts; its coupling is not estimated"]

    def test_a_route_beyond_the_period_is_noted(self):
        # a 1 us period reaches ~102 m of a 1 km route: the connector at 150 m folds back to ~48 m, unmatched
        rate = 1e6
        topo = fx.load_topology(topology_doc([connector_doc("mpo1", 150.0, -70.0)], length_m=1000.0))
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(0.3, -70.0, rep_rate_hz=rate), rep_rate_hz=rate)
        det = fx.Detector()
        stream = fx.simulate_otdr_tags(topo, src, det, 20_000 / rate, seed=41)
        report = fx.run_otdr_analysis(stream, topo, source=src, detector=det)
        reach = plant.distance_for_delay_ps(topo, 1_000_000)
        assert 100.0 < reach < 105.0
        assert report.notes == [f"the 1000000 ps period reaches {reach:.1f} m of the 1000.0 m route: a point farther "
                                "out folds back by whole periods and is reported nearer than it lies"]
        (loc,) = report.located
        assert loc.matched_element is None
        assert loc.distance_m == pytest.approx(150.0 - reach, abs=1.0)

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
