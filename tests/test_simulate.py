"""Monte Carlo engine: analytic rates, determinism, and counting statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import fiberxtalk as fx
from fiberxtalk.errors import ParameterError, ResourceError
from fiberxtalk.plant import CrosstalkPoint
from fiberxtalk.simulate import (
    MAX_POISSON_MEAN,
    PULSES_PER_CHUNK,
    _apply_dead_time,
    _scan_rates,
    _simulate_chunk,
    _substream,
    point_mu_optical,
)
from fiberxtalk.units import _GAUSSIAN_FWHM_TO_SIGMA, validate_wavelength_nm

from conftest import E_PHOTON_1550_J, channel_times, connector_doc, lossless_topology, power_for_mu_det, topology_doc


class TestExpectedPeakRate:
    def test_textbook_point(self):
        # oracle: 1 uW / 1 kHz at 1550 nm -> 7.80e9 photons per pulse,
        # -100 dB coupling and eta 0.85 -> ~663 counts/s
        topo = lossless_topology()
        src = fx.PulsedSource(avg_power_w=1e-6)
        det = fx.Detector()
        point = CrosstalkPoint(position_m=0.0, coupling_db=-100.0)
        photons_per_pulse = (1e-6 / 1000.0) / E_PHOTON_1550_J
        assert photons_per_pulse == pytest.approx(7.80e9, rel=1e-3)
        expected = 1000.0 * photons_per_pulse * 1e-10 * 0.85
        got = fx.expected_peak_rate(topo, src, det, point)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(663.0, rel=1e-3)

    def test_linear_in_efficiency(self):
        topo = lossless_topology()
        src = fx.PulsedSource(avg_power_w=1e-6)
        point = CrosstalkPoint(position_m=0.0, coupling_db=-100.0)
        full = fx.expected_peak_rate(topo, src, fx.Detector(efficiency=0.85), point)
        half = fx.expected_peak_rate(topo, src, fx.Detector(efficiency=0.425), point)
        assert half == pytest.approx(full / 2.0, rel=1e-12)

    def test_absent_point_rate_is_zero(self):
        topo = lossless_topology()
        src = fx.PulsedSource(avg_power_w=1e-6)
        point = CrosstalkPoint(position_m=0.0, coupling_db=float("-inf"))
        assert fx.expected_peak_rate(topo, src, fx.Detector(), point) == 0.0

    def test_span_loss_included(self):
        topo = fx.load_topology(topology_doc([connector_doc("c", 1000.0)]))
        src = fx.PulsedSource(avg_power_w=1e-6)
        point = fx.crosstalk_points(topo, src.wavelength_nm)[0]
        # 0.2 dB/km over 1 km, out and back
        expected = 1000.0 * src.photons_per_pulse * 10 ** (-(0.2 + 100.0 + 0.2) / 10.0) * 0.85
        assert fx.expected_peak_rate(topo, src, fx.Detector(), point) == pytest.approx(
            expected, rel=1e-12
        )


class TestDeterminism:
    def test_same_seed_same_stream(self, three_point_topology):
        src = fx.PulsedSource(avg_power_w=1e-7)
        det = fx.Detector()
        a = fx.simulate_otdr_tags(three_point_topology, src, det, 2.0, seed=123)
        b = fx.simulate_otdr_tags(three_point_topology, src, det, 2.0, seed=123)
        assert np.array_equal(a.times_ps, b.times_ps)
        assert np.array_equal(a.channels, b.channels)

    def test_different_seed_differs(self, three_point_topology):
        src = fx.PulsedSource(avg_power_w=1e-7)
        det = fx.Detector()
        a = fx.simulate_otdr_tags(three_point_topology, src, det, 2.0, seed=123)
        b = fx.simulate_otdr_tags(three_point_topology, src, det, 2.0, seed=124)
        assert not np.array_equal(a.times_ps, b.times_ps)

    def test_reruns_give_the_same_stream(self, three_point_topology):
        # one chunk at 1 kHz; 200k pulses at 100 kHz span four chunks, with a
        # dead time of five periods sweeping across the chunk edges
        runs = [
            (fx.PulsedSource(avg_power_w=1e-7), fx.Detector(), 3.0),
            (fx.PulsedSource(avg_power_w=1e-5, rep_rate_hz=1e5), fx.Detector(dead_time_ps=50_000_000), 2.0),
        ]
        for src, det, duration in runs:
            first = fx.simulate_otdr_tags(three_point_topology, src, det, duration, seed=9)
            again = fx.simulate_otdr_tags(three_point_topology, src, det, duration, seed=9)
            assert np.array_equal(first.times_ps, again.times_ps)
            assert np.array_equal(first.channels, again.channels)
            assert first.metadata == again.metadata
        assert first.metadata["n_pulses"] >= 3 * PULSES_PER_CHUNK
        assert first.metadata["dropped_dead_time"] > 0

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_chunk_draws_follow_the_documented_order(self, seed):
        # The last chunk of a run one chunk and 1000 pulses long, rebuilt draw
        # by draw; the middle point sends no photons.
        mus, delays = np.array([0.3, 0.0, 0.02]), np.array([1.5e6, 4.0e6, 7.25e6])
        period, sigma, efficiency, dark_mu = 10_000_000, 65.0, 0.85, 0.01
        n_pulses, chunk, n = PULSES_PER_CHUNK + 1000, 1, 1000
        rng = _substream(seed, chunk)
        arrived = rng.poisson(n * np.array([*mus, dark_mu]))
        detected = rng.binomial(arrived[:3], efficiency)
        pulse = PULSES_PER_CHUNK + rng.integers(0, n, int(detected.sum()))
        jitter = rng.normal(np.repeat(delays, detected), sigma)
        dark_pulse = PULSES_PER_CHUNK + rng.integers(0, n, int(arrived[3]))
        dark_phase = np.floor(rng.random(int(arrived[3])) * period)
        want = [int(p) * period + int(np.rint(j)) for p, j in zip(pulse, jitter)]
        want += [int(p) * period + int(f) for p, f in zip(dark_pulse, dark_phase)]

        times, got_arrived, got_detected, darks = _simulate_chunk(
            chunk, n_pulses, seed, period, mus, delays, sigma, efficiency, dark_mu)
        assert times.tolist() == want
        assert got_arrived.tolist() == arrived[:3].tolist()
        assert got_detected.tolist() == detected.tolist()
        assert darks == arrived[3]
        assert detected.sum() > 0 and darks > 0


class TestStreamInvariants:
    def test_trigger_grid(self):
        topo = lossless_topology()
        src = fx.PulsedSource(avg_power_w=1e-9)
        stream = fx.simulate_otdr_tags(topo, src, fx.Detector(dark_rate_hz=0.0), 1.5, seed=1)
        trig = channel_times(stream, 0)
        assert trig.size == 1500
        assert np.array_equal(np.diff(trig), np.full(1499, src.period_ps))

    def test_dead_time_gap_enforced(self):
        topo = lossless_topology([connector_doc("c", 100.0)])
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(0.8, -100.0))
        det = fx.Detector(dead_time_ps=50_000)
        stream = fx.simulate_otdr_tags(topo, src, det, 5.0, seed=7)
        for times in (channel_times(stream, 0), channel_times(stream, 1)):
            assert (np.diff(times) > 0).all()
        gaps = np.diff(channel_times(stream, 1))
        assert gaps.size > 0 and int(gaps.min()) >= det.dead_time_ps

    def test_no_sources_no_detector_tags(self):
        topo = lossless_topology()
        src = fx.PulsedSource(avg_power_w=1e-9)
        stream = fx.simulate_otdr_tags(topo, src, fx.Detector(dark_rate_hz=0.0), 2.0, seed=3)
        assert channel_times(stream, 1).size == 0

    @pytest.mark.parametrize("rep_rate_hz,dead_time_ps,duration", [
        (1000.0, 50_000, 5.0),
        (1e5, 50_000_000, 1.5),
        (1e5, 0, 0.5),
    ])
    def test_metadata_accounts_for_every_candidate(self, rep_rate_hz, dead_time_ps, duration):
        # ~10 detected photons per pulse from a point at 0 m put some of the
        # first pulse's photons before time 0
        topo = lossless_topology([connector_doc("c0", 0.0, coupling_db=-90.0), connector_doc("c", 300.0)])
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(1.0, -100.0, rep_rate_hz=rep_rate_hz),
                              rep_rate_hz=rep_rate_hz)
        det = fx.Detector(dead_time_ps=dead_time_ps, dark_rate_hz=1e4)
        stream = fx.simulate_otdr_tags(topo, src, det, duration, seed=4)
        meta = stream.metadata
        assert meta["n_detector_tags"] == channel_times(stream, 1).size
        assert meta["pulses_per_chunk"] == PULSES_PER_CHUNK
        assert meta["generator"] != "philox"
        points = meta["points"]
        candidates = sum(p["photons_after_efficiency"] for p in points) + meta["n_darks"]
        assert candidates - meta["dropped_negative_time"] - meta["dropped_dead_time"] == meta["n_detector_tags"]
        assert meta["n_darks"] > 0 and meta["dropped_negative_time"] > 0
        # a zero dead time still merges equal stamps, which it counts as dead-time losses
        assert meta["dropped_dead_time"] > 0
        for p in points:
            lam = p["mu_optical_per_pulse"] * meta["n_pulses"]
            assert abs(p["photons_arrived"] - lam) <= 5.0 * math.sqrt(lam)
            kept = det.efficiency * p["photons_arrived"]
            assert abs(p["photons_after_efficiency"] - kept) <= 5.0 * math.sqrt(kept)

    def test_resource_cap(self, three_point_topology):
        src = fx.PulsedSource(avg_power_w=1e-6)
        with pytest.raises(ResourceError):
            fx.simulate_otdr_tags(three_point_topology, src, fx.Detector(), 60.0, seed=1, max_tags=1000)

    def test_rejects_bad_seed_and_duration(self, three_point_topology):
        src = fx.PulsedSource(avg_power_w=1e-6)
        with pytest.raises(ParameterError):
            fx.simulate_otdr_tags(three_point_topology, src, fx.Detector(), 0.0, seed=1)
        with pytest.raises(ParameterError):
            fx.simulate_otdr_tags(three_point_topology, src, fx.Detector(), 1.0, seed=-1)
        with pytest.raises(ParameterError):
            fx.simulate_otdr_tags(three_point_topology, src, fx.Detector(), 1.0, seed=2**64)
        with pytest.raises(ParameterError, match=r"^seed must be an integer in \[0, 2\^64\), got True$"):
            fx.simulate_otdr_tags(three_point_topology, src, fx.Detector(), 1.0, seed=True)
        # a numpy integer is a seed, as it is any other integer argument
        numpy_seeded = fx.simulate_otdr_tags(three_point_topology, src, fx.Detector(), 1.0, seed=np.int64(7))
        seeded = fx.simulate_otdr_tags(three_point_topology, src, fx.Detector(), 1.0, seed=7)
        assert np.array_equal(numpy_seeded.times_ps, seeded.times_ps)
        assert numpy_seeded.metadata == seeded.metadata
        assert type(numpy_seeded.metadata["seed"]) is int

    def test_bright_source_beyond_the_poisson_limit(self, three_point_topology):
        # with no efficiency the cap counts no detections, but 1000 pulses of
        # a 1 TW probe bring ~1e21 photons from the first point
        src, det = fx.PulsedSource(avg_power_w=1e12), fx.Detector(efficiency=0.0)
        point = fx.crosstalk_points(three_point_topology, src.wavelength_nm)[0]
        mean = 1000 * point_mu_optical(three_point_topology, src, point)
        with pytest.raises(ParameterError) as err:
            fx.simulate_otdr_tags(three_point_topology, src, det, 1.0, seed=1)
        assert str(err.value) == (
            f"expected {mean:.3g} photons from the point at 150.0 m in a chunk of 1000 pulses; the limit is 1e+18")
        # darks are not thinned, so max_tags, at most DEFAULT_MAX_TAGS, refuses them long before the limit
        with pytest.raises(ResourceError, match=r"^expected ~1\.57e\+19 tags exceeds the cap of 50000000; shorten the run$"):
            fx.simulate_otdr_tags(lossless_topology(), fx.PulsedSource(avg_power_w=1e-9),
                                  fx.Detector(dark_rate_hz=1.57e17), 100.0, seed=1)

    def test_tag_times_must_fit_int64(self):
        # one pulse whose period ends just below 2^63 ps runs; with a second one it reaches 2^63 ps
        topo = lossless_topology([connector_doc("c", 150.0)])
        src, det = fx.PulsedSource(avg_power_w=1e-24, rep_rate_hz=1e12 / 9e18), fx.Detector(dark_rate_hz=0.0)
        assert src.period_ps == 9 * 10**18
        stream = fx.simulate_otdr_tags(topo, src, det, 9e6, seed=1)
        assert stream.times_ps.tolist() == [0]
        with pytest.raises(ParameterError, match=r"^tag times would reach 1\.8e\+19 ps \(2 pulses 9000000000000000000 "
                                                 r"ps apart, .*an int64 time must stay below 2\^63 ps"):
            fx.simulate_otdr_tags(topo, src, det, 18e6, seed=1)
        # the timing margin counts too: 40 sigmas of 1e18 ps pass 2^63 ps from the first pulse
        with pytest.raises(ParameterError, match=r"^tag times would reach 4e\+19 ps"):
            fx.simulate_otdr_tags(topo, fx.PulsedSource(avg_power_w=1e-24), fx.Detector(jitter_sigma_ps=1e18), 0.1, 1)

    @pytest.mark.parametrize("max_tags", [-1, 0, 1.5])
    def test_rejects_max_tags_below_one(self, three_point_topology, max_tags):
        src = fx.PulsedSource(avg_power_w=1e-6)
        with pytest.raises(ParameterError, match="max_tags must be an integer >= 1"):
            fx.simulate_otdr_tags(three_point_topology, src, fx.Detector(), 1.0, seed=1, max_tags=max_tags)


class TestCountingStatistics:
    def test_counts_match_oracle_without_dead_time(self):
        # dead time 0 keeps detected counts exactly Poisson around the
        # analytic mean; total over seeds stays within 5 sigma
        topo = lossless_topology([connector_doc("c", 500.0)])
        mu_det = 0.05
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(mu_det, -100.0))
        det = fx.Detector(dead_time_ps=0, dark_rate_hz=50.0)
        point = fx.crosstalk_points(topo, src.wavelength_nm)[0]
        rate = fx.expected_peak_rate(topo, src, det, point)
        duration = 4.0
        lam_per_run = (rate + det.dark_rate_hz) * duration
        total = 0
        n_runs = 25
        for seed in range(n_runs):
            stream = fx.simulate_otdr_tags(topo, src, det, duration, seed=seed)
            total += channel_times(stream, 1).size
        lam_total = n_runs * lam_per_run
        assert abs(total - lam_total) <= 5.0 * np.sqrt(lam_total)

    def test_counts_scale_linearly_with_power_and_efficiency(self):
        topo = lossless_topology([connector_doc("c", 500.0)])
        duration, n_runs = 4.0, 12
        base_power = power_for_mu_det(0.04, -100.0)
        configs = [
            (fx.PulsedSource(avg_power_w=base_power), fx.Detector(dead_time_ps=0, dark_rate_hz=0.0)),
            (fx.PulsedSource(avg_power_w=2 * base_power), fx.Detector(dead_time_ps=0, dark_rate_hz=0.0)),
            (fx.PulsedSource(avg_power_w=base_power), fx.Detector(efficiency=0.425, dead_time_ps=0, dark_rate_hz=0.0)),
        ]
        for src, det in configs:
            point = fx.crosstalk_points(topo, src.wavelength_nm)[0]
            lam = fx.expected_peak_rate(topo, src, det, point) * duration * n_runs
            total = sum(
                channel_times(fx.simulate_otdr_tags(topo, src, det, duration, seed=seed), 1).size
                for seed in range(n_runs)
            )
            assert abs(total - lam) <= 5.0 * np.sqrt(lam)

    def test_default_example_with_dead_time_losses(self):
        # 1 uW / -100 dB / 60 s: raw rate 663/s but multiple photons per pulse
        # collapse under the 50 ns dead time; compare against the saturating
        # oracle N*(1-exp(-mu)) plus dark counts corrected for blocked time
        topo = lossless_topology([connector_doc("c", 100.0)])
        src = fx.PulsedSource(avg_power_w=1e-6)
        det = fx.Detector()
        stream = fx.simulate_otdr_tags(topo, src, det, 60.0, seed=11)
        n_pulses = 60_000
        mu_det = point_mu_optical(topo, src, fx.crosstalk_points(topo, src.wavelength_nm)[0]) * det.efficiency
        signal = n_pulses * (1.0 - np.exp(-mu_det))
        blocked_fraction = (signal / 60.0) * det.dead_time_ps * 1e-12
        darks = det.dark_rate_hz * 60.0 * (1.0 - blocked_fraction)
        expected = signal + darks
        got = channel_times(stream, 1).size
        assert abs(got - expected) <= 5.0 * np.sqrt(expected)
        naive = fx.expected_peak_rate(topo, src, det, fx.crosstalk_points(topo, src.wavelength_nm)[0]) * 60.0
        assert got < naive  # dead-time losses are visible at this occupancy

    def test_per_pulse_detections_are_poisson(self):
        # 200k pulses span four chunks; no dead time, no darks, and a 42 ns
        # spread that keeps every photon inside its own 10 us period
        topo = lossless_topology([connector_doc("c", 500.0)])
        mu_det, rep_rate_hz = 0.1, 1e5
        src = fx.PulsedSource(avg_power_w=power_for_mu_det(mu_det, -100.0, rep_rate_hz=rep_rate_hz),
                              rep_rate_hz=rep_rate_hz, pulse_width_ps=1e5)
        det = fx.Detector(dead_time_ps=0, dark_rate_hz=0.0)
        stream = fx.simulate_otdr_tags(topo, src, det, 2.0, seed=20260)
        n = stream.metadata["n_pulses"]
        assert n > 3 * PULSES_PER_CHUNK
        counts = np.bincount(channel_times(stream, 1) // src.period_ps, minlength=n)
        assert counts.size == n
        p0 = math.exp(-mu_det)
        assert abs((counts == 0).mean() - p0) <= 3.0 * math.sqrt(p0 * (1.0 - p0) / n)
        dispersion = counts.var(ddof=1) / counts.mean()
        assert abs(dispersion - 1.0) <= 3.0 * math.sqrt(2.0 / (n - 1))

    def test_dark_phases_are_uniform_over_the_period(self):
        src = fx.PulsedSource(avg_power_w=1e-9, rep_rate_hz=1e5)
        det = fx.Detector(dead_time_ps=0, dark_rate_hz=1e4)
        stream = fx.simulate_otdr_tags(lossless_topology(), src, det, 2.0, seed=20261)
        assert stream.metadata["n_pulses"] > PULSES_PER_CHUNK
        phases = channel_times(stream, 1) % src.period_ps
        assert phases.size == stream.metadata["n_darks"] > 10_000
        counts = np.bincount(phases * 50 // src.period_ps, minlength=50)
        assert stats.chisquare(counts).pvalue > 0.0027  # 3 sigma


def sequential_dead_time(times, dead_time_ps):
    """Reference non-paralyzable sweep: keep a tag when the detector is live again."""
    kept = []
    for t in times:
        if not kept or t - kept[-1] >= max(dead_time_ps, 1):
            kept.append(t)
    return kept


class TestDeadTimeSweep:
    @given(
        period=st.integers(1, 1000),
        tags=st.lists(st.tuples(st.integers(0, 40), st.floats(0.0, 1.0, exclude_max=True)), max_size=120),
        dead_periods=st.floats(0.0, 6.0),
    )
    def test_matches_sequential_sweep(self, period, tags, dead_periods):
        times = np.sort(np.array([pulse * period + int(phase * period) for pulse, phase in tags],
                                 dtype=np.int64))
        dead = int(dead_periods * period)
        got = _apply_dead_time(times, dead)
        assert got.tolist() == sequential_dead_time(times.tolist(), dead)


def per_point_scan(lines, filt, det, grid, dwell, seed):
    """The scan as a loop over points: ``(rates, counts)``, or the first point's error.

    Each rate is summed line by line in Python floats, as the scan was
    before it was vectorized. The counts are one Poisson draw over the means,
    in grid order, from a fresh ``Philox([seed, 0])``.
    """
    for nm in grid:
        validate_wavelength_nm(float(nm))
    sigma = filt.fwhm_nm * _GAUSSIAN_FWHM_TO_SIGMA
    peak = 10.0 ** (-filt.insertion_loss_db / 10.0)
    rates, lams = [], []
    for center in np.asarray(grid, dtype=float):
        rate = det.dark_rate_hz
        for line in lines:
            transmission = peak * math.exp(-0.5 * ((line.wavelength_nm - float(center)) / sigma) ** 2)
            rate += line.rate_photons_per_s * transmission * det.efficiency
        lam = rate * dwell
        if not lam <= MAX_POISSON_MEAN:
            raise ParameterError(f"expected {lam:.3g} counts at {center} nm; the limit is {MAX_POISSON_MEAN:.0e}")
        rates.append(float(rate))
        lams.append(lam)
    return rates, philox_poisson(seed, lams)


def philox_poisson(seed, lams):
    """Counts of one Poisson draw over ``lams`` from a fresh ``Philox([seed, 0])``."""
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).poisson(lams).tolist()


def number(lo, hi):
    """A JSON number: an integer or a float in ``[lo, hi]``."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


@st.composite
def scan_cases(draw):
    start = draw(number(1000.0, 1999.0))
    step = draw(st.floats(0.01, 2.0))
    grid = [start + i * step for i in range(draw(st.integers(1, 24)))]  # may run past 2000 nm
    wavelengths = st.one_of(
        number(1000.0, 2000.0),  # mostly far outside the grid
        st.floats(-3.0, 3.0).map(lambda offset: min(max(start + offset, 1000.0), 2000.0)),
    )
    rates = st.one_of(number(0.0, 1e6), st.floats(0.0, 1e300))
    lines = draw(st.lists(st.builds(fx.LeakLine, wavelengths, rates), max_size=6))
    filt = fx.TunableFilter(fwhm_nm=draw(number(0.01, 20.0)), insertion_loss_db=draw(number(0.0, 30.0)))
    det = fx.Detector(efficiency=draw(number(0.0, 1.0)), dark_rate_hz=draw(st.one_of(st.just(0), number(0.0, 1e6))))
    dwell = draw(st.one_of(st.integers(1, 10), st.floats(1e-3, 100.0)))
    return lines, filt, det, grid, dwell, draw(st.integers(0, 2**64 - 1))


class TestSpectralScan:
    def test_dark_only_scan(self):
        det = fx.Detector(dark_rate_hz=100.0)
        grid = np.arange(1260.0, 1360.0 + 1e-9, 0.5)
        scan = fx.simulate_spectral_scan([], fx.TunableFilter(), det, grid, 1.0, seed=5)
        assert scan.counts.shape == grid.shape
        total = int(scan.counts.sum())
        lam = 100.0 * grid.size
        assert abs(total - lam) <= 5.0 * np.sqrt(lam)

    def test_single_line_peak_shape(self):
        det = fx.Detector(dark_rate_hz=100.0)
        filt = fx.TunableFilter()
        line = fx.LeakLine(wavelength_nm=1310.0, rate_photons_per_s=1e5)
        grid = np.arange(1260.0, 1360.0 + 1e-9, 0.2)
        scan = fx.simulate_spectral_scan([line], filt, det, grid, 1.0, seed=5)
        peak_idx = int(np.argmax(scan.counts))
        assert grid[peak_idx] == pytest.approx(1310.0, abs=0.2)
        # half-maximum points sit one half-FWHM away from the center
        peak_rate = per_point_scan([line], filt, det, [1310.0], 1.0, seed=0)[0][0] - det.dark_rate_hz
        half_idx = int(np.argmin(np.abs(grid - (1310.0 + filt.fwhm_nm / 2))))
        half_counts = scan.counts[half_idx] - det.dark_rate_hz
        assert half_counts == pytest.approx(peak_rate / 2, rel=0.2)

    def test_determinism(self):
        det = fx.Detector()
        grid = np.arange(1260.0, 1360.0 + 1e-9, 0.5)
        a = fx.simulate_spectral_scan([], fx.TunableFilter(), det, grid, 1.0, seed=21)
        b = fx.simulate_spectral_scan([], fx.TunableFilter(), det, grid, 1.0, seed=21)
        assert np.array_equal(a.counts, b.counts)

    def test_counts_match_per_point_oracle(self):
        # the counts are one Poisson draw from a fresh Philox([seed, 0]) over
        # the means, each summed line by line in this order
        det = fx.Detector(dark_rate_hz=37.0, efficiency=0.7)
        filt = fx.TunableFilter(fwhm_nm=0.37, insertion_loss_db=2.7)
        lines = [fx.LeakLine(wavelength_nm=nm, rate_photons_per_s=r)
                 for nm, r in ((1271.3, 3e4), (1290.05, 470.0), (1291.0, 2e6))]
        grid = np.arange(1265.0, 1295.0, 0.02)
        dwell, seed = 0.5, 2**64 - 3
        sigma = filt.fwhm_nm / 2.355
        peak = 10.0 ** (-filt.insertion_loss_db / 10.0)
        lams = []
        for center in grid:
            rate = det.dark_rate_hz
            for line in lines:
                offset = line.wavelength_nm - float(center)
                rate += line.rate_photons_per_s * (peak * math.exp(-0.5 * (offset / sigma) ** 2)) * det.efficiency
            lams.append(rate * dwell)
        want = philox_poisson(seed, lams)
        scan = fx.simulate_spectral_scan(lines, filt, det, grid, dwell, seed=seed)
        assert scan.counts.tolist() == want

    def test_rejects_bad_grid(self):
        det = fx.Detector()
        with pytest.raises(ParameterError):
            fx.simulate_spectral_scan([], fx.TunableFilter(), det, [], 1.0, seed=1)
        with pytest.raises(ParameterError):
            fx.simulate_spectral_scan([], fx.TunableFilter(), det, [1310.0, 1300.0], 1.0, seed=1)
        with pytest.raises(ParameterError):
            fx.simulate_spectral_scan([], fx.TunableFilter(), det, [900.0, 1300.0], 1.0, seed=1)

    @settings(max_examples=200, deadline=None)
    @given(case=scan_cases())
    # Here numpy's z * z and Python's z ** 2 differ in the last bit, and so does the rate.
    @example(case=([fx.LeakLine(1310.071, 470.0)], fx.TunableFilter(), fx.Detector(dark_rate_hz=0.0),
                   [1300.0 + 73 * 0.1], 1.0, 7))
    # A 1e15 Hz dark rate has an ulp of 0.125: of the 24 points only those within ~5.8 sigmas keep their term.
    @example(case=([fx.LeakLine(1310.0, 1e6), fx.LeakLine(1303.0, 3e4)], fx.TunableFilter(),
                   fx.Detector(dark_rate_hz=1e15), [1300.0 + 0.5 * i for i in range(24)], 1.0, 11))
    # The line's scale is half an ulp of the dark rate, so it keeps |z| <= sqrt(2); at z = 0 its term ties.
    @example(case=([fx.LeakLine(1310.0, 2.0**-53)], fx.TunableFilter(insertion_loss_db=0.0),
                   fx.Detector(efficiency=1.0, dark_rate_hz=1.0), [1309.5 + 0.0625 * i for i in range(17)], 1.0, 5))
    def test_matches_the_per_point_loop(self, case):
        lines, filt, det, grid, dwell, seed = case
        try:
            rates, counts = per_point_scan(*case)
        except ParameterError as exc:
            with pytest.raises(ParameterError) as err:
                fx.simulate_spectral_scan(*case)
            assert str(err.value) == str(exc)
            return
        scan = fx.simulate_spectral_scan(*case)
        assert scan.counts.tolist() == counts
        got = _scan_rates(lines, filt, det, np.asarray(grid, dtype=float)).tolist()
        assert [r.hex() for r in got] == [r.hex() for r in rates]

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_stream_is_one_philox_draw(self, seed):
        # Means from 0.3 to ~1e9 counts take both of numpy's Poisson samplers,
        # which read different numbers of uniforms from the stream.
        line, filt, det = fx.LeakLine(1310.0, 2e9), fx.TunableFilter(fwhm_nm=2.0), fx.Detector(dark_rate_hz=0.3)
        grid = np.arange(1300.0, 1320.0, 0.25)
        scan = fx.simulate_spectral_scan([line], filt, det, grid, 1.0, seed=seed)
        rates, _ = per_point_scan([line], filt, det, grid, 1.0, seed)
        assert scan.counts.tolist() == philox_poisson(seed, rates)
        assert scan.metadata["generator"] == "philox-vector"

    @pytest.mark.parametrize("mean", [4.0, 40.0])
    def test_dark_counts_are_poisson(self, mean):
        # Means below and above 10 take numpy's two Poisson samplers.
        grid = np.arange(1000.0, 2000.0, 0.1)
        scan = fx.simulate_spectral_scan([], fx.TunableFilter(), fx.Detector(dark_rate_hz=mean), grid, 1.0, seed=13)
        n = scan.counts.size
        assert n >= 10_000
        counts = scan.counts.astype(float)
        assert abs(counts.mean() - mean) <= 3.0 * math.sqrt(mean / n)
        # The index of dispersion of n Poisson counts is 1 with a standard error of ~sqrt(2 / (n - 1)).
        assert abs(counts.var(ddof=1) / counts.mean() - 1.0) <= 3.0 * math.sqrt(2.0 / (n - 1))

    @pytest.mark.parametrize("k", [1, 7, 40, 79])
    def test_scan_of_a_grid_prefix_is_a_prefix_of_the_scan(self, k):
        line, filt, det = fx.LeakLine(1310.0, 2e9), fx.TunableFilter(fwhm_nm=2.0), fx.Detector(dark_rate_hz=0.3)
        grid = np.arange(1300.0, 1320.0, 0.25)
        whole = fx.simulate_spectral_scan([line], filt, det, grid, 1.0, seed=29)
        part = fx.simulate_spectral_scan([line], filt, det, grid[:k], 1.0, seed=29)
        assert part.counts.tolist() == whole.counts[:k].tolist()

    def test_mean_over_the_limit_names_the_first_point(self):
        # 1310.0, 1310.5 and 1311.0 nm are over the limit; 1309.5 nm is not.
        line, filt, det = fx.LeakLine(1310.5, 1e19), fx.TunableFilter(), fx.Detector()
        grid = np.arange(1308.0, 1313.0, 0.5)
        over = (_scan_rates([line], filt, det, grid) > MAX_POISSON_MEAN).tolist()
        assert over == [False] * 4 + [True] * 3 + [False] * 3
        with pytest.raises(ParameterError) as err:
            fx.simulate_spectral_scan([line], filt, det, grid, 1.0, seed=1)
        mean = float(_scan_rates([line], filt, det, np.array([1310.0]))[0])
        assert str(err.value) == f"expected {mean:.3g} counts at 1310.0 nm; the limit is 1e+18"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_repeated_inf_is_not_increasing(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            fx.simulate_spectral_scan([], fx.TunableFilter(), fx.Detector(), [1300.0, math.inf, math.inf], 1.0, seed=1)

    @pytest.mark.parametrize("grid,bad", [
        ([math.nan], math.nan), ([math.inf], math.inf), ([1300.0, math.inf], math.inf),
        ([999.0, 1300.0], 999.0), ([1300.0, 2000.5, 2100.0], 2000.5),
    ])
    def test_grid_check_names_the_first_bad_point(self, grid, bad):
        with pytest.raises(ParameterError) as want:
            validate_wavelength_nm(bad)
        with pytest.raises(ParameterError) as err:
            fx.simulate_spectral_scan([], fx.TunableFilter(), fx.Detector(), grid, 1.0, seed=1)
        assert str(err.value) == str(want.value)

    def test_one_scan_builds_one_bit_generator(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        grid = np.arange(1300.0, 1310.0, 0.1)
        scan = fx.simulate_spectral_scan([fx.LeakLine(1305.0, 1e4)], fx.TunableFilter(), fx.Detector(), grid, 1.0, seed=3)
        assert scan.counts.size == grid.size
        assert len(built) == 1


class TestModelValidation:
    def test_pulse_width_must_fit_period(self):
        with pytest.raises(ParameterError):
            fx.PulsedSource(avg_power_w=1e-6, rep_rate_hz=1e9, pulse_width_ps=2000.0)

    def test_detector_ranges(self):
        with pytest.raises(ParameterError):
            fx.Detector(efficiency=1.5)
        with pytest.raises(ParameterError):
            fx.Detector(dark_rate_hz=-1.0)
        with pytest.raises(ParameterError):
            fx.Detector(dead_time_ps=-5)

    def test_unrepresentable_rates_rejected(self):
        # infinite photons per pulse times a zero transmission makes a NaN mean
        topo = fx.load_topology(topology_doc([connector_doc("c", 1e305)], length_m=1e306))
        with pytest.raises(ResourceError):
            fx.simulate_otdr_tags(topo, fx.PulsedSource(avg_power_w=1e300), fx.Detector(), 0.01, seed=1)
        with pytest.raises(ParameterError, match="counts at"):
            fx.simulate_spectral_scan([fx.LeakLine(1310.0, 2.0**70)], fx.TunableFilter(), fx.Detector(),
                                      [1310.0], 10.0, seed=1)

    def test_very_narrow_filter(self):
        # z ** 2 overflows a float 1 nm from this filter; the line adds exactly nothing there.
        line, filt, det = fx.LeakLine(1310.0, 1e6), fx.TunableFilter(fwhm_nm=1e-200), fx.Detector()
        far, near = _scan_rates([line], filt, det, np.array([1311.0, 1310.0])).tolist()
        assert far == det.dark_rate_hz
        assert near == det.dark_rate_hz + 1e6 * 10.0 ** -0.3 * det.efficiency
        with pytest.raises(ParameterError, match="sigma underflows"):
            fx.TunableFilter(fwhm_nm=5e-324)

    def test_filter_and_line_validation(self):
        with pytest.raises(ParameterError):
            fx.TunableFilter(fwhm_nm=0.0)
        with pytest.raises(ParameterError):
            fx.LeakLine(wavelength_nm=500.0, rate_photons_per_s=1.0)
        with pytest.raises(ParameterError):
            fx.LeakLine(wavelength_nm=1310.0, rate_photons_per_s=-1.0)
