"""Conversion math against independently computed oracle values."""

import math

import pytest
from hypothesis import given, strategies as st

from fiberxtalk import units
from fiberxtalk.errors import ParameterError

# Independent oracle constants (not taken from the library).
H = 6.62607015e-34
C = 299792458.0
E_1550 = H * C / 1550e-9


class TestPowerConversions:
    def test_zero_dbm_is_one_milliwatt(self):
        assert units.dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_one_dbm(self):
        # oracle: evaluate the defining formula directly
        assert units.dbm_to_watts(1.0) == pytest.approx(1e-3 * 10**0.1, rel=1e-12)
        assert units.dbm_to_watts(1.0) == pytest.approx(1.2589254117941673e-3, rel=1e-12)

    def test_minus_30_dbm_is_a_microwatt(self):
        assert units.dbm_to_watts(-30.0) == pytest.approx(1e-6, rel=1e-12)

    @given(st.floats(min_value=-120.0, max_value=30.0, allow_nan=False))
    def test_round_trip_identity(self, dbm):
        assert units.watts_to_dbm(units.dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)

    def test_watts_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            units.watts_to_dbm(0.0)
        with pytest.raises(ParameterError):
            units.watts_to_dbm(-1e-3)

    def test_optical_power_type_round_trip(self):
        power = units.OpticalPower(1.0)
        assert units.OpticalPower.from_watts(power.watts).value_dbm == pytest.approx(1.0, abs=1e-9)


class TestPhotonRate:
    def test_single_photon_power(self):
        # 1.28158e-19 W is hc/lambda at 1550 nm rounded to six figures
        assert units.photon_rate_per_s(1.28158e-19, 1550.0) == pytest.approx(1.0, rel=1e-5)
        assert units.photon_rate_per_s(E_1550, 1550.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_power(self):
        assert units.photon_rate_per_s(0.0, 1550.0) == 0.0

    def test_one_dbm_rate(self):
        expected = (1e-3 * 10**0.1) * 1550e-9 / (H * C)
        got = units.photon_rate_per_s(1e-3 * 10**0.1, 1550.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(9.823e15, rel=1e-3)

    def test_rejects_wavelength_outside_validated_range(self):
        for nm in (775.0, 999.0, 2001.0):
            with pytest.raises(ParameterError):
                units.photon_rate_per_s(1e-3, nm)

    def test_rejects_negative_power(self):
        with pytest.raises(ParameterError):
            units.photon_rate_per_s(-1e-3, 1550.0)

    def test_wavelength_proportionality_is_exact(self):
        # factor-2 wavelengths give an exactly representable rate ratio
        ratio = units.photon_rate_per_s(2.5e-3, 2000.0) / units.photon_rate_per_s(2.5e-3, 1000.0)
        assert ratio == 2.0
        # 775 nm sits outside the validated operating range, so the 1550/775
        # pair is checked on the underlying photon-energy helper instead
        assert units.photon_energy_joules(775.0) / units.photon_energy_joules(1550.0) == 2.0

    def test_accepts_wavelength_objects(self):
        wl = units.Wavelength(1550.0)
        assert units.photon_rate_per_s(1e-3, wl) == units.photon_rate_per_s(1e-3, 1550.0)


class TestRequiredIsolation:
    def test_one_dbm_hundred_per_second(self):
        # oracle: chain the two formulas independently
        rate = (1e-3 * 10**0.1) * 1550e-9 / (H * C)
        expected = 10 * math.log10(rate / 100.0)
        got = units.required_isolation_db(1.0, 100.0, 1550.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(139.9, abs=0.1)

    def test_rate_equal_to_source_rate_needs_no_isolation(self):
        source_rate = units.photon_rate_per_s(units.dbm_to_watts(1.0), 1550.0)
        assert units.required_isolation_db(1.0, source_rate, 1550.0) == pytest.approx(0.0, abs=1e-9)

    def test_ten_db_more_power_needs_ten_db_more_isolation(self):
        assert units.required_isolation_db(11.0, 100.0, 1550.0) == pytest.approx(149.9, abs=0.1)

    @given(
        st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    )
    def test_shift_invariance(self, power_dbm, shift_db):
        base = units.required_isolation_db(power_dbm, 100.0, 1550.0)
        shifted = units.required_isolation_db(power_dbm + shift_db, 100.0, 1550.0)
        assert shifted - base == pytest.approx(shift_db, abs=1e-9)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ParameterError):
            units.required_isolation_db(1.0, 0.0, 1550.0)


class TestFiberLoss:
    def test_examples(self):
        assert units.fiber_loss_db(0.0, 0.2) == 0.0
        assert units.fiber_loss_db(1000.0, 0.2) == pytest.approx(0.2, rel=1e-12)
        assert units.fiber_loss_db(25_000.0, 0.2) == pytest.approx(5.0, rel=1e-12)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ParameterError):
            units.fiber_loss_db(-1.0, 0.2)
        with pytest.raises(ParameterError):
            units.fiber_loss_db(1.0, -0.2)


class TestTimeToDistance:
    def test_zero(self):
        assert units.time_to_distance_m(0.0, 1.468, round_trip=True) == 0.0

    def test_round_trip_example(self):
        expected = C * 1e7 * 1e-12 / (2 * 1.468)  # oracle arithmetic
        got = units.time_to_distance_m(1e7, 1.468, round_trip=True)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1021.1, abs=0.05)

    def test_one_way_doubles_round_trip(self):
        rt = units.time_to_distance_m(1e7, 1.468, round_trip=True)
        ow = units.time_to_distance_m(1e7, 1.468, round_trip=False)
        assert ow == pytest.approx(2 * rt, rel=1e-12)
        assert ow == pytest.approx(2042.2, abs=0.1)

    @given(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    )
    def test_linearity(self, scale, delta_t):
        direct = units.time_to_distance_m(scale * delta_t, 1.468)
        scaled = scale * units.time_to_distance_m(delta_t, 1.468)
        assert direct == pytest.approx(scaled, rel=1e-9, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            units.time_to_distance_m(-1.0, 1.468)
        with pytest.raises(ParameterError):
            units.time_to_distance_m(1.0, 1.0)


class TestTypes:
    def test_wavelength_range(self):
        assert units.Wavelength(1550.0).nm == 1550.0
        assert units.Wavelength(1000.0).meters == pytest.approx(1e-6, rel=1e-12)
        with pytest.raises(ParameterError):
            units.Wavelength(775.0)

    def test_loss_composition(self):
        total = units.LossDb(0.2) + units.LossDb(0.3)
        assert total.db == pytest.approx(0.5, rel=1e-12)
