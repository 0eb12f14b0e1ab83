"""Photon energy, the validated wavelength range and the delay-to-distance map."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiberxtalk import load_topology, plant, units
from fiberxtalk.errors import InputError, ParameterError

# Independent oracle constant (not taken from the library).
C = 299792458.0


def uniform_plant(group_index=1.468):
    return load_topology(
        {
            "spans": [{"id": "s1", "length_m": 3000.0, "group_index": group_index}],
            "connectors": [],
            "probe": {"fiber": "agg", "end": "near"},
            "victim": {"fiber": "vic", "end": "near"},
        }
    )


class TestPhotonRate:
    def test_wavelength_proportionality_is_exact(self):
        # photons per joule scale with wavelength: 775 nm carries exactly twice the energy of 1550 nm
        assert units.photon_energy_joules(775.0) / units.photon_energy_joules(1550.0) == 2.0


class TestWavelengthRange:
    @pytest.mark.parametrize("nm", [775.0, 999.0, 2001.0])
    def test_rejects_outside_validated_range(self, nm):
        with pytest.raises(ParameterError):
            units.validate_wavelength_nm(nm)

    @pytest.mark.parametrize("nm", [1000.0, 2000.0])
    def test_accepts_range_endpoints(self, nm):
        assert units.validate_wavelength_nm(nm) == nm

    @pytest.mark.parametrize("value", ["1310", True])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(ParameterError):
            units.validate_wavelength_nm(value)


class TestGrid:
    @pytest.mark.parametrize("grid", [[[1300.0, 1310.0]], 1310.0, [[]]])
    def test_rejects_a_grid_that_is_not_one_dimensional(self, grid):
        with pytest.raises(ParameterError, match="^wavelength grid must be one-dimensional$"):
            units.validate_grid_nm(grid)


class TestRequireInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_accepts_integers_and_returns_an_int(self, value):
        result = units.require_int(value, "n", 1)
        assert result == 3 and result.__class__ is int

    @pytest.mark.parametrize("value", [True, np.bool_(True), 3.0, "3", None, 0])
    def test_rejects_the_rest_naming_the_value(self, value):
        with pytest.raises(ParameterError, match=rf"^n must be an integer >= 1, got {re.escape(repr(value))}$"):
            units.require_int(value, "n", 1)


# value, is_int(value), require_number(value) (None: rejected)
NUMBER_TABLE = [
    (True, False, None),
    (0, True, 0.0),
    (np.int64(3), True, 3.0),
    (np.uint8(3), True, 3.0),
    (1.5, False, 1.5),
    (np.float32(1.5), False, 1.5),
    (Fraction(1, 2), False, 0.5),
    (Decimal("1"), False, None),  # the decimal module registers Decimal as a Number, not a Real
    ("1", False, None),
    (None, False, None),
    (math.nan, False, None),
    (math.inf, False, None),
    (10**400, True, None),  # too large for a float
]


class TestNumberRules:
    @pytest.mark.parametrize("value, integer, number", NUMBER_TABLE, ids=[repr(row[0]) for row in NUMBER_TABLE])
    def test_accepts_and_returns_as_before(self, value, integer, number):
        assert units.is_int(value) is integer
        if number is None:
            with pytest.raises(ParameterError, match="^x must be "):
                units.require_number(value, "x")
        else:
            result = units.require_number(value, "x")
            assert result == number and result.__class__ is float


class TestTimeToDistance:
    """``plant.distance_for_delay_ps`` on a uniform plant against closed-form oracles."""

    def test_zero(self):
        assert plant.distance_for_delay_ps(uniform_plant(), 0.0) == 0.0

    def test_round_trip_example(self):
        expected = C * 1e7 * 1e-12 / (2 * 1.468)  # oracle arithmetic
        got = plant.distance_for_delay_ps(uniform_plant(), 1e7)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1021.1, abs=0.05)

    def test_one_way_doubles_round_trip(self):
        # the map reads delays as round trips: the one-way distance light covers is twice it
        rt = plant.distance_for_delay_ps(uniform_plant(), 1e7)
        ow = C * 1e7 * 1e-12 / 1.468  # oracle: one-way closed form
        assert ow == pytest.approx(2 * rt, rel=1e-12)
        assert ow == pytest.approx(2042.2, abs=0.1)

    @given(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    )
    def test_linearity(self, scale, delta_t):
        topo = uniform_plant()
        direct = plant.distance_for_delay_ps(topo, scale * delta_t)
        scaled = scale * plant.distance_for_delay_ps(topo, delta_t)
        assert direct == pytest.approx(scaled, rel=1e-9, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            plant.distance_for_delay_ps(uniform_plant(), -1.0)
        # a topology document states the group index, and the loader reports faults as input faults
        with pytest.raises(InputError, match="group_index"):
            uniform_plant(group_index=1.0)
