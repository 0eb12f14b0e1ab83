"""Unit-safe optical power, photon-rate, loss, and time/distance conversions.

Conventions used throughout the package: power in dBm or watts, losses in dB
(attenuation positive, coupling negative), wavelengths in nanometers, time in
picoseconds (integer on the wire), distances in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

C_M_PER_S = 299_792_458.0
H_JOULE_S = 6.62607015e-34
HC_JOULE_M = H_JOULE_S * C_M_PER_S

DEFAULT_GROUP_INDEX = 1.468

# Validated operating range for wavelengths handled by this package.
WAVELENGTH_MIN_NM = 1000.0
WAVELENGTH_MAX_NM = 2000.0

O_BAND_NM = (1260.0, 1360.0)
C_BAND_NM = (1530.0, 1565.0)

# (wavelength_nm, dB/km) anchors for standard single-mode fiber.
DEFAULT_ATTENUATION_TABLE = ((1310.0, 0.35), (1550.0, 0.20))


@dataclass(frozen=True)
class PhysicsConstants:
    """Immutable bundle of the physical constants the conversions rely on."""

    c_m_per_s: float = C_M_PER_S
    h_joule_s: float = H_JOULE_S
    group_index: float = DEFAULT_GROUP_INDEX

    def __post_init__(self):
        if not self.group_index > 1.0:
            raise ParameterError(f"group index must exceed 1, got {self.group_index}")


CONSTANTS = PhysicsConstants()


def _require_finite(value: float, name: str) -> float:
    if type(value) is str:  # float() would parse it; JSON text is not a number
        raise ParameterError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def validate_wavelength_nm(nm: float) -> float:
    """Check a wavelength against the validated operating range and return it."""
    nm = _require_finite(nm, "wavelength_nm")
    if not WAVELENGTH_MIN_NM <= nm <= WAVELENGTH_MAX_NM:
        raise ParameterError(
            f"wavelength {nm} nm outside validated range "
            f"[{WAVELENGTH_MIN_NM:.0f}, {WAVELENGTH_MAX_NM:.0f}] nm"
        )
    return nm


@dataclass(frozen=True)
class Wavelength:
    """A wavelength in nanometers, restricted to the validated range."""

    nm: float

    def __post_init__(self):
        object.__setattr__(self, "nm", validate_wavelength_nm(self.nm))

    @property
    def meters(self) -> float:
        return self.nm * 1e-9


def _as_nm(wavelength: "Wavelength | float") -> float:
    if isinstance(wavelength, Wavelength):
        return wavelength.nm
    return validate_wavelength_nm(wavelength)


@dataclass(frozen=True)
class OpticalPower:
    """Optical power stored in dBm, with a watts view."""

    value_dbm: float

    def __post_init__(self):
        object.__setattr__(self, "value_dbm", _require_finite(self.value_dbm, "value_dbm"))

    @property
    def watts(self) -> float:
        return dbm_to_watts(self.value_dbm)

    @classmethod
    def from_watts(cls, watts: float) -> "OpticalPower":
        return cls(watts_to_dbm(watts))


@dataclass(frozen=True)
class LossDb:
    """A loss (or, when negative, a coupling level) in dB; composes by addition."""

    db: float

    def __post_init__(self):
        object.__setattr__(self, "db", _require_finite(self.db, "db"))

    def __add__(self, other: "LossDb") -> "LossDb":
        return LossDb(self.db + other.db)


def dbm_to_watts(value_dbm: float) -> float:
    """Convert dBm to watts: 1e-3 * 10^(dBm/10)."""
    value_dbm = _require_finite(value_dbm, "value_dbm")
    return 1e-3 * 10.0 ** (value_dbm / 10.0)


def watts_to_dbm(watts: float) -> float:
    """Convert watts to dBm; the power must be strictly positive."""
    watts = _require_finite(watts, "watts")
    if watts <= 0.0:
        raise ParameterError(f"power must be > 0 W to express in dBm, got {watts}")
    return 10.0 * math.log10(watts / 1e-3)


def photon_energy_joules(wavelength_nm: float) -> float:
    """Energy of a single photon, h*c/lambda. Accepts any positive wavelength."""
    wavelength_nm = _require_finite(wavelength_nm, "wavelength_nm")
    if wavelength_nm <= 0.0:
        raise ParameterError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    return HC_JOULE_M / (wavelength_nm * 1e-9)


def photon_rate_per_s(power_w: float, wavelength: "Wavelength | float") -> float:
    """Photon flux p*lambda/(h*c) for power in watts at the given wavelength."""
    power_w = _require_finite(power_w, "power_w")
    if power_w < 0.0:
        raise ParameterError(f"power must be >= 0 W, got {power_w}")
    nm = _as_nm(wavelength)
    return power_w * (nm * 1e-9) / HC_JOULE_M


def required_isolation_db(
    power_dbm: float, max_rate_per_s: float, wavelength: "Wavelength | float"
) -> float:
    """Source-side isolation needed to keep leakage below a target photon rate.

    Computed as 10*log10(source photon rate / max acceptable rate); detector
    efficiency is deliberately excluded (the budget is set at the fiber, not
    at the detector).
    """
    max_rate_per_s = _require_finite(max_rate_per_s, "max_rate_per_s")
    if max_rate_per_s <= 0.0:
        raise ParameterError(f"max photon rate must be > 0, got {max_rate_per_s}")
    source_rate = photon_rate_per_s(dbm_to_watts(power_dbm), wavelength)
    return 10.0 * math.log10(source_rate / max_rate_per_s)


def fiber_loss_db(length_m: float, alpha_db_per_km: float) -> float:
    """Span attenuation alpha * length, with length in m and alpha in dB/km."""
    length_m = _require_finite(length_m, "length_m")
    alpha_db_per_km = _require_finite(alpha_db_per_km, "alpha_db_per_km")
    if length_m < 0.0:
        raise ParameterError(f"length must be >= 0 m, got {length_m}")
    if alpha_db_per_km < 0.0:
        raise ParameterError(f"attenuation must be >= 0 dB/km, got {alpha_db_per_km}")
    return alpha_db_per_km * length_m / 1000.0


def time_to_distance_m(
    delta_t_ps: float,
    group_index: float = DEFAULT_GROUP_INDEX,
    round_trip: bool = True,
) -> float:
    """Convert a time-of-flight to a distance along the fiber.

    With ``round_trip`` the probe travels out on one fiber and back on the
    adjacent one to a co-located detector, so the distance is halved.
    """
    delta_t_ps = _require_finite(delta_t_ps, "delta_t_ps")
    if delta_t_ps < 0.0:
        raise ParameterError(f"time of flight must be >= 0 ps, got {delta_t_ps}")
    group_index = _require_finite(group_index, "group_index")
    if not group_index > 1.0:
        raise ParameterError(f"group index must exceed 1, got {group_index}")
    k = 2.0 if round_trip else 1.0
    return C_M_PER_S * (delta_t_ps * 1e-12) / (k * group_index)


def distance_to_delay_ps(
    distance_m: float,
    group_index: float = DEFAULT_GROUP_INDEX,
    round_trip: bool = True,
) -> float:
    """Inverse of :func:`time_to_distance_m`."""
    distance_m = _require_finite(distance_m, "distance_m")
    if distance_m < 0.0:
        raise ParameterError(f"distance must be >= 0 m, got {distance_m}")
    group_index = _require_finite(group_index, "group_index")
    if not group_index > 1.0:
        raise ParameterError(f"group index must exceed 1, got {group_index}")
    k = 2.0 if round_trip else 1.0
    return distance_m * k * group_index / C_M_PER_S * 1e12
