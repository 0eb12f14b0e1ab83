"""Unit-safe optical power, photon-rate, loss, and time/distance conversions.

Conventions used throughout the package: power in dBm or watts, losses in dB
(attenuation positive, coupling negative), wavelengths in nanometers, time in
picoseconds (integer on the wire), distances in meters.
"""

from __future__ import annotations

import math
import numbers
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


# Gaussian sigma per unit of full width at half maximum, 1 / (2 sqrt(2 ln 2)).
_GAUSSIAN_FWHM_TO_SIGMA = 1.0 / 2.355


def require_number(value, name: str, *, minimum: float | None = None, strict: bool = False) -> float:
    """Return ``value`` as a finite float, or raise :class:`ParameterError`.

    Booleans, strings, ``None`` and containers are rejected even where
    ``float()`` would accept them. With ``minimum`` the value must be at least
    ``minimum``, or above it when ``strict``.
    """
    # Plain floats skip the type tests: wavelengths are checked ~10^5 times
    # per switch plan.
    if value.__class__ is not float:
        if value.__class__ is not int and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)
        ):
            raise ParameterError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ParameterError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    if minimum is not None and not (value > minimum if strict else value >= minimum):
        raise ParameterError(f"{name} must be {'>' if strict else '>='} {minimum}, got {value!r}")
    return value


def validate_wavelength_nm(nm: float) -> float:
    """Check a wavelength against the validated operating range and return it."""
    nm = require_number(nm, "wavelength_nm")
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
        object.__setattr__(self, "value_dbm", require_number(self.value_dbm, "value_dbm"))

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
        object.__setattr__(self, "db", require_number(self.db, "db"))

    def __add__(self, other: "LossDb") -> "LossDb":
        return LossDb(self.db + other.db)


def dbm_to_watts(value_dbm: float) -> float:
    """Convert dBm to watts: 1e-3 * 10^(dBm/10)."""
    value_dbm = require_number(value_dbm, "value_dbm")
    return 1e-3 * 10.0 ** (value_dbm / 10.0)


def watts_to_dbm(watts: float) -> float:
    """Convert watts to dBm; the power must be strictly positive."""
    watts = require_number(watts, "watts", minimum=0.0, strict=True)
    return 10.0 * math.log10(watts / 1e-3)


def photon_energy_joules(wavelength_nm: float) -> float:
    """Energy of a single photon, h*c/lambda. Accepts any positive wavelength."""
    wavelength_nm = require_number(wavelength_nm, "wavelength_nm", minimum=0.0, strict=True)
    return HC_JOULE_M / (wavelength_nm * 1e-9)


def photon_rate_per_s(power_w: float, wavelength: "Wavelength | float") -> float:
    """Photon flux p*lambda/(h*c) for power in watts at the given wavelength."""
    power_w = require_number(power_w, "power_w", minimum=0.0)
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
    max_rate_per_s = require_number(max_rate_per_s, "max_rate_per_s", minimum=0.0, strict=True)
    source_rate = photon_rate_per_s(dbm_to_watts(power_dbm), wavelength)
    return 10.0 * math.log10(source_rate / max_rate_per_s)


def fiber_loss_db(length_m: float, alpha_db_per_km: float) -> float:
    """Span attenuation alpha * length, with length in m and alpha in dB/km."""
    length_m = require_number(length_m, "length_m", minimum=0.0)
    alpha_db_per_km = require_number(alpha_db_per_km, "alpha_db_per_km", minimum=0.0)
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
    delta_t_ps = require_number(delta_t_ps, "delta_t_ps", minimum=0.0)
    group_index = require_number(group_index, "group_index", minimum=1.0, strict=True)
    k = 2.0 if round_trip else 1.0
    return C_M_PER_S * (delta_t_ps * 1e-12) / (k * group_index)

