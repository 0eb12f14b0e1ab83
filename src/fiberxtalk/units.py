"""Physical constants, unit conventions, and the one number and integer checkers.

Conventions used throughout the package: power in dBm or watts, losses in dB
(attenuation positive, coupling negative), wavelengths in nanometers, time in
picoseconds (integer on the wire), distances in meters. Every numeric input
passes through :func:`require_number`, every integer one (a count, a port, a
lane, a bin width, a seed) follows :func:`is_int`, most through
:func:`require_int`, every wavelength the package models passes through
:func:`validate_wavelength_nm` and every grid through :func:`validate_grid_nm`.
Delays map to distances along the plant in :mod:`fiberxtalk.plant`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

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
    # numbers.Real is an ABC, whose check costs ~0.5 us, so the built-in types go first
    if isinstance(value, bool) or not (isinstance(value, (int, float)) or isinstance(value, numbers.Real)):
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


def is_int(value) -> bool:
    """The one integer rule: ints and numpy integers are integers; booleans and floats are not."""
    return (isinstance(value, int) or isinstance(value, numbers.Integral)) and not isinstance(value, bool)


def require_int(value, name: str, minimum: int) -> int:
    """Return ``value`` as an int of at least ``minimum``, or raise :class:`ParameterError`.

    ``value`` must be an integer by :func:`is_int`.
    """
    if not is_int(value) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def validate_wavelength_nm(nm: float) -> float:
    """Check a wavelength against the validated operating range and return it."""
    nm = require_number(nm, "wavelength_nm")
    if not WAVELENGTH_MIN_NM <= nm <= WAVELENGTH_MAX_NM:
        raise ParameterError(
            f"wavelength {nm} nm outside validated range "
            f"[{WAVELENGTH_MIN_NM:.0f}, {WAVELENGTH_MAX_NM:.0f}] nm"
        )
    return nm


def validate_grid_nm(grid_nm) -> np.ndarray:
    """Return a wavelength grid as float64, checked to be one-dimensional, non-empty, strictly increasing and in range."""
    grid = np.asarray(grid_nm, dtype=float)
    if grid.ndim != 1:
        raise ParameterError("wavelength grid must be one-dimensional")
    if grid.size == 0:
        raise ParameterError("wavelength grid must not be empty")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is not > 0
        if not (np.diff(grid) > 0).all():
            raise ParameterError("wavelength grid must be strictly increasing")
    # The negated test sends NaN and inf to the check as well.
    outside = np.flatnonzero(~((WAVELENGTH_MIN_NM <= grid) & (grid <= WAVELENGTH_MAX_NM)))
    if outside.size:
        validate_wavelength_nm(float(grid[outside[0]]))
    return grid


def photon_energy_joules(wavelength_nm: float) -> float:
    """Energy of a single photon, h*c/lambda. Accepts any positive wavelength."""
    wavelength_nm = require_number(wavelength_nm, "wavelength_nm", minimum=0.0, strict=True)
    return HC_JOULE_M / (wavelength_nm * 1e-9)
