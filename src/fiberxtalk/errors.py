"""Exception taxonomy shared by the library and the command-line front end,
and the three readers every input goes through: :func:`read_json` and
:func:`read_csv_columns` for files, :func:`read_dataclass` from a JSON object
to the dataclass that checks it.

Exit codes follow the CLI contract: 2 input, 3 data, 4 parameter, 5 resource.
Each error carries a short machine-readable code (``E_INPUT``, ``E_NO_TRIGGER``,
``E_CONFIG``, ...) that the CLI emits on stderr. A fault in any input file or
document, and a path the system refuses to read or write (the CLI turns that
``OSError`` into an :class:`InputError` naming the path), exits 2
(``E_INPUT``); an out-of-domain flag or library argument exits 4 (``E_PARAM``).
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from collections.abc import Mapping
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np


class XtalkError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    default_code = "E_ERROR"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        self.code = code or self.default_code


class InputError(XtalkError, ValueError):
    """A required input (file, document, schema) is missing or malformed."""

    exit_code = 2
    default_code = "E_INPUT"


class DataError(XtalkError, ValueError):
    """An input parsed, but its content cannot be analyzed."""

    exit_code = 3
    default_code = "E_DATA"


class ParameterError(XtalkError, ValueError):
    """A parameter value is outside its valid domain."""

    exit_code = 4
    default_code = "E_PARAM"


class ResourceError(XtalkError, RuntimeError):
    """A run would exceed a configured resource budget."""

    exit_code = 5
    default_code = "E_RESOURCE"


def read_json(path: "str | Path", what: str):
    """Parse a JSON file, raising :class:`InputError` if it is missing or unreadable."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{what} file not found: {path}")
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise InputError(f"{path}: invalid JSON: {exc}") from None


def read_dataclass(doc, cls, what: str, **given):
    """``cls`` built from the JSON object ``doc`` and the already-read fields ``given``.

    ``doc``'s keys are ``cls``'s other fields. An unknown key is always an
    error, as is a missing required key, and both are named. ``cls`` checks
    its own values, and any fault is an :class:`InputError` whose message starts
    with the element path ``what``: ``what.field ...`` when the fault names one
    of ``cls``'s fields, ``what: ...`` otherwise. A dataclass assembled from
    parts read elsewhere passes an empty ``doc`` and every field in ``given``.
    """
    if not isinstance(doc, Mapping):
        raise InputError(f"{what}: expected a JSON object")
    own = [f for f in fields(cls) if f.name not in given]
    names = [f.name for f in own]
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise InputError(f"{what}: unknown key(s) {unknown}; expected {sorted(names)}")
    for f in own:
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise InputError(f"{what}: missing required key {f.name!r}")
    try:
        return cls(**{name: doc[name] for name in names if name in doc}, **given)
    except (TypeError, ValueError, OverflowError) as exc:
        message = str(exc)
        named = re.match(r"\w*", message)[0] in {*names, *given}
        raise InputError(f"{what}{'.' if named else ': '}{message}") from None


def read_csv_columns(path: "str | Path", header: "list[str]", dtypes: list) -> "list[np.ndarray]":
    """Read a CSV file whose first row is ``header`` into one array per column.

    The body is parsed by one ``np.loadtxt`` call into a structured array of
    ``dtypes``, on the grammar the :mod:`fiberxtalk.tagio` docstring states;
    the columns are views of that array, so a caller copies only what it
    keeps contiguous. A missing file is an :class:`InputError`. A wrong
    header, bad UTF-8, a missing column, or a field that does not parse or
    overflows is a :class:`DataError`; a fault in a field or a short row
    names its data row as :func:`reject_rows` counts them.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first = next(csv.reader(fh), None)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable CSV file: {exc}") from None
    if first is None or [h.strip() for h in first] != header:
        raise DataError(f"{path}: expected header '{','.join(header)}'")
    dtype = np.dtype(list(zip(header, dtypes)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a header-only file
            # older numpy reads an integer field such as 1.5 through a float, warning that it is deprecated
            warnings.simplefilter("error", DeprecationWarning)
            body = np.loadtxt(
                path, dtype=dtype, delimiter=",", skiprows=1, usecols=tuple(range(len(header))),
                comments=None, quotechar='"', ndmin=1, encoding="utf-8",
            )
    except (ValueError, DeprecationWarning) as exc:  # ValueError covers bad UTF-8 and unparsable fields
        raise DataError(f"{path}: not a readable CSV file: {_data_row_message(str(exc))}") from None
    return [body[name] for name in header]


# numpy's loadtxt counts the non-blank rows after the header, as reject_rows
# does, but from 0 for a field that does not parse and from 1 for a short row.
_NUMPY_ROW_FAULTS = (
    (re.compile(r"(could not convert string .* to \w+) at row (\d+), (column \d+)\.", re.S), 1, " at "),
    (re.compile(r"(invalid column index \d+) at row (\d+) (with \d+ columns)"), 0, " "),
)


def _data_row_message(message: str) -> str:
    """numpy's fault message, its row restated as reject_rows' "data row N"; other messages unchanged."""
    for pattern, offset, join in _NUMPY_ROW_FAULTS:
        match = pattern.fullmatch(message)
        if match:
            return f"data row {int(match[2]) + offset}: {match[1]}{join}{match[3]}"
    return message


def reject_rows(path: "str | Path", bad: np.ndarray, message: str, values: np.ndarray) -> None:
    """Raise :class:`DataError` naming the first data row (from 1) where ``bad`` holds."""
    if bad.any():
        row = int(bad.argmax())
        raise DataError(f"{path}: data row {row + 1}: {message}, got {values[row].item()!r}")
