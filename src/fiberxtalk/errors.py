"""Exception taxonomy shared by the library and the command-line front end,
and the two readers every input file goes through.

Exit codes follow the CLI contract: 2 input, 3 data, 4 parameter, 5 resource.
Each error carries a short machine-readable code (``E_INPUT``, ``E_NO_TRIGGER``,
``E_CONFIG``, ...) that the CLI emits on stderr. A fault in any input file or
document exits 2 (``E_INPUT``); an out-of-domain flag or library argument
exits 4 (``E_PARAM``).
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path


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


@contextmanager
def csv_rows(path: "str | Path", header: "list[str]"):
    """Open a CSV file whose first row must be ``header`` and yield its numbered rows.

    The rows come as ``enumerate(csv.reader, start=2)``, so each carries its
    line number. A missing file is an :class:`InputError`; a wrong header, or
    text that does not decode or parse as CSV, is a :class:`DataError`.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"file not found: {path}")
    with open(path, newline="") as fh:
        try:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != header:
                raise DataError(f"{path}: expected header '{','.join(header)}'")
            yield enumerate(reader, start=2)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: not a readable CSV file: {exc}") from None
