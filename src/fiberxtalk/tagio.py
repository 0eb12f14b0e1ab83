"""File formats: XTT1 binary tag files, CSV variants, and JSON sidecars.

XTT1 layout: 8-byte magic ``XTT1\\x00\\x00\\x00\\x01`` followed by packed
little-endian 9-byte records of (u8 channel, u64 time_ps), channel 0 being the
trigger and 1 the detector. A JSON metadata sidecar lives at
``<path>.meta.json``.

CSV files (tags ``channel,time_ps``, scans ``lambda_nm,counts``) are UTF-8: a
header row, exact up to spaces around each name, then comma-separated rows of
integers (an optional sign and ASCII digits) and floats (what ``float()``
reads, in ASCII). Blank lines, CRLF, ``"``-quoted fields, spaces around
fields and extra trailing columns are accepted; ``#`` starts no comment, a
row of only spaces is an error, and underscored digits such as ``5_0``, which
``int()`` used to accept, are rejected. Channels must be 0 or 1 and times
0..2^63-1 ps; any fault is a :class:`DataError` that names the file and row.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError, InputError, ParameterError, read_csv_columns, read_json, reject_rows
from .simulate import SpectralScan, TagStream
from .units import require_number

XTT1_MAGIC = b"XTT1\x00\x00\x00\x01"
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("time_ps", "<u8")])

_MAX_TIME = np.int64(2**63 - 1)


def metadata_path(path: "str | Path") -> Path:
    return Path(str(path) + ".meta.json")


def write_metadata(path: "str | Path", metadata: dict) -> Path:
    side = metadata_path(path)
    side.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    return side


def read_metadata(path: "str | Path") -> dict | None:
    side = metadata_path(path)
    if not side.is_file():
        return None
    metadata = read_json(side, "metadata")
    if not isinstance(metadata, dict):
        raise InputError(f"{side}: expected a JSON object")
    return metadata


def write_tags_xtt1(path: "str | Path", stream: TagStream, *, sidecar: bool = True) -> Path:
    """Write a tag stream as an XTT1 binary file (plus metadata sidecar)."""
    path = Path(path)
    records = np.empty(stream.n_records, dtype=_RECORD_DTYPE)
    records["channel"] = stream.channels
    if stream.times_ps.size and int(stream.times_ps.min()) < 0:
        raise DataError("tag times must be non-negative to serialize as u64")
    records["time_ps"] = stream.times_ps.astype(np.uint64)
    with open(path, "wb") as fh:
        fh.write(XTT1_MAGIC)
        fh.write(records.tobytes())
    if sidecar and stream.metadata:
        write_metadata(path, stream.metadata)
    return path


def read_tags_xtt1(path: "str | Path") -> TagStream:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"tag file not found: {path}")
    raw = path.read_bytes()
    if len(raw) < len(XTT1_MAGIC) or raw[: len(XTT1_MAGIC)] != XTT1_MAGIC:
        raise DataError(f"{path}: missing XTT1 magic; not a tag file")
    body = raw[len(XTT1_MAGIC):]
    if len(body) % _RECORD_DTYPE.itemsize:
        raise DataError(
            f"{path}: truncated record ({len(body)} bytes is not a multiple "
            f"of {_RECORD_DTYPE.itemsize})"
        )
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    if records.size and records["time_ps"].max() > np.uint64(_MAX_TIME):
        raise DataError(f"{path}: timestamp overflows the signed 64-bit range")
    if records.size and not np.isin(records["channel"], (0, 1)).all():
        raise DataError(f"{path}: channel values must be 0 (trigger) or 1 (detector)")
    metadata = read_metadata(path) or {}
    return TagStream(
        channels=records["channel"].copy(),
        times_ps=records["time_ps"].astype(np.int64),
        metadata=metadata,
    )


def write_tags_csv(path: "str | Path", stream: TagStream, *, sidecar: bool = True) -> Path:
    """CSV interoperability format: header ``channel,time_ps`` then one row per tag."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write("channel,time_ps\n")
        for ch, t in zip(stream.channels.tolist(), stream.times_ps.tolist()):
            fh.write(f"{ch},{t}\n")
    if sidecar and stream.metadata:
        write_metadata(path, stream.metadata)
    return path


def read_tags_csv(path: "str | Path") -> TagStream:
    channels, times = read_csv_columns(path, ["channel", "time_ps"], ["i8", "i8"])
    reject_rows(path, (channels != 0) & (channels != 1), "channel must be 0 or 1", channels)
    reject_rows(path, times < 0, "time must be >= 0 ps", times)
    metadata = read_metadata(path) or {}
    return TagStream(channels=channels.astype(np.uint8), times_ps=times, metadata=metadata)


def read_tags(path: "str | Path") -> TagStream:
    """Read a tag file, sniffing XTT1 binary vs. CSV from the leading bytes."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"tag file not found: {path}")
    with open(path, "rb") as fh:
        head = fh.read(len(XTT1_MAGIC))
    if head == XTT1_MAGIC:
        return read_tags_xtt1(path)
    return read_tags_csv(path)


def write_scan_csv(path: "str | Path", scan: SpectralScan) -> Path:
    """Spectral scan as CSV ``lambda_nm,counts`` with a JSON sidecar for dwell etc."""
    path = Path(path)
    rows = "".join(f"{nm:.6f},{n}\n" for nm, n in zip(scan.wavelengths_nm.tolist(), scan.counts.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("lambda_nm,counts\n" + rows)
    meta = dict(scan.metadata)
    meta.setdefault("dwell_s", scan.dwell_s)
    write_metadata(path, meta)
    return path


def read_scan_csv(path: "str | Path", *, dwell_s: float | None = None) -> SpectralScan:
    wavelengths, counts = read_csv_columns(path, ["lambda_nm", "counts"], ["f8", "i8"])
    metadata = read_metadata(path) or {}
    if dwell_s is None:
        try:
            dwell_s = require_number(metadata.get("dwell_s"), "dwell_s", minimum=0.0, strict=True)
        except ParameterError as exc:
            raise InputError(
                f"{path}: dwell time unknown ({exc}); provide it explicitly or keep a "
                f"{metadata_path(path).name} sidecar that has it"
            ) from None
    return SpectralScan(wavelengths_nm=wavelengths, counts=counts, dwell_s=dwell_s, metadata=metadata)


def write_histogram_csv(path: "str | Path", histogram) -> Path:
    """Histogram as CSV ``bin_start_ps,counts``: one row per occupied bin.

    Rows come straight from the sparse histogram's ``bins`` and ``counts``, in
    ascending order; absent bins are zero.
    """
    path = Path(path)
    starts = histogram.bins * histogram.bin_width_ps
    rows = "".join(f"{b},{n}\n" for b, n in zip(starts.tolist(), histogram.counts.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("bin_start_ps,counts\n" + rows)
    return path
