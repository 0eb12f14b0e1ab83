"""File formats: XTT1 binary tag files, CSV variants, and JSON sidecars.

XTT1 layout: 8-byte magic ``XTT1\\x00\\x00\\x00\\x01`` followed by packed
little-endian 9-byte records of (u8 channel, u64 time_ps), channel 0 being the
trigger and 1 the detector. A JSON metadata sidecar lives at
``<path>.meta.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError, InputError, ParameterError, csv_rows, read_json
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
    channels: list[int] = []
    times: list[int] = []
    with csv_rows(path, ["channel", "time_ps"]) as rows:
        for lineno, row in rows:
            if not row:
                continue
            try:
                ch, t = int(row[0]), int(row[1])
            except (ValueError, IndexError):
                raise DataError(f"{path}:{lineno}: expected 'channel,time_ps' integers") from None
            if ch not in (0, 1):
                raise DataError(f"{path}:{lineno}: channel must be 0 or 1, got {ch}")
            if t < 0:
                raise DataError(f"{path}:{lineno}: time must be >= 0 ps, got {t}")
            channels.append(ch)
            times.append(t)
    metadata = read_metadata(path) or {}
    return TagStream(
        channels=np.array(channels, dtype=np.uint8),
        times_ps=np.array(times, dtype=np.int64),
        metadata=metadata,
    )


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
    with open(path, "w", newline="") as fh:
        fh.write("lambda_nm,counts\n")
        for nm, n in zip(scan.wavelengths_nm.tolist(), scan.counts.tolist()):
            fh.write(f"{nm:.6f},{n}\n")
    meta = dict(scan.metadata)
    meta.setdefault("dwell_s", scan.dwell_s)
    write_metadata(path, meta)
    return path


def read_scan_csv(path: "str | Path", *, dwell_s: float | None = None) -> SpectralScan:
    wavelengths: list[float] = []
    counts: list[int] = []
    with csv_rows(path, ["lambda_nm", "counts"]) as rows:
        for lineno, row in rows:
            if not row:
                continue
            try:
                wavelengths.append(float(row[0]))
                counts.append(int(row[1]))
            except (ValueError, IndexError):
                raise DataError(f"{path}:{lineno}: expected 'lambda_nm,counts'") from None
    metadata = read_metadata(path) or {}
    if dwell_s is None:
        try:
            dwell_s = require_number(metadata.get("dwell_s"), "dwell_s", minimum=0.0, strict=True)
        except ParameterError as exc:
            raise InputError(
                f"{path}: dwell time unknown ({exc}); provide it explicitly or keep a "
                f"{metadata_path(path).name} sidecar that has it"
            ) from None
    return SpectralScan(
        wavelengths_nm=np.array(wavelengths),
        counts=np.array(counts, dtype=np.int64),
        dwell_s=dwell_s,
        metadata=metadata,
    )


def write_histogram_csv(path: "str | Path", histogram) -> Path:
    """Histogram as CSV ``bin_start_ps,counts``.

    Folded OTDR histograms routinely span 10^7 bins that are almost all zero,
    so only occupied bins are written; absent bins are zero.
    """
    path = Path(path)
    counts = histogram.counts
    idx = np.flatnonzero(counts)
    with open(path, "w", newline="") as fh:
        fh.write("bin_start_ps,counts\n")
        bw = histogram.bin_width_ps
        for i in idx.tolist():
            fh.write(f"{i * bw},{counts[i]}\n")
    return path
