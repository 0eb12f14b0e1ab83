"""File formats: XTT1 binary tag files, CSV variants, and JSON sidecars.

XTT1 layout: 8-byte magic ``XTT1\\x00\\x00\\x00\\x01`` followed by packed
little-endian 9-byte records of (u8 channel, u64 time_ps), channel 0 being the
trigger and 1 the detector. A JSON metadata sidecar lives at
``<path>.meta.json``. The reader decodes the records in fixed-size blocks
into the stream's arrays, so it never holds the whole file's bytes.

CSV files (tags ``channel,time_ps``, scans ``lambda_nm,counts``) are UTF-8: a
header row, exact up to spaces around each name, then comma-separated rows of
integers (an optional sign and ASCII digits) and floats (what ``float()``
reads, in ASCII). Blank lines, CRLF, ``"``-quoted fields, spaces around
fields and extra trailing columns are accepted; ``#`` starts no comment, a
row of only spaces is an error, and underscored digits such as ``5_0``, which
``int()`` used to accept, are rejected. Channels must be 0 or 1 and times
0..2^63-1 ps; any fault is a :class:`DataError` that names the file and row.
A tag channel is parsed as int8, so one outside -128..127 fails to parse.

Every output goes through one of two writers: :func:`write_json` (indented,
sorted keys, a final newline) for sidecars, reports and manifests, and
:func:`write_csv` (a header line, then one ``%``-formatted line per row) for
scan, histogram and switch-sweep tables. No command writes tags as CSV.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import DataError, InputError, ParameterError, ResourceError, read_csv_columns, read_json, reject_rows
from .simulate import DEFAULT_MAX_TAGS, SpectralScan, TagStream
from .units import require_number

XTT1_MAGIC = b"XTT1\x00\x00\x00\x01"
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("time_ps", "<u8")])
XTT1_BLOCK_RECORDS = 1 << 16  # records per block of the XTT1 decoder


def metadata_path(path: "str | Path") -> Path:
    return Path(str(path) + ".meta.json")


def write_json(path: "str | Path", doc) -> Path:
    """Write ``doc`` as JSON indented by 2, keys sorted, plus a final newline."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def write_csv(path: "str | Path", header: str, row: str, columns) -> Path:
    """Write the line ``header``, then the line ``row % values`` for each row of ``columns``.

    ``row`` holds one ``%`` format per column. The columns are interleaved with
    one slice assignment per column, so no Python code runs per row.
    """
    path = Path(path)
    k, n = len(columns), len(columns[0])
    values = [None] * (k * n)
    for i, column in enumerate(columns):
        values[i::k] = np.asarray(column).tolist()
    path.write_text(f"{header}\n" + f"{row}\n" * n % tuple(values), newline="")
    return path


def write_metadata(path: "str | Path", metadata: dict) -> Path:
    return write_json(metadata_path(path), metadata)


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
    """Read an XTT1 tag file, decoding ``XTT1_BLOCK_RECORDS`` records at a time.

    The record count comes from the file size, and more than
    ``DEFAULT_MAX_TAGS`` records is a :class:`ResourceError` before anything
    is allocated. The reader holds the decoded arrays (9 bytes a record) plus
    one block of raw records.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"tag file not found: {path}")
    with open(path, "rb") as fh:
        if fh.read(len(XTT1_MAGIC)) != XTT1_MAGIC:
            raise DataError(f"{path}: missing XTT1 magic; not a tag file")
        size = os.fstat(fh.fileno()).st_size - len(XTT1_MAGIC)
        if size % _RECORD_DTYPE.itemsize:
            raise DataError(
                f"{path}: truncated record ({size} bytes is not a multiple "
                f"of {_RECORD_DTYPE.itemsize})"
            )
        n = size // _RECORD_DTYPE.itemsize
        if n > DEFAULT_MAX_TAGS:
            raise ResourceError(f"{path}: {n} records exceed the cap of {DEFAULT_MAX_TAGS} tags")
        times = np.empty(n, dtype=np.int64)
        channels = np.empty(n, dtype=np.uint8)
        for start in range(0, n, XTT1_BLOCK_RECORDS):
            count = min(XTT1_BLOCK_RECORDS, n - start)
            records = np.fromfile(fh, dtype=_RECORD_DTYPE, count=count)
            if records.size < count:
                raise DataError(f"{path}: file shrank while it was read")
            # a u64 time of 2^63 or more wraps to a negative int64
            times[start : start + count] = records["time_ps"]
            channels[start : start + count] = records["channel"]
    # whole-array reductions allocate nothing, and keep the time fault ahead of the channel fault
    if n and times.min() < 0:
        raise DataError(f"{path}: timestamp overflows the signed 64-bit range")
    if n and channels.max() > 1:
        raise DataError(f"{path}: channel values must be 0 (trigger) or 1 (detector)")
    return TagStream(channels=channels, times_ps=times, metadata=read_metadata(path) or {})


def read_tags_csv(path: "str | Path") -> TagStream:
    # a channel parses as int8: 9 bytes a row for the body, and its uint8 view is > 1 for any bad channel
    channels, times = read_csv_columns(path, ["channel", "time_ps"], ["i1", "i8"])
    reject_rows(path, channels.view(np.uint8) > 1, "channel must be 0 or 1", channels)
    reject_rows(path, times < 0, "time must be >= 0 ps", times)
    metadata = read_metadata(path) or {}
    return TagStream(channels=channels.astype(np.uint8), times_ps=np.ascontiguousarray(times), metadata=metadata)


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
    path = write_csv(path, "lambda_nm,counts", "%.6f,%d", (scan.wavelengths_nm, scan.counts))
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
    return write_csv(path, "bin_start_ps,counts", "%d,%d", (histogram.bins * histogram.bin_width_ps, histogram.counts))
