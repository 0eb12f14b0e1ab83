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
0..2^63-1 ps. Scan wavelengths must rise strictly within the validated range
and counts must be >= 0. Any fault is a :class:`DataError` that names the
file and row. A tag channel is parsed as int8, so one outside -128..127 fails
to parse.

A CSV tag file has the XTT1 reader's record budget, ``DEFAULT_MAX_TAGS``,
checked before it is parsed. A data row takes at least 4 bytes (``0,0\n``),
so a file of at most 4 · ``DEFAULT_MAX_TAGS`` bytes is within it from its size
alone. A larger file has its lines after the header counted, blank ones
included, in ``CSV_COUNT_BLOCK_BYTES`` blocks; more than ``DEFAULT_MAX_TAGS``
is a :class:`ResourceError` that names the file and the cap.

Every output goes through one of three writers: :func:`write_json` (indented,
sorted keys, a final newline) for sidecars, reports, plans and manifests,
:func:`write_csv` (a header line, then one ``%``-formatted line per row) for
scan, histogram and switch-sweep tables, and :func:`write_tags_xtt1`. No
command writes tags as CSV. Each writer writes one file: a command that wants
a tag file's or a scan's sidecar lists :func:`write_metadata` as a write of
its own.

All three write through one helper, :func:`_write_bytes`. It opens the path
without truncating it, writes the new bytes over the old ones and then, if the
old file was longer, truncates it at the end of what it wrote, so an existing
output is never cut to zero length. A new file gets mode ``0o666 & ~umask``; a
device or a pipe is written as before. Truncating to zero, or renaming over an
existing file, makes ext4 start writeback of the file when it is closed (its
``auto_da_alloc`` heuristic), which costs more than the write itself for the
small files a command writes. Outputs are neither atomic nor fsynced. If the
machine crashes before a rewrite reaches the disk, the file on disk keeps its
old content, or part old and part new bytes, where it would have been empty or
partly new before; a write that fails part way (a full disk, say) leaves the
same mix. The manifest's SHA-256 tells such a file from the one the run wrote,
and the CLI leaves no manifest beside an output that no longer matches it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import DataError, InputError, ParameterError, ResourceError, read_csv_columns, read_json, reject_rows
from .simulate import DEFAULT_MAX_TAGS, SpectralScan, TagStream
from .units import WAVELENGTH_MAX_NM, WAVELENGTH_MIN_NM, require_number

XTT1_MAGIC = b"XTT1\x00\x00\x00\x01"
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("time_ps", "<u8")])
XTT1_BLOCK_RECORDS = 1 << 16  # records per block of the XTT1 decoder
CSV_COUNT_BLOCK_BYTES = 1 << 16  # bytes per block of the CSV line count


def metadata_path(path: "str | Path") -> Path:
    return Path(str(path) + ".meta.json")


def _write_bytes(path: "str | Path", *chunks) -> Path:
    """Write ``chunks`` (bytes-like) over ``path`` in place, then truncate it where they end."""
    path = Path(path)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        end = sum(fh.write(chunk) for chunk in chunks)
        if os.fstat(fh.fileno()).st_size > end:  # a device or a pipe has size 0, and cannot be truncated
            fh.truncate(end)
    return path


def write_json(path: "str | Path", doc) -> Path:
    """Write ``doc`` as JSON indented by 2, keys sorted, plus a final newline."""
    return _write_bytes(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


def write_csv(path: "str | Path", header: str, row: str, columns) -> Path:
    """Write the line ``header``, then the line ``row % values`` for each row of ``columns``.

    ``row`` holds one ``%`` format per column. The columns are interleaved with
    one slice assignment per column, so no Python code runs per row.
    """
    k, n = len(columns), len(columns[0])
    values = [None] * (k * n)
    for i, column in enumerate(columns):
        values[i::k] = np.asarray(column).tolist()
    return _write_bytes(path, (f"{header}\n" + f"{row}\n" * n % tuple(values)).encode())


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


def write_tags_xtt1(path: "str | Path", stream: TagStream) -> Path:
    """Write a tag stream's records as an XTT1 binary file; its metadata goes to :func:`write_metadata`."""
    records = np.empty(stream.n_records, dtype=_RECORD_DTYPE)
    records["channel"] = stream.channels
    if stream.times_ps.size and int(stream.times_ps.min()) < 0:
        raise DataError("tag times must be non-negative to serialize as u64")
    records["time_ps"] = stream.times_ps  # cast to u64 block by block, without a whole-array copy
    return _write_bytes(path, XTT1_MAGIC, records.view(np.uint8))


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


def _require_csv_tag_budget(path: "str | Path") -> None:
    """Refuse a CSV tag file of more than ``DEFAULT_MAX_TAGS`` lines after its header, before it is parsed."""
    try:
        size = os.stat(path).st_size
    except OSError:
        return  # read_csv_columns reports a file it cannot read
    if size <= 4 * DEFAULT_MAX_TAGS:  # a data row takes at least 4 bytes, "0,0\n"
        return
    newlines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while block := fh.read(CSV_COUNT_BLOCK_BYTES):
            newlines, last = newlines + block.count(b"\n"), block[-1:]
            if newlines - 1 > DEFAULT_MAX_TAGS:
                break
    rows = newlines - 1 + (last != b"\n")  # the header's line is not a row; a last line may lack its newline
    if rows > DEFAULT_MAX_TAGS:
        raise ResourceError(f"{path}: more rows than the cap of {DEFAULT_MAX_TAGS} tags")


def read_tags_csv(path: "str | Path") -> TagStream:
    _require_csv_tag_budget(path)
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
    """Spectral scan as CSV ``lambda_nm,counts``; its dwell and metadata go to :func:`write_metadata`."""
    return write_csv(path, "lambda_nm,counts", "%.6f,%d", (scan.wavelengths_nm, scan.counts))


def read_scan_csv(path: "str | Path", *, dwell_s: float | None = None) -> SpectralScan:
    wavelengths, counts = read_csv_columns(path, ["lambda_nm", "counts"], ["f8", "i8"])
    in_range = (WAVELENGTH_MIN_NM <= wavelengths) & (wavelengths <= WAVELENGTH_MAX_NM)  # False for NaN
    reject_rows(path, ~in_range, f"wavelength must be in [{WAVELENGTH_MIN_NM:.0f}, {WAVELENGTH_MAX_NM:.0f}] nm",
                wavelengths)
    reject_rows(path, np.diff(wavelengths, prepend=-np.inf) <= 0, "wavelength must be above the previous row's",
                wavelengths)
    reject_rows(path, counts < 0, "counts must be >= 0", counts)
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
