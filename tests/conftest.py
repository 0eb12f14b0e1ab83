"""Shared builders for test topologies, sources, detectors and tag files."""

from __future__ import annotations

import pytest

import fiberxtalk as fx
from fiberxtalk import tagio

# Photon energy at 1550 nm, frozen from h*c/lambda with CODATA constants;
# used by tests as an oracle independent of the library's arithmetic.
E_PHOTON_1550_J = 6.62607015e-34 * 299792458.0 / 1550e-9


def topology_doc(connectors=None, length_m=5000.0, span_extra=None, victim_end="near"):
    """A single-span bundle with the probe on fiber 'agg' and victim on 'vic'."""
    span = {"id": "trunk", "length_m": length_m}
    if span_extra:
        span.update(span_extra)
    return {
        "spans": [span],
        "connectors": connectors or [],
        "probe": {"fiber": "agg", "end": "near"},
        "victim": {"fiber": "vic", "end": victim_end},
    }


def connector_doc(cid, position_m, coupling_db=-100.0, **extra):
    doc = {
        "id": cid,
        "position_m": position_m,
        "lanes": {"agg": 5, "vic": 6},
        "base_coupling_db": coupling_db,
    }
    doc.update(extra)
    return doc


def lossless_topology(connectors=None, length_m=5000.0):
    """Attenuation and insertion loss zeroed so rates hit analytic values exactly."""
    connectors = [dict(c, insertion_loss_db=0.0) for c in (connectors or [])]
    return fx.load_topology(
        topology_doc(connectors, length_m, span_extra={"attenuation_db_per_km": 0.0})
    )


def power_for_mu_det(mu_det, coupling_db, efficiency=0.85, rep_rate_hz=1000.0):
    """Average power giving ``mu_det`` detected photons per pulse at a lossless point."""
    mu_optical = mu_det / efficiency
    return mu_optical * E_PHOTON_1550_J * rep_rate_hz / 10.0 ** (coupling_db / 10.0)


@pytest.fixture
def three_point_topology():
    return fx.load_topology(
        topology_doc(
            [
                connector_doc("mpoA", 150.0),
                connector_doc("mpoB", 800.0),
                connector_doc("mpoC", 2300.0),
            ]
        )
    )


def channel_times(stream, channel):
    """The times of ``stream``'s tags on ``channel`` (0 trigger, 1 detector), in stream order."""
    return stream.times_ps[stream.channels == channel]


def write_tags_csv(path, stream, *, sidecar=True):
    """A tag stream as the CSV ``tagio.read_tags_csv`` reads: header ``channel,time_ps``, one row per tag."""
    path = tagio.write_csv(path, "channel,time_ps", "%d,%d", (stream.channels, stream.times_ps))
    if sidecar and stream.metadata:
        tagio.write_metadata(path, stream.metadata)
    return path
