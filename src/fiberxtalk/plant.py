"""Declarative model of a fiber plant and the crosstalk points it implies.

A topology describes one bundle route built from consecutive spans, with
multi-fiber connectors at fixed positions along the route. Two named fiber
strands run through the bundle: the aggressor (probe-injection) fiber and the
victim fiber. Both cross the same spans and connectors, so they share one
loss profile. Every connector where both strands occupy lanes is a potential
inter-fiber crosstalk point. Positions are measured in meters from the probe
injection end ("near" end).

Each key of a topology document is the field of the dataclass that holds it,
so :func:`load_topology` hands every element to :func:`read_dataclass` as it
stands, and each dataclass checks its own values.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError, read_dataclass, read_json
from .units import (
    C_M_PER_S,
    DEFAULT_ATTENUATION_TABLE,
    DEFAULT_GROUP_INDEX,
    require_int,
    require_number,
    validate_wavelength_nm,
)

SUPPORTED_LANE_COUNTS = (8, 12, 24, 48)
DEFAULT_BASE_COUPLING_DB = -100.0
DEFAULT_PITCH_ROLLOFF_DB_PER_LANE = 15.0
DEFAULT_INSERTION_LOSS_DB = 0.3
COUPLING_FLOOR_DB = -160.0

TOPOLOGY_SCHEMA_VERSION = 1


def _require_name(value, name: str) -> None:
    if not isinstance(value, str) or not value:
        raise ParameterError(f"{name}: expected a non-empty string")


def _number(obj, name: str, **bounds) -> float:
    """Check the numeric field ``name`` of the frozen ``obj`` and store it as a float."""
    value = require_number(getattr(obj, name), name, **bounds)
    object.__setattr__(obj, name, value)
    return value


@dataclass(frozen=True)
class FiberSpan:
    """One cable section of the bundle route.

    ``attenuation_db_per_km`` is a number, the same at every wavelength, or a
    table of ``(nm, dB/km)`` pairs with strictly increasing wavelengths. It is
    stored as the table, a number as the one pair ``(1550.0, number)``.
    """

    id: str
    length_m: float
    attenuation_db_per_km: "float | tuple[tuple[float, float], ...]" = DEFAULT_ATTENUATION_TABLE
    group_index: float = DEFAULT_GROUP_INDEX

    def __post_init__(self):
        _require_name(self.id, "id")
        _number(self, "length_m", minimum=0.0, strict=True)
        _number(self, "group_index", minimum=1.0, strict=True)
        name, table = "attenuation_db_per_km", self.attenuation_db_per_km
        if isinstance(table, numbers.Real) and not isinstance(table, bool):
            table = ((1550.0, table),)
        elif not isinstance(table, (tuple, list)):
            raise ParameterError(f"{name}: expected a number or a sequence of (nm, dB/km) pairs")
        if not table:
            raise ParameterError(f"{name}: expected a non-empty sequence of (nm, dB/km) pairs")
        checked = []
        for i, entry in enumerate(table):
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ParameterError(f"{name}[{i}]: expected an (nm, dB/km) pair")
            nm = require_number(entry[0], f"{name}[{i}][0]", minimum=0.0, strict=True)
            if checked and nm <= checked[-1][0]:
                raise ParameterError(f"{name}[{i}]: wavelengths must be strictly increasing")
            checked.append((nm, require_number(entry[1], f"{name}[{i}][1]", minimum=0.0)))
        object.__setattr__(self, name, tuple(checked))

    def attenuation_at(self, wavelength_nm: float) -> float:
        """Attenuation in dB/km, piecewise linear in the table and flat beyond its ends."""
        nms, alphas = zip(*self.attenuation_db_per_km)
        return float(np.interp(wavelength_nm, nms, alphas))


@dataclass(frozen=True)
class MpoConnector:
    """A multi-fiber push-on connector at a fixed position along the route.

    ``lanes`` maps fiber ids to the 1-based lane each strand occupies in this
    connector. Coupling between two lanes weakens with lane separation and may
    carry a linear wavelength slope around ``reference_nm``.
    """

    id: str
    position_m: float
    lanes: Mapping[str, int] = field(default_factory=dict)
    lane_count: int = 12
    base_coupling_db: float = DEFAULT_BASE_COUPLING_DB
    pitch_rolloff_db_per_lane: float = DEFAULT_PITCH_ROLLOFF_DB_PER_LANE
    wavelength_slope_db_per_nm: float = 0.0
    reference_nm: float = 1550.0
    insertion_loss_db: float = DEFAULT_INSERTION_LOSS_DB

    def __post_init__(self):
        _require_name(self.id, "id")
        _number(self, "position_m", minimum=0.0)
        if self.lane_count not in SUPPORTED_LANE_COUNTS:
            raise ParameterError(f"lane_count: {self.lane_count!r} not one of {SUPPORTED_LANE_COUNTS}")
        if not isinstance(self.lanes, Mapping):
            raise ParameterError("lanes: expected an object of fiber -> lane")
        object.__setattr__(self, "lanes", dict(self.lanes))
        taken = set()
        for fiber, lane in self.lanes.items():
            if require_int(lane, f"lanes.{fiber}", 1) > self.lane_count:
                raise ParameterError(f"lanes.{fiber}: lane {lane} outside 1..{self.lane_count}")
            if lane in taken:
                raise ParameterError(f"lanes.{fiber}: lane {lane} assigned to more than one fiber")
            taken.add(lane)
        if _number(self, "base_coupling_db") > 0.0:
            raise ParameterError(f"base_coupling_db: coupling must be <= 0 dB, got {self.base_coupling_db}")
        _number(self, "pitch_rolloff_db_per_lane", minimum=0.0)
        _number(self, "wavelength_slope_db_per_nm")
        validate_wavelength_nm(_number(self, "reference_nm"))
        _number(self, "insertion_loss_db", minimum=0.0)


@dataclass(frozen=True)
class CrosstalkPoint:
    """A location where light leaks from the aggressor into the victim fiber, at one wavelength."""

    position_m: float
    coupling_db: float
    source_element: str | None = None


@dataclass(frozen=True)
class Topology:
    """Immutable plant description, fully checked when built.

    Construction checks that there is a span, that span and connector ids are
    unique, that connector positions strictly increase within the route, and
    that the probe and victim differ. The detector sits at the near end.
    """

    spans: tuple[FiberSpan, ...]
    connectors: tuple[MpoConnector, ...] = ()
    aggressor_fiber_id: str = "aggressor"
    victim_fiber_id: str = "victim"

    def __post_init__(self):
        if not self.spans:
            raise ParameterError("spans: expected at least one span")
        for kind, elements in (("span", self.spans), ("connector", self.connectors)):
            ids = set()
            for i, element in enumerate(elements):
                if element.id in ids:
                    raise ParameterError(f"{kind}s[{i}]: duplicate {kind} id {element.id!r}")
                ids.add(element.id)
        total, last = self.total_length_m, -math.inf
        for i, conn in enumerate(self.connectors):
            if conn.position_m > total:
                raise ParameterError(
                    f"connectors[{i}]: connector {conn.id!r} at {conn.position_m} m lies beyond the {total} m route"
                )
            if conn.position_m <= last:
                raise ParameterError(
                    f"connectors[{i}]: positions must be strictly increasing "
                    f"(connector {conn.id!r} at {conn.position_m} m follows {last} m)"
                )
            last = conn.position_m
        if self.aggressor_fiber_id == self.victim_fiber_id:
            raise ParameterError(
                f"probe and victim must be different fibers, both are {self.aggressor_fiber_id!r}"
            )

    @property
    def total_length_m(self) -> float:
        return sum(s.length_m for s in self.spans)

    def span_edges_m(self) -> tuple[float, ...]:
        """Cumulative span boundaries, starting at 0."""
        edges = [0.0]
        for s in self.spans:
            edges.append(edges[-1] + s.length_m)
        return tuple(edges)

    def group_index_at(self, distance_m: float) -> float:
        """Group index of the span containing ``distance_m`` (last span beyond the end)."""
        edges = self.span_edges_m()
        for span, end in zip(self.spans, edges[1:]):
            if distance_m <= end:
                return span.group_index
        return self.spans[-1].group_index


def mpo_coupling_db(
    connector: MpoConnector, lane_i: int, lane_j: int, wavelength_nm: float
) -> float:
    """Lane-to-lane coupling in dB (negative), clamped at the -160 dB floor."""
    for name, lane in (("lane_i", lane_i), ("lane_j", lane_j)):
        if require_int(lane, name, 1) > connector.lane_count:
            raise ParameterError(
                f"{name}={lane!r} outside lanes 1..{connector.lane_count} "
                f"of connector {connector.id!r}"
            )
    if lane_i == lane_j:
        raise ParameterError(
            f"lanes must differ (got lane {lane_i} twice); same-lane transmission "
            "is not crosstalk"
        )
    nm = validate_wavelength_nm(wavelength_nm)
    separation = abs(lane_i - lane_j)
    value = (
        connector.base_coupling_db
        - connector.pitch_rolloff_db_per_lane * (separation - 1)
        + connector.wavelength_slope_db_per_nm * (nm - connector.reference_nm)
    )
    return max(value, COUPLING_FLOOR_DB)


def crosstalk_points(topology: Topology, wavelength_nm: float) -> tuple[CrosstalkPoint, ...]:
    """Crosstalk points implied by connectors where both strands have lanes, with their couplings at ``wavelength_nm``.

    Ordered by position (connector positions are strictly increasing by
    construction).
    """
    agg, vic = topology.aggressor_fiber_id, topology.victim_fiber_id
    return tuple(
        CrosstalkPoint(conn.position_m, mpo_coupling_db(conn, conn.lanes[agg], conn.lanes[vic], wavelength_nm), conn.id)
        for conn in topology.connectors
        if agg in conn.lanes and vic in conn.lanes
    )


def path_loss_db(topology: Topology, from_m: float, to_m: float, wavelength_nm: float) -> float:
    """One-way loss between two positions along the route, in dB, the same on either strand.

    Span attenuation is integrated piecewise over the interval; each connector
    with ``from_m <= position < to_m`` adds its insertion loss (a connector
    exactly at an interval boundary counts in the later interval, which keeps
    losses additive under interval concatenation).
    """
    nm = validate_wavelength_nm(wavelength_nm)
    total = topology.total_length_m
    if not 0.0 <= from_m <= to_m <= total:
        raise ParameterError(
            f"positions must satisfy 0 <= from <= to <= {total} m, "
            f"got from={from_m}, to={to_m}"
        )
    loss = 0.0
    edges = topology.span_edges_m()
    for span, start, end in zip(topology.spans, edges[:-1], edges[1:]):
        overlap = min(to_m, end) - max(from_m, start)
        if overlap > 0.0:
            loss += span.attenuation_at(nm) * overlap / 1000.0
    for conn in topology.connectors:
        if from_m <= conn.position_m < to_m:
            loss += conn.insertion_loss_db
    return loss


def delay_ps_for_distance(topology: Topology, distance_m: float) -> float:
    """Round-trip delay to a crosstalk point at ``distance_m`` (near-end detector).

    The probe travels out on the aggressor and back on the victim strand; both
    share the route's spans, so the delay is twice the index-weighted path.
    """
    if distance_m < 0.0:
        raise ParameterError(f"distance must be >= 0 m, got {distance_m}")
    edges = topology.span_edges_m()
    path = 0.0
    for span, start, end in zip(topology.spans, edges[:-1], edges[1:]):
        overlap = min(distance_m, end) - start
        if overlap > 0.0:
            path += span.group_index * overlap
    if distance_m > edges[-1]:
        path += topology.spans[-1].group_index * (distance_m - edges[-1])
    return 2.0 * path / C_M_PER_S * 1e12


def distance_for_delay_ps(topology: Topology, delay_ps: float) -> float:
    """Invert :func:`delay_ps_for_distance`; extrapolates past the fiber end."""
    if delay_ps < 0.0:
        raise ParameterError(f"delay must be >= 0 ps, got {delay_ps}")
    target = delay_ps * 1e-12 * C_M_PER_S / 2.0  # index-weighted one-way path
    edges = topology.span_edges_m()
    walked = 0.0
    for span, start, end in zip(topology.spans, edges[:-1], edges[1:]):
        seg = span.group_index * (end - start)
        if walked + seg >= target:
            return start + (target - walked) / span.group_index
        walked += seg
    return edges[-1] + (target - walked) / topology.spans[-1].group_index


# --- topology document loading -------------------------------------------------


@dataclass(frozen=True)
class _Document:
    """The top level of a topology document, before its elements are read."""

    spans: list
    probe: Mapping
    victim: Mapping
    schema_version: int = TOPOLOGY_SCHEMA_VERSION
    connectors: list = field(default_factory=list)

    def __post_init__(self):
        if self.schema_version != TOPOLOGY_SCHEMA_VERSION:
            raise ParameterError(
                f"schema_version: unsupported version {self.schema_version!r} (expected {TOPOLOGY_SCHEMA_VERSION})"
            )
        for name in ("spans", "connectors"):
            if not isinstance(getattr(self, name), list):
                raise ParameterError(f"{name}: expected an array")


@dataclass(frozen=True)
class _Endpoint:
    """Where a strand meets the instrument: ``{"fiber": ..., "end": "near"}``, the probe's injection end."""

    fiber: str
    end: str = "near"

    def __post_init__(self):
        _require_name(self.fiber, "fiber")
        if self.end != "near":
            raise ParameterError(f"end: expected one of ('near',), got {self.end!r}")


def load_topology(source: "str | Path | Mapping") -> Topology:
    """Load and fully validate a topology document.

    ``source`` may be a mapping already parsed from JSON, or a path to a JSON
    file. Each element reaches its dataclass through :func:`read_dataclass`,
    whose fields are the element's keys, so it rejects every unknown key and
    each dataclass checks its own values: the rest of the package can trust
    the object. The :class:`Topology` itself is read the same way, from its
    fields as assembled from the elements. Any fault, an out-of-range value
    included, is an :class:`InputError` whose message starts with the
    element's path, such as ``topology.connectors[0].lane_count``.
    """
    doc = source if isinstance(source, Mapping) else read_json(source, "topology")
    top = read_dataclass(doc, _Document, "topology")
    spans = tuple(read_dataclass(s, FiberSpan, f"topology.spans[{i}]") for i, s in enumerate(top.spans))
    connectors = tuple(
        read_dataclass(c, MpoConnector, f"topology.connectors[{i}]") for i, c in enumerate(top.connectors)
    )
    probe = read_dataclass(top.probe, _Endpoint, "topology.probe")
    victim = read_dataclass(top.victim, _Endpoint, "topology.victim")
    return read_dataclass(
        {"spans": spans, "connectors": connectors, "aggressor_fiber_id": probe.fiber, "victim_fiber_id": victim.fiber},
        Topology, "topology",
    )
