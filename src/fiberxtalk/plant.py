"""Declarative model of a fiber plant and the crosstalk points it implies.

A topology describes one bundle route built from consecutive spans, with
multi-fiber connectors at fixed positions along the route. Two named fiber
strands run through the bundle: the aggressor (probe-injection) fiber and the
victim fiber. Every connector where both strands occupy lanes is a potential
inter-fiber crosstalk point. Positions are measured in meters from the probe
injection end ("near" end).
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, ParameterError, read_dataclass, read_json
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
    """One cable section of the bundle route."""

    id: str
    length_m: float
    attenuation: tuple[tuple[float, float], ...] = DEFAULT_ATTENUATION_TABLE
    group_index: float = DEFAULT_GROUP_INDEX

    def __post_init__(self):
        _require_name(self.id, "id")
        _number(self, "length_m", minimum=0.0, strict=True)
        _number(self, "group_index", minimum=1.0, strict=True)
        table = self.attenuation
        if not isinstance(table, (tuple, list)) or not table:
            raise ParameterError("attenuation: expected a non-empty sequence of (nm, dB/km) pairs")
        checked = []
        for i, entry in enumerate(table):
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ParameterError(f"attenuation[{i}]: expected an (nm, dB/km) pair")
            nm = require_number(entry[0], f"attenuation[{i}][0]", minimum=0.0, strict=True)
            if checked and nm <= checked[-1][0]:
                raise ParameterError(f"attenuation[{i}]: wavelengths must be strictly increasing")
            checked.append((nm, require_number(entry[1], f"attenuation[{i}][1]", minimum=0.0)))
        object.__setattr__(self, "attenuation", tuple(checked))

    def attenuation_db_per_km(self, wavelength_nm: float) -> float:
        """Piecewise-linear attenuation lookup, flat beyond the table ends."""
        nms = [p[0] for p in self.attenuation]
        alphas = [p[1] for p in self.attenuation]
        if len(nms) == 1:
            return alphas[0]
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
    """A location where light leaks from the aggressor into the victim fiber."""

    position_m: float
    coupling: float | Callable[[float], float]
    source_element: str | None = None

    def coupling_db(self, wavelength_nm: float) -> float:
        if callable(self.coupling):
            return float(self.coupling(wavelength_nm))
        return float(self.coupling)


@dataclass(frozen=True)
class Topology:
    """Immutable plant description, fully checked when built.

    Construction checks that there is a span, that span and connector ids are
    unique, that connector positions strictly increase within the route, that
    the probe and victim differ, and that the detector end is "near" or "far".
    """

    spans: tuple[FiberSpan, ...]
    connectors: tuple[MpoConnector, ...] = ()
    aggressor_fiber_id: str = "aggressor"
    victim_fiber_id: str = "victim"
    detector_end: str = "near"

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
        if self.detector_end not in ("near", "far"):
            raise ParameterError(f"detector_end: expected one of ('near', 'far'), got {self.detector_end!r}")

    @property
    def total_length_m(self) -> float:
        return sum(s.length_m for s in self.spans)

    @property
    def fiber_ids(self) -> tuple[str, str]:
        return (self.aggressor_fiber_id, self.victim_fiber_id)

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


def crosstalk_points(topology: Topology) -> tuple[CrosstalkPoint, ...]:
    """Crosstalk points implied by connectors where both strands have lanes.

    Ordered by position (connector positions are strictly increasing by
    construction).
    """
    agg, vic = topology.fiber_ids
    points = []
    for conn in topology.connectors:
        if agg in conn.lanes and vic in conn.lanes:
            lane_a, lane_v = conn.lanes[agg], conn.lanes[vic]

            def coupling(nm, _c=conn, _a=lane_a, _v=lane_v):
                return mpo_coupling_db(_c, _a, _v, nm)

            points.append(
                CrosstalkPoint(
                    position_m=conn.position_m,
                    coupling=coupling,
                    source_element=conn.id,
                )
            )
    return tuple(points)


def path_loss_db(
    topology: Topology,
    fiber_id: str,
    from_m: float,
    to_m: float,
    wavelength_nm: float,
) -> float:
    """One-way loss between two positions on a strand, in dB.

    Span attenuation is integrated piecewise over the interval; each connector
    with ``from_m <= position < to_m`` adds its insertion loss (a connector
    exactly at an interval boundary counts in the later interval, which keeps
    losses additive under interval concatenation).
    """
    if fiber_id not in topology.fiber_ids:
        raise ParameterError(
            f"unknown fiber {fiber_id!r}; topology defines {topology.fiber_ids}"
        )
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
            loss += span.attenuation_db_per_km(nm) * overlap / 1000.0
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
    switch: Mapping | None = None  # accepted and checked, but nothing reads it yet

    def __post_init__(self):
        if self.schema_version != TOPOLOGY_SCHEMA_VERSION:
            raise ParameterError(
                f"schema_version: unsupported version {self.schema_version!r} (expected {TOPOLOGY_SCHEMA_VERSION})"
            )
        for name in ("spans", "connectors"):
            if not isinstance(getattr(self, name), list):
                raise ParameterError(f"{name}: expected an array")
        if self.switch is not None and not isinstance(self.switch, Mapping):
            raise ParameterError("switch: expected an object")


@dataclass(frozen=True)
class _Endpoint:
    """Where a strand meets the instrument: ``{"fiber": ..., "end": "near" | "far"}``."""

    fiber: str
    end: str = "near"

    def __post_init__(self):
        _require_name(self.fiber, "fiber")
        if self.end not in ("near", "far"):
            raise ParameterError(f"end: expected one of ('near', 'far'), got {self.end!r}")


def _parse_attenuation(value, path: str) -> tuple:
    """The document's attenuation as a span's table: a number is flat, a list holds [nm, dB/km] pairs."""
    if value is None:
        return DEFAULT_ATTENUATION_TABLE
    if isinstance(value, list):
        return tuple(tuple(entry) if isinstance(entry, list) else entry for entry in value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ((1550.0, value),)
    raise InputError(f"{path}: expected a number or a list of [nm, dB/km] pairs")


def _parse_span(obj, path: str) -> FiberSpan:
    """A span whose ``attenuation`` is read from the document key ``attenuation_db_per_km``."""
    if not isinstance(obj, Mapping):
        raise InputError(f"{path}: expected a JSON object")
    key = f"{path}.attenuation_db_per_km"
    attenuation = _parse_attenuation(obj.get("attenuation_db_per_km"), key)
    doc = {name: value for name, value in obj.items() if name != "attenuation_db_per_km"}
    try:
        return read_dataclass(doc, FiberSpan, path, attenuation=attenuation)
    except InputError as exc:  # the span calls its table attenuation; name the document's key
        raise InputError(re.sub(rf"^{re.escape(path)}\.attenuation\b", key, str(exc))) from None


def load_topology(source: "str | Path | Mapping") -> Topology:
    """Load and fully validate a topology document.

    ``source`` may be a mapping already parsed from JSON, or a path to a JSON
    file. Each element reaches its dataclass through :func:`read_dataclass`,
    which rejects every unknown key, and each dataclass checks its own
    values, so the rest of the package can trust the object. Any fault, an
    out-of-range value included, is an :class:`InputError` whose message
    starts with the element's path, such as
    ``topology.connectors[0].lane_count``.
    """
    doc = source if isinstance(source, Mapping) else read_json(source, "topology")
    top = read_dataclass(doc, _Document, "topology")
    spans = tuple(_parse_span(s, f"topology.spans[{i}]") for i, s in enumerate(top.spans))
    connectors = tuple(
        read_dataclass(c, MpoConnector, f"topology.connectors[{i}]") for i, c in enumerate(top.connectors)
    )
    probe = read_dataclass(top.probe, _Endpoint, "topology.probe")
    victim = read_dataclass(top.victim, _Endpoint, "topology.victim")
    if probe.end != "near":  # positions are defined from the probe-injection (near) end
        raise InputError(f"topology.probe.end: expected one of ('near',), got {probe.end!r}")
    return read_dataclass(
        {}, Topology, "topology", spans=spans, connectors=connectors,
        aggressor_fiber_id=probe.fiber, victim_fiber_id=victim.fiber, detector_end=victim.end,
    )
