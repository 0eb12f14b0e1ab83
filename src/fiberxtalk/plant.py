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
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, ParameterError, read_json
from .units import (
    C_M_PER_S,
    DEFAULT_ATTENUATION_TABLE,
    DEFAULT_GROUP_INDEX,
    require_number,
    validate_wavelength_nm,
)

SUPPORTED_LANE_COUNTS = (8, 12, 24, 48)
DEFAULT_BASE_COUPLING_DB = -100.0
DEFAULT_PITCH_ROLLOFF_DB_PER_LANE = 15.0
DEFAULT_INSERTION_LOSS_DB = 0.3
COUPLING_FLOOR_DB = -160.0

TOPOLOGY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FiberSpan:
    """One cable section of the bundle route."""

    id: str
    length_m: float
    attenuation: tuple[tuple[float, float], ...] = DEFAULT_ATTENUATION_TABLE
    group_index: float = DEFAULT_GROUP_INDEX

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
    """Immutable plant description; safe to share across threads after load."""

    spans: tuple[FiberSpan, ...]
    connectors: tuple[MpoConnector, ...] = ()
    aggressor_fiber_id: str = "aggressor"
    victim_fiber_id: str = "victim"
    detector_end: str = "near"

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
        if not isinstance(lane, int) or not 1 <= lane <= connector.lane_count:
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

_TOP_KEYS = {"schema_version", "spans", "connectors", "switch", "probe", "victim"}
_SPAN_KEYS = {"id", "length_m", "attenuation_db_per_km", "group_index"}
_CONNECTOR_KEYS = {
    "id",
    "position_m",
    "lanes",
    "lane_count",
    "lane_pitch_mm",
    "base_coupling_db",
    "pitch_rolloff_db_per_lane",
    "wavelength_slope_db_per_nm",
    "reference_nm",
    "insertion_loss_db",
}
_ENDPOINT_KEYS = {"fiber", "end"}


def _check_keys(obj: Mapping, allowed: set[str], path: str, lax: bool) -> None:
    if lax:
        return
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise InputError(f"{path}: unknown key(s) {unknown}; pass lax=True to ignore")


def _get(obj: Mapping, key: str, path: str):
    if key not in obj:
        raise InputError(f"{path}: missing required key {key!r}")
    return obj[key]


def _parse_attenuation(value, path: str) -> tuple[tuple[float, float], ...]:
    if value is None:
        return DEFAULT_ATTENUATION_TABLE
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ((1550.0, require_number(value, path, minimum=0.0)),)
    if not isinstance(value, list) or not value:
        raise InputError(f"{path}: expected a number or a non-empty [nm, dB/km] list")
    table = []
    last_nm = -math.inf
    for i, entry in enumerate(value):
        epath = f"{path}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"{epath}: expected an [nm, dB/km] pair")
        nm = require_number(entry[0], f"{epath}[0]", minimum=0.0, strict=True)
        alpha = require_number(entry[1], f"{epath}[1]", minimum=0.0)
        if nm <= last_nm:
            raise InputError(f"{epath}: wavelengths must be strictly increasing")
        last_nm = nm
        table.append((nm, alpha))
    return tuple(table)


def _parse_span(obj, path: str, lax: bool) -> FiberSpan:
    if not isinstance(obj, Mapping):
        raise InputError(f"{path}: expected an object")
    _check_keys(obj, _SPAN_KEYS, path, lax)
    span_id = _get(obj, "id", path)
    if not isinstance(span_id, str) or not span_id:
        raise InputError(f"{path}.id: expected a non-empty string")
    return FiberSpan(
        id=span_id,
        length_m=require_number(_get(obj, "length_m", path), f"{path}.length_m", minimum=0.0, strict=True),
        attenuation=_parse_attenuation(obj.get("attenuation_db_per_km"), f"{path}.attenuation_db_per_km"),
        group_index=require_number(obj.get("group_index", DEFAULT_GROUP_INDEX), f"{path}.group_index", minimum=1.0, strict=True),
    )


def _parse_connector(obj, path: str, lax: bool, total_length_m: float) -> MpoConnector:
    if not isinstance(obj, Mapping):
        raise InputError(f"{path}: expected an object")
    _check_keys(obj, _CONNECTOR_KEYS, path, lax)
    conn_id = _get(obj, "id", path)
    if not isinstance(conn_id, str) or not conn_id:
        raise InputError(f"{path}.id: expected a non-empty string")
    position = require_number(_get(obj, "position_m", path), f"{path}.position_m", minimum=0.0)
    if position > total_length_m:
        raise InputError(
            f"{path}: connector {conn_id!r} at {position} m lies beyond the "
            f"{total_length_m} m route"
        )
    lane_count = obj.get("lane_count", 12)
    if lane_count not in SUPPORTED_LANE_COUNTS:
        raise InputError(
            f"{path}.lane_count: {lane_count!r} not one of {SUPPORTED_LANE_COUNTS}"
        )
    lanes_obj = obj.get("lanes", {})
    if not isinstance(lanes_obj, Mapping):
        raise InputError(f"{path}.lanes: expected an object of fiber -> lane")
    lanes: dict[str, int] = {}
    for fiber, lane in lanes_obj.items():
        lpath = f"{path}.lanes.{fiber}"
        if isinstance(lane, bool) or not isinstance(lane, int):
            raise InputError(f"{lpath}: lane must be an integer")
        if not 1 <= lane <= lane_count:
            raise InputError(f"{lpath}: lane {lane} outside 1..{lane_count}")
        if lane in lanes.values():
            raise InputError(f"{lpath}: lane {lane} assigned to more than one fiber")
        lanes[str(fiber)] = lane
    base = require_number(obj.get("base_coupling_db", DEFAULT_BASE_COUPLING_DB), f"{path}.base_coupling_db")
    if base > 0.0:
        raise InputError(f"{path}.base_coupling_db: coupling must be <= 0 dB, got {base}")
    if "lane_pitch_mm" in obj:  # accepted and checked, but no model reads it
        require_number(obj["lane_pitch_mm"], f"{path}.lane_pitch_mm", minimum=0.0, strict=True)
    return MpoConnector(
        id=conn_id,
        position_m=position,
        lanes=lanes,
        lane_count=lane_count,
        base_coupling_db=base,
        pitch_rolloff_db_per_lane=require_number(obj.get("pitch_rolloff_db_per_lane", DEFAULT_PITCH_ROLLOFF_DB_PER_LANE), f"{path}.pitch_rolloff_db_per_lane", minimum=0.0),
        wavelength_slope_db_per_nm=require_number(obj.get("wavelength_slope_db_per_nm", 0.0), f"{path}.wavelength_slope_db_per_nm"),
        reference_nm=validate_wavelength_nm(require_number(obj.get("reference_nm", 1550.0), f"{path}.reference_nm")),
        insertion_loss_db=require_number(obj.get("insertion_loss_db", DEFAULT_INSERTION_LOSS_DB), f"{path}.insertion_loss_db", minimum=0.0),
    )


def _parse_endpoint(obj, path: str, lax: bool, allowed_ends: tuple[str, ...]) -> tuple[str, str]:
    if not isinstance(obj, Mapping):
        raise InputError(f"{path}: expected an object with 'fiber' and 'end'")
    _check_keys(obj, _ENDPOINT_KEYS, path, lax)
    fiber = _get(obj, "fiber", path)
    if not isinstance(fiber, str) or not fiber:
        raise InputError(f"{path}.fiber: expected a non-empty string")
    end = obj.get("end", "near")
    if end not in allowed_ends:
        raise InputError(f"{path}.end: expected one of {allowed_ends}, got {end!r}")
    return fiber, end


def load_topology(source: "str | Path | Mapping", *, lax: bool = False) -> Topology:
    """Load and fully validate a topology document.

    ``source`` may be a mapping already parsed from JSON, or a path to a JSON
    file. Unknown keys are rejected unless ``lax`` is set. All invariants are
    checked here so the rest of the package can trust the object; any fault,
    an out-of-range value included, is an :class:`InputError`.
    """
    doc = source if isinstance(source, Mapping) else read_json(source, "topology")
    try:
        return _parse_topology(doc, lax)
    except ParameterError as exc:
        raise InputError(str(exc)) from None


def _parse_topology(doc, lax: bool) -> Topology:
    if not isinstance(doc, Mapping):
        raise InputError("topology document: expected a JSON object at top level")
    _check_keys(doc, _TOP_KEYS, "topology", lax)

    version = doc.get("schema_version", TOPOLOGY_SCHEMA_VERSION)
    if version != TOPOLOGY_SCHEMA_VERSION:
        raise InputError(
            f"topology.schema_version: unsupported version {version!r} "
            f"(expected {TOPOLOGY_SCHEMA_VERSION})"
        )

    spans_obj = _get(doc, "spans", "topology")
    if not isinstance(spans_obj, list) or not spans_obj:
        raise InputError("topology.spans: expected a non-empty array")
    spans = tuple(_parse_span(s, f"topology.spans[{i}]", lax) for i, s in enumerate(spans_obj))
    seen = set()
    for i, span in enumerate(spans):
        if span.id in seen:
            raise InputError(f"topology.spans[{i}]: duplicate span id {span.id!r}")
        seen.add(span.id)
    total_length = sum(s.length_m for s in spans)

    connectors_obj = doc.get("connectors", [])
    if not isinstance(connectors_obj, list):
        raise InputError("topology.connectors: expected an array")
    connectors = []
    last_pos = -math.inf
    conn_ids: set[str] = set()
    for i, c in enumerate(connectors_obj):
        conn = _parse_connector(c, f"topology.connectors[{i}]", lax, total_length)
        if conn.id in conn_ids:
            raise InputError(f"topology.connectors[{i}]: duplicate connector id {conn.id!r}")
        conn_ids.add(conn.id)
        if conn.position_m <= last_pos:
            raise InputError(
                f"topology.connectors[{i}]: positions must be strictly increasing "
                f"(connector {conn.id!r} at {conn.position_m} m follows {last_pos} m)"
            )
        last_pos = conn.position_m
        connectors.append(conn)

    probe_fiber, probe_end = _parse_endpoint(_get(doc, "probe", "topology"), "topology.probe", lax, ("near",))
    victim_fiber, victim_end = _parse_endpoint(_get(doc, "victim", "topology"), "topology.victim", lax, ("near", "far"))
    if probe_fiber == victim_fiber:
        raise InputError(
            f"topology: probe and victim must be different fibers, both are {probe_fiber!r}"
        )
    del probe_end  # positions are defined from the probe-injection (near) end

    # Accepted and checked, but nothing reads it: switch models come from their own files.
    if doc.get("switch") is not None and not isinstance(doc["switch"], Mapping):
        raise InputError("topology.switch: expected an object")

    # Lanes may only reference the probe/victim strands or other named strands;
    # a connector lane naming a strand is fine, but the probe and victim must
    # not share a lane anywhere (checked per connector already via distinctness).
    return Topology(
        spans=spans,
        connectors=tuple(connectors),
        aggressor_fiber_id=probe_fiber,
        victim_fiber_id=victim_fiber,
        detector_end=victim_end,
    )
