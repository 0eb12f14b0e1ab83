"""Topology loading, validation, coupling, and path-loss behavior."""

import pytest
from hypothesis import given, strategies as st

import fiberxtalk as fx
from fiberxtalk import plant
from fiberxtalk.errors import InputError, ParameterError

from conftest import connector_doc, topology_doc

import functools

SPAN = plant.FiberSpan(id="s", length_m=10.0)

@functools.lru_cache(maxsize=1)
def _additivity_topology():
    # immutable after load, safe to share across hypothesis examples
    return fx.load_topology(
        topology_doc(
            [
                connector_doc("mpoA", 150.0),
                connector_doc("mpoB", 800.0),
                connector_doc("mpoC", 2300.0),
            ]
        )
    )


def _attenuation_case(table, message):
    """A span built with a faulty attenuation table, and the message it must raise.

    The case id keeps the short field name, attenuation, that these ids have always carried.
    """
    return pytest.param(
        lambda: plant.FiberSpan(id="s", length_m=1000.0, attenuation_db_per_km=table),
        "^attenuation_db_per_km" + message,
        id="<lambda>-^attenuation" + message,
    )


class TestLoadTopology:
    def test_minimal_document(self):
        topo = fx.load_topology(topology_doc())
        assert topo.total_length_m == 5000.0
        assert fx.crosstalk_points(topo, 1550.0) == ()

    def test_connector_read_back(self):
        topo = fx.load_topology(topology_doc([connector_doc("mpo1", 1021.0)]))
        points = fx.crosstalk_points(topo, 1550.0)
        assert len(points) == 1
        assert points[0].position_m == 1021.0
        assert points[0].coupling_db == pytest.approx(-100.0)
        assert points[0].source_element == "mpo1"

    def test_connector_beyond_route_rejected(self):
        doc = topology_doc([connector_doc("mpo1", 6000.0)])
        with pytest.raises(InputError, match="mpo1.*beyond"):
            fx.load_topology(doc)

    def test_equal_positions_rejected(self):
        doc = topology_doc([connector_doc("a", 100.0), connector_doc("b", 100.0)])
        with pytest.raises(InputError, match="strictly increasing"):
            fx.load_topology(doc)

    def test_unknown_key_is_an_error(self):
        doc = topology_doc()
        doc["comment"] = "not in the schema"
        with pytest.raises(InputError, match=r"^topology: unknown key\(s\) \['comment'\]"):
            fx.load_topology(doc)

    def test_identical_probe_and_victim_rejected(self):
        doc = topology_doc()
        doc["victim"] = {"fiber": "agg", "end": "near"}
        with pytest.raises(InputError, match="different fibers"):
            fx.load_topology(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            fx.load_topology(tmp_path / "nope.json")

    def test_error_paths_name_the_element(self):
        doc = topology_doc([connector_doc("mpo1", 10.0, lane_count=9)])
        with pytest.raises(InputError, match=r"connectors\[0\].lane_count"):
            fx.load_topology(doc)

    @pytest.mark.parametrize("connector_extra,top_extra", [
        ({"reference_nm": 900.0}, {}),
        ({"lane_pitch_mm": 0.0}, {}),
        ({"base_coupling_db": True}, {}),
        ({}, {"switch": 5}),
        ({"lanes": {"agg": True, "vic": 6}}, {}),
        ({}, {"spans": []}),
    ])
    def test_any_fault_is_input_error(self, connector_extra, top_extra):
        doc = topology_doc([connector_doc("mpo1", 10.0, **connector_extra)])
        doc.update(top_extra)
        with pytest.raises(InputError):
            fx.load_topology(doc)

    def test_unread_keys_are_refused(self):
        # nothing reads a switch object, so the topology schema has none and rejects it
        doc = topology_doc([connector_doc("mpo1", 10.0)])
        doc["switch"] = {"n_in": 8}
        with pytest.raises(InputError, match=r"^topology: unknown key\(s\) \['switch'\]"):
            fx.load_topology(doc)
        del doc["switch"]
        # no model reads a lane pitch, so the connector schema has none and rejects it
        doc["connectors"][0]["lane_pitch_mm"] = 0.5
        with pytest.raises(InputError, match=r"^topology.connectors\[0\]: unknown key\(s\) \['lane_pitch_mm'\]"):
            fx.load_topology(doc)

    @pytest.mark.parametrize("build, message", [
        (lambda: plant.FiberSpan(id="s", length_m=-1.0), r"^length_m must be > 0.0, got -1.0$"),
        (lambda: plant.FiberSpan(id="s", length_m=10.0, group_index=0.5), "^group_index must be > 1.0"),
        (lambda: plant.FiberSpan(id="", length_m=10.0), "^id: expected a non-empty string$"),
        _attenuation_case(((1550.0, -5.0),), r"\[0\]\[1\] must be >= 0.0, got -5.0$"),
        _attenuation_case((), r": expected a non-empty sequence of \(nm, dB/km\) pairs$"),
        _attenuation_case(((1550.0, 0.2), (1310.0, 0.35)), r"\[1\]: wavelengths must be strictly increasing$"),
        _attenuation_case(((1550.0,),), r"\[0\]: expected an \(nm, dB/km\) pair$"),
        _attenuation_case(((float("inf"), 0.2),), r"\[0\]\[0\] must be finite"),
        (lambda: plant.MpoConnector(id="c", position_m=1.0, base_coupling_db=5.0), "coupling must be <= 0 dB"),
        (lambda: plant.MpoConnector(id="c", position_m=1.0, lane_count=7), r"^lane_count: 7 not one of"),
        (lambda: plant.MpoConnector(id="c", position_m=1.0, lanes={"a": 99}), r"^lanes.a: lane 99 outside 1..12$"),
        (lambda: plant.MpoConnector(id="c", position_m=1.0, lanes={"a": True}), "^lanes.a must be an integer >= 1"),
        (lambda: plant.MpoConnector(id="c", position_m=1.0, lanes={"a": 3, "b": 3}), "more than one fiber"),
        (lambda: plant.MpoConnector(id="c", position_m=1.0, reference_nm=900.0), "outside validated range"),
        (lambda: plant.MpoConnector(id="c", position_m=1.0, insertion_loss_db=-0.1), "^insertion_loss_db must be >= 0.0"),
        (lambda: plant.Topology(spans=()), "^spans: expected at least one span$"),
        (lambda: plant.Topology(spans=(SPAN, SPAN)), r"^spans\[1\]: duplicate span id 's'$"),
        (lambda: plant.Topology(spans=(SPAN,), connectors=(plant.MpoConnector("c", 20.0),)), "lies beyond the 10.0 m route"),
        (lambda: plant.Topology(spans=(SPAN,), connectors=(plant.MpoConnector("c", 5.0), plant.MpoConnector("d", 5.0))),
         r"^connectors\[1\]: positions must be strictly increasing"),
        (lambda: plant.Topology(spans=(SPAN,), connectors=(plant.MpoConnector("c", 5.0), plant.MpoConnector("c", 6.0))),
         r"^connectors\[1\]: duplicate connector id 'c'$"),
        (lambda: plant.Topology(spans=(SPAN,), aggressor_fiber_id="a", victim_fiber_id="a"), "different fibers"),
    ])
    def test_direct_construction_is_checked(self, build, message):
        with pytest.raises(ParameterError, match=message):
            build()

    def test_lane_collision_rejected(self):
        bad = connector_doc("mpo1", 10.0)
        bad["lanes"] = {"agg": 5, "vic": 5}
        with pytest.raises(InputError, match="more than one fiber"):
            fx.load_topology(topology_doc([bad]))

    @pytest.mark.parametrize("end", ["far", "Near"])
    def test_victim_end_must_be_near(self, end):
        with pytest.raises(InputError, match=rf"^topology.victim.end: expected one of \('near',\), got '{end}'$"):
            fx.load_topology(topology_doc(victim_end=end))

    def test_json_file_round_trip(self, tmp_path):
        import json

        path = tmp_path / "topo.json"
        path.write_text(json.dumps(topology_doc([connector_doc("mpo1", 42.0)])))
        topo = fx.load_topology(path)
        assert fx.crosstalk_points(topo, 1550.0)[0].position_m == 42.0


class TestCrosstalkPoints:
    def test_three_connectors_three_points(self, three_point_topology):
        points = fx.crosstalk_points(three_point_topology, 1550.0)
        assert [p.position_m for p in points] == [150.0, 800.0, 2300.0]
        assert [p.source_element for p in points] == ["mpoA", "mpoB", "mpoC"]

    def test_connector_without_shared_lanes_is_skipped(self):
        solo = connector_doc("other", 10.0)
        solo["lanes"] = {"agg": 1, "unrelated": 2}
        topo = fx.load_topology(topology_doc([solo]))
        assert fx.crosstalk_points(topo, 1550.0) == ()


class TestMpoCoupling:
    def test_adjacent_lane_nominal(self):
        conn = plant.MpoConnector(id="c", position_m=0.0, lanes={})
        assert fx.mpo_coupling_db(conn, 5, 6, 1550.0) == pytest.approx(-100.0)

    def test_rolloff(self):
        conn = plant.MpoConnector(id="c", position_m=0.0, lanes={})
        assert fx.mpo_coupling_db(conn, 2, 5, 1550.0) == pytest.approx(-130.0)  # -100 - 15*2

    def test_floor(self):
        conn = plant.MpoConnector(id="c", position_m=0.0, lanes={})
        assert fx.mpo_coupling_db(conn, 1, 6, 1550.0) == pytest.approx(-160.0)

    def test_same_lane_rejected(self):
        conn = plant.MpoConnector(id="c", position_m=0.0, lanes={})
        with pytest.raises(ParameterError, match="differ"):
            fx.mpo_coupling_db(conn, 3, 3, 1550.0)

    def test_lane_out_of_range(self):
        conn = plant.MpoConnector(id="c", position_m=0.0, lanes={}, lane_count=8)
        with pytest.raises(ParameterError, match="lane"):
            fx.mpo_coupling_db(conn, 1, 9, 1550.0)

    def test_wavelength_slope(self):
        conn = plant.MpoConnector(
            id="c", position_m=0.0, lanes={}, wavelength_slope_db_per_nm=0.01
        )
        at_ref = fx.mpo_coupling_db(conn, 5, 6, 1550.0)
        shifted = fx.mpo_coupling_db(conn, 5, 6, 1650.0)
        assert shifted - at_ref == pytest.approx(1.0, rel=1e-9)

    @given(
        sep_a=st.integers(min_value=1, max_value=11),
        sep_b=st.integers(min_value=1, max_value=11),
        rolloff=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    )
    def test_monotone_in_lane_separation(self, sep_a, sep_b, rolloff):
        conn = plant.MpoConnector(
            id="c", position_m=0.0, lanes={}, pitch_rolloff_db_per_lane=rolloff
        )
        near = fx.mpo_coupling_db(conn, 1, 1 + min(sep_a, sep_b), 1550.0)
        far = fx.mpo_coupling_db(conn, 1, 1 + max(sep_a, sep_b), 1550.0)
        assert far <= near + 1e-12


class TestPathLoss:
    def test_empty_interval(self, three_point_topology):
        assert fx.path_loss_db(three_point_topology, 321.0, 321.0, 1550.0) == 0.0

    def test_plain_kilometer(self):
        topo = fx.load_topology(topology_doc())
        assert fx.path_loss_db(topo, 0.0, 1000.0, 1550.0) == pytest.approx(0.2, rel=1e-9)

    def test_crossing_one_connector(self):
        topo = fx.load_topology(topology_doc([connector_doc("mpo1", 900.0)]))
        got = fx.path_loss_db(topo, 0.0, 2000.0, 1550.0)
        assert got == pytest.approx(0.2 * 2 + 0.3, rel=1e-9)

    def test_connector_at_upper_boundary_excluded(self):
        topo = fx.load_topology(topology_doc([connector_doc("mpo1", 2000.0)]))
        assert fx.path_loss_db(topo, 0.0, 2000.0, 1550.0) == pytest.approx(0.4, rel=1e-9)
        assert fx.path_loss_db(topo, 2000.0, 2500.0, 1550.0) == pytest.approx(
            0.1 + 0.3, rel=1e-9
        )

    def test_out_of_range_positions(self, three_point_topology):
        with pytest.raises(ParameterError):
            fx.path_loss_db(three_point_topology, -1.0, 10.0, 1550.0)
        with pytest.raises(ParameterError):
            fx.path_loss_db(three_point_topology, 10.0, 5.0, 1550.0)
        with pytest.raises(ParameterError):
            fx.path_loss_db(three_point_topology, 0.0, 5001.0, 1550.0)

    def test_takes_no_strand(self, three_point_topology):
        # both strands cross the same spans and connectors: the route has one loss
        assert fx.path_loss_db(three_point_topology, 0.0, 1000.0, 1550.0) == pytest.approx(0.2 + 2 * 0.3, rel=1e-9)
        with pytest.raises(TypeError):
            fx.path_loss_db(three_point_topology, "agg", 0.0, 10.0, 1550.0)

    @given(
        a=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
        c=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
    )
    def test_additive_over_concatenation(self, a, b, c):
        topo = _additivity_topology()
        lo, mid, hi = sorted((a, b, c))
        combined = fx.path_loss_db(topo, lo, mid, 1550.0) + fx.path_loss_db(topo, mid, hi, 1550.0)
        direct = fx.path_loss_db(topo, lo, hi, 1550.0)
        assert combined == pytest.approx(direct, abs=1e-9)

    def test_additivity_with_split_exactly_at_connector(self, three_point_topology):
        left = fx.path_loss_db(three_point_topology, 0.0, 800.0, 1550.0)
        right = fx.path_loss_db(three_point_topology, 800.0, 2300.0, 1550.0)
        direct = fx.path_loss_db(three_point_topology, 0.0, 2300.0, 1550.0)
        assert left + right == pytest.approx(direct, abs=1e-12)


class TestAttenuationTable:
    def test_interpolation_between_anchors(self):
        span = plant.FiberSpan(id="s", length_m=1.0)
        assert span.attenuation_at(1430.0) == pytest.approx(0.275, rel=1e-9)

    def test_flat_extrapolation(self):
        span = plant.FiberSpan(id="s", length_m=1.0)
        assert span.attenuation_at(1260.0) == pytest.approx(0.35)
        assert span.attenuation_at(1650.0) == pytest.approx(0.20)

    def test_scalar_table_from_document(self):
        topo = fx.load_topology(topology_doc(span_extra={"attenuation_db_per_km": 0.5}))
        assert topo.spans[0].attenuation_at(1310.0) == 0.5
        assert topo.spans[0].attenuation_db_per_km == ((1550.0, 0.5),)

    @pytest.mark.parametrize("nm", [1310.0, 1625.0])
    def test_scalar_is_the_one_pair_table(self, nm):
        doc = topology_doc([connector_doc("mpo1", 900.0)])
        scalar = fx.load_topology(doc | {"spans": [{"id": "s", "length_m": 2000.0, "attenuation_db_per_km": 0.3}]})
        table = fx.load_topology(doc | {"spans": [{"id": "s", "length_m": 2000.0, "attenuation_db_per_km": [[1550, 0.3]]}]})
        assert fx.path_loss_db(scalar, 0.0, 1500.0, nm) == fx.path_loss_db(table, 0.0, 1500.0, nm)
        assert fx.path_loss_db(scalar, 0.0, 1500.0, nm) == pytest.approx(0.3 * 1.5 + 0.3, rel=1e-12)

    @pytest.mark.parametrize("table, message", [
        (-5.0, r"\[0\]\[1\] must be >= 0.0, got -5.0$"),
        ([], ": expected a non-empty sequence"),
        ([[1550.0, 0.2], [1310.0, 0.35]], r"\[1\]: wavelengths must be strictly increasing$"),
        ([[1550.0, 0.2, 0.1]], r"\[0\]: expected an \(nm, dB/km\) pair$"),
        ("0.2", r": expected a number or a sequence of \(nm, dB/km\) pairs$"),
        (None, r": expected a number or a sequence of \(nm, dB/km\) pairs$"),  # a span without the key takes the default
    ])
    def test_document_faults_name_the_key(self, table, message):
        with pytest.raises(InputError, match=r"^topology.spans\[0\].attenuation_db_per_km" + message):
            fx.load_topology(topology_doc(span_extra={"attenuation_db_per_km": table}))


class TestDelayDistanceMap:
    def test_uniform_plant_matches_closed_form(self, three_point_topology):
        delay = plant.delay_ps_for_distance(three_point_topology, 1021.0)
        assert plant.distance_for_delay_ps(three_point_topology, delay) == pytest.approx(
            1021.0, abs=1e-9
        )
        C = 299792458.0  # oracle: round-trip closed form at the uniform group index
        assert C * delay * 1e-12 / (2 * 1.468) == pytest.approx(1021.0, abs=1e-9)

    def test_mixed_index_round_trip(self):
        doc = {
            "spans": [
                {"id": "s1", "length_m": 1000.0, "group_index": 1.45},
                {"id": "s2", "length_m": 1000.0, "group_index": 1.49},
            ],
            "connectors": [],
            "probe": {"fiber": "agg", "end": "near"},
            "victim": {"fiber": "vic", "end": "near"},
        }
        topo = fx.load_topology(doc)
        for d in (0.0, 500.0, 1000.0, 1500.0, 2000.0):
            delay = plant.delay_ps_for_distance(topo, d)
            assert plant.distance_for_delay_ps(topo, delay) == pytest.approx(d, abs=1e-9)
