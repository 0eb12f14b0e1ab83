"""Switch crosstalk model, sweeps, and assignment planning."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberxtalk as fx
from fiberxtalk.errors import DataError, ParameterError, ResourceError
from fiberxtalk import switchlab
from fiberxtalk.switchlab import (
    ChannelPlacement,
    ConfigSweepPoint,
    assignment_search_space,
    load_measured_table,
)


DEFAULT = fx.SwitchModel()


class TestSwitchXtalk:
    def test_adjacent_on_both_planes_is_c0(self):
        assert fx.switch_xtalk_db(DEFAULT, (1, 10), (2, 9), 1310.0) == pytest.approx(-50.0)

    def test_maximally_separated(self):
        # -50 - 5*6 - 5*6
        assert fx.switch_xtalk_db(DEFAULT, (1, 16), (8, 9), 1310.0) == pytest.approx(-110.0)

    def test_wavelength_shift_of_300nm_adds_10db(self):
        at_ref = fx.switch_xtalk_db(DEFAULT, (1, 10), (2, 9), 1310.0)
        shifted = fx.switch_xtalk_db(DEFAULT, (1, 10), (2, 9), 1610.0)
        assert shifted - at_ref == pytest.approx(10.0, abs=1e-9)

    def test_floor_clamp(self):
        model = fx.SwitchModel(beta_in_db_per_port=20.0, beta_out_db_per_port=20.0)
        assert fx.switch_xtalk_db(model, (1, 16), (8, 9), 1310.0) == model.floor_db

    def test_shared_port_rejected(self):
        with pytest.raises(ParameterError, match="share"):
            fx.switch_xtalk_db(DEFAULT, (1, 10), (1, 9), 1310.0)
        with pytest.raises(ParameterError, match="share"):
            fx.switch_xtalk_db(DEFAULT, (1, 10), (2, 10), 1310.0)

    def test_port_ranges_enforced(self):
        with pytest.raises(ParameterError):
            fx.switch_xtalk_db(DEFAULT, (0, 10), (2, 9), 1310.0)
        with pytest.raises(ParameterError):
            fx.switch_xtalk_db(DEFAULT, (1, 20), (2, 9), 1310.0)

    @given(
        a_in=st.integers(1, 8), v_in=st.integers(1, 8),
        a_out=st.integers(9, 16), v_out=st.integers(9, 16),
        nm=st.floats(min_value=1260.0, max_value=1610.0),
    )
    def test_symmetry_under_role_swap(self, a_in, v_in, a_out, v_out, nm):
        if a_in == v_in or a_out == v_out:
            return
        forward = fx.switch_xtalk_db(DEFAULT, (a_in, a_out), (v_in, v_out), nm)
        backward = fx.switch_xtalk_db(DEFAULT, (v_in, v_out), (a_in, a_out), nm)
        assert forward == backward

    @given(sep_small=st.integers(1, 6), sep_large=st.integers(1, 6))
    def test_monotone_in_separation(self, sep_small, sep_large):
        lo, hi = sorted((sep_small, sep_large))
        near = fx.switch_xtalk_db(DEFAULT, (1, 10), (1 + lo, 9), 1310.0)
        far = fx.switch_xtalk_db(DEFAULT, (1, 10), (1 + hi, 9), 1310.0)
        assert far <= near + 1e-12


class TestMeasuredMode:
    def table_model(self):
        table = {
            (1, 10, 2, 9): [(1310.0, -48.0), (1550.0, -40.0)],
            (1, 11, 2, 9): [(1310.0, -60.0)],
        }
        return fx.SwitchModel(table=table)

    def test_exact_and_interpolated_lookup(self):
        model = self.table_model()
        assert fx.switch_xtalk_db(model, (1, 10), (2, 9), 1310.0) == -48.0
        assert fx.switch_xtalk_db(model, (1, 10), (2, 9), 1430.0) == pytest.approx(-44.0)

    def test_outside_range_clamps_to_nearest(self):
        model = self.table_model()
        assert fx.switch_xtalk_db(model, (1, 10), (2, 9), 1260.0) == -48.0
        assert fx.switch_xtalk_db(model, (1, 10), (2, 9), 1600.0) == -40.0

    def test_single_point_entry(self):
        model = self.table_model()
        assert fx.switch_xtalk_db(model, (1, 11), (2, 9), 1500.0) == -60.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("vals", [(-math.inf, -40.0), (-40.0, -math.inf), (-math.inf, -math.inf)])
    def test_minus_inf_point_holds_strictly_between(self, vals):
        lams = [1300.0, 1550.0]
        assert switchlab._interpolate(lams, list(vals), 1300.0) == vals[0]
        assert switchlab._interpolate(lams, list(vals), 1550.0) == vals[1]
        for nm in (1300.5, 1400.0, 1549.5):
            assert switchlab._interpolate(lams, list(vals), nm) == -math.inf
        model = fx.SwitchModel(table={(1, 10, 2, 9): list(zip(lams, vals))})
        assert fx.switch_xtalk_db(model, (1, 10), (2, 9), 1400.0) == -math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_minus_inf_entry_leaks_nothing_but_keeps_the_other_leaks(self):
        # At 1400 nm path 1->4 leaks nothing into 2->5 and every other path -50 dB.
        # A NaN there once made the whole sum read as -inf dB.
        ins, outs = (1, 2, 3), (4, 5, 6)
        table = {
            (a_in, a_out, v_in, v_out): [(1400.0, -50.0)]
            for a_in, a_out, v_in, v_out in itertools.product(ins, outs, ins, outs)
            if a_in != v_in and a_out != v_out
        }
        table[1, 4, 2, 5] = [(1300.0, -math.inf), (1550.0, -40.0)]
        model = fx.SwitchModel(n_in=3, n_out=3, reference_nm=1400.0, table=table)
        oracle = fx.brute_force_assignment(model, 2, 1)
        plan = fx.optimize_assignment(model, 2, 1)
        assert (plan.classical, plan.quantum, plan.objective_db) == (
            oracle.classical, oracle.quantum, oracle.objective_db
        )
        assert oracle.objective_db == -50.0
        assert oracle.quantum == (ChannelPlacement(2, 5, 1400.0),)

    def test_missing_pair_is_a_data_error(self):
        model = self.table_model()
        with pytest.raises(DataError, match="no measured crosstalk"):
            fx.switch_xtalk_db(model, (3, 12), (4, 13), 1310.0)

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "a_in,a_out,v_in,v_out,lambda_nm,xtalk_db\n"
            "1,10,2,9,1310.0,-48.0\n"
            "1,10,2,9,1550.0,-40.0\n"
        )
        table = load_measured_table(path)
        assert table[(1, 10, 2, 9)] == [(1310.0, -48.0), (1550.0, -40.0)]

    def test_csv_loader_accepted_forms(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(
            b"a_in,a_out,v_in,v_out,lambda_nm,xtalk_db\r\n"
            b"1,10,2,9,1310.0,-48.0\r\n\r\n"
            b'"1", 10 ,2,9,1550,-40.25,extra\r\n'
            b"3,11,4,12,1.31e3,-inf\r\n"
        )
        table = load_measured_table(path)
        assert table == {(1, 10, 2, 9): [(1310.0, -48.0), (1550.0, -40.25)], (3, 11, 4, 12): [(1310.0, float("-inf"))]}
        assert all(type(port) is int for key in table for port in key)
        assert all(type(x) is float for entries in table.values() for entry in entries for x in entry)

    @pytest.mark.parametrize("row", [
        "1,10,2,9,1310.0", "1,10,2,9.5,1310.0,-48.0", "1,10,2,9,1_310,-48.0",
        "1,10,2,9223372036854775808,1310.0,-48.0", "1,10,2,9,1310.0,abc",
    ], ids=["missing-column", "float-port", "underscore", "int64-overflow", "junk-xtalk"])
    def test_csv_loader_rejects_malformed_rows(self, tmp_path, row):
        path = tmp_path / "table.csv"
        path.write_text(f"a_in,a_out,v_in,v_out,lambda_nm,xtalk_db\n1,10,2,9,1310.0,-48.0\n{row}\n")
        with pytest.raises(DataError, match="not a readable CSV file"):
            load_measured_table(path)

    @pytest.mark.parametrize("value", ["5000.0", "nan"])
    def test_csv_loader_rejects_crosstalk_above_0_db(self, tmp_path, value):
        path = tmp_path / "table.csv"
        path.write_text(f"a_in,a_out,v_in,v_out,lambda_nm,xtalk_db\n1,10,2,9,1310.0,{value}\n")
        with pytest.raises(DataError, match="data row 1: crosstalk"):
            load_measured_table(path)


class TestSweeps:
    def test_config_sweep_structure_and_maximum(self):
        points = fx.sweep_configs(DEFAULT)
        assert len(points) == 49  # 7 aggressor outputs x 7 victim inputs
        first = points[0]
        assert first.aggressor == (1, 10) and first.victim == (2, 9)
        assert first.xtalk_db == pytest.approx(-50.0)
        rest = [p.xtalk_db for p in points[1:]]
        assert all(x < first.xtalk_db for x in rest)

    def test_crosstalk_above_0_db_rejected(self):
        model = fx.SwitchModel(c0_db=-10.0)  # the default 1/30 dB/nm slope passes 0 dB at 1610 nm
        assert fx.switch_xtalk_db(model, (1, 10), (2, 9), 1600.0) < 0.0
        with pytest.raises(ParameterError, match="at most 0 dB"):
            fx.switch_xtalk_db(model, (1, 10), (2, 9), 1700.0)

    def test_degenerate_betas_flatten_the_table(self):
        model = fx.SwitchModel(beta_in_db_per_port=0.0, beta_out_db_per_port=0.0)
        points = fx.sweep_configs(model)
        assert {p.xtalk_db for p in points} == {-50.0}

    def test_measured_values_echoed(self):
        table = {}
        for agg_out in range(10, 17):
            for vic_in in range(2, 9):
                table[(1, agg_out, vic_in, 9)] = [(1310.0, -float(agg_out + vic_in))]
        model = fx.SwitchModel(table=table)
        points = fx.sweep_configs(model)
        for p in points:
            assert p.xtalk_db == -float(p.aggressor[1] + p.victim[0])

    def test_wavelength_sweep_monotone_and_exact_rise(self):
        grid = list(np.arange(1260.0, 1560.0 + 1e-9, 10.0))
        curve = fx.sweep_wavelength(DEFAULT, (1, 10), (2, 9), grid)
        values = [db for _, db in curve]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] - values[0] == pytest.approx(10.0, abs=1e-9)

    def test_zero_slope_is_flat(self):
        model = fx.SwitchModel(slope_db_per_nm=0.0)
        curve = fx.sweep_wavelength(model, (1, 10), (2, 9), [1260.0, 1410.0, 1560.0])
        assert {db for _, db in curve} == {-50.0}

    def test_single_point_grid(self):
        curve = fx.sweep_wavelength(DEFAULT, (1, 10), (2, 9), [1310.0])
        assert curve == [(1310.0, -50.0)]

    def test_sweep_point_label(self):
        point = ConfigSweepPoint(aggressor=(1, 10), victim=(2, 9), xtalk_db=-50.0)
        assert point.label == "1->10,2->9"


def random_model(rng):
    n = int(rng.integers(3, 5))
    return fx.SwitchModel(
        n_in=n,
        n_out=n,
        c0_db=float(rng.uniform(-60.0, -40.0)),
        beta_in_db_per_port=float(rng.uniform(0.0, 8.0)),
        beta_out_db_per_port=float(rng.uniform(0.0, 8.0)),
        slope_db_per_nm=float(rng.uniform(-0.05, 0.05)),
        floor_db=-120.0,
    )


def hard_model(rng):
    """A small model with many exact ties: placements that mirror each other,
    steep betas that reach the floor, or a measured table of whole-dB values
    at one or two wavelengths."""
    n_in, n_out = (int(n) for n in rng.integers(3, 5, size=2))
    kind = rng.random()
    if kind < 0.66:
        steep = kind >= 0.33
        return fx.SwitchModel(
            n_in=n_in,
            n_out=n_out,
            c0_db=float(rng.uniform(-60.0, -40.0)),
            beta_in_db_per_port=float(rng.uniform(10.0, 40.0) if steep else rng.uniform(0.0, 8.0)),
            beta_out_db_per_port=float(rng.uniform(10.0, 40.0) if steep else rng.uniform(0.0, 8.0)),
            slope_db_per_nm=float(rng.choice([0.0, rng.uniform(-0.05, 0.05)])),
            floor_db=float(rng.uniform(-90.0, -60.0)) if steep else -120.0,
        )
    ins = range(1, n_in + 1)
    outs = range(n_in + 1, n_in + n_out + 1)
    table = {}
    for a_in, a_out, v_in, v_out in itertools.product(ins, outs, ins, outs):
        if a_in != v_in and a_out != v_out:
            lams = (1300.0, 1550.0)[: int(rng.integers(1, 3))]
            table[a_in, a_out, v_in, v_out] = [(lam, float(rng.integers(-60, -40))) for lam in lams]
    return fx.SwitchModel(n_in=n_in, n_out=n_out, table=table)


class TestAssignment:
    def test_default_single_pair_spreads_ports(self):
        assignment = fx.optimize_assignment(fx.SwitchModel(), 1, 1)
        assert assignment.objective_db == pytest.approx(-110.0, abs=1e-9)
        assert assignment.classical == (ChannelPlacement(1, 9, 1310.0),)
        assert assignment.quantum == (ChannelPlacement(8, 16, 1310.0),)
        oracle = fx.brute_force_assignment(fx.SwitchModel(), 1, 1)
        assert oracle.objective_db == assignment.objective_db
        assert oracle.classical == assignment.classical
        assert oracle.quantum == assignment.quantum

    def test_two_by_two_forced(self):
        model = fx.SwitchModel(n_in=2, n_out=2)
        assignment = fx.brute_force_assignment(model, 1, 1)
        # only separation 1/1 placements exist; lexicographic winner
        assert assignment.classical == (ChannelPlacement(1, 3, 1310.0),)
        assert assignment.quantum == (ChannelPlacement(2, 4, 1310.0),)
        assert assignment.objective_db == pytest.approx(model.c0_db, abs=1e-9)

    def test_no_classical_channels_means_no_leakage(self):
        assignment = fx.optimize_assignment(fx.SwitchModel(), 0, 2)
        assert assignment.objective_db == -math.inf
        assert len(assignment.quantum) == 2

    def test_single_classical_objective_equals_pairwise_xtalk(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = random_model(rng)
            assignment = fx.optimize_assignment(model, 1, 1)
            pairwise = fx.switch_xtalk_db(
                model,
                (assignment.classical[0].input, assignment.classical[0].output),
                (assignment.quantum[0].input, assignment.quantum[0].output),
                assignment.classical[0].wavelength_nm,
            )
            assert assignment.objective_db == pytest.approx(pairwise, abs=1e-9)

    def test_optimizer_matches_oracle_on_random_models(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            model = random_model(rng)
            k_c = int(rng.integers(0, 3))
            k_q = int(rng.integers(0, min(3, model.n_in - k_c) + 1))
            bands = None
            if rng.random() < 0.5:
                bands = {"classical": "O", "quantum": "C"}
            fast = fx.optimize_assignment(model, k_c, k_q, bands)
            slow = fx.brute_force_assignment(model, k_c, k_q, bands)
            assert fast.objective_db == slow.objective_db
            assert fast.classical == slow.classical
            assert fast.quantum == slow.quantum

    def test_optimizer_matches_oracle_on_hard_models(self):
        rng = np.random.default_rng(3)
        # The custom band puts non-dominated carriers at both ends.
        bands = (None, {"classical": "O", "quantum": "C"}, {"classical": (1300.0, 1550.0)})
        for _ in range(80):
            model = hard_model(rng)
            n = min(model.n_in, model.n_out)
            k_c = int(rng.integers(1, n))
            k_q = int(rng.integers(1, n - k_c + 1))
            band = bands[int(rng.integers(len(bands)))]
            fast = fx.optimize_assignment(model, k_c, k_q, band)
            slow = fx.brute_force_assignment(model, k_c, k_q, band)
            assert fast.objective_db == slow.objective_db
            assert fast.classical == slow.classical
            assert fast.quantum == slow.quantum

    def test_band_choice_follows_the_slope(self):
        model = fx.SwitchModel()  # slope > 0
        o_classical = fx.optimize_assignment(
            model, 1, 1, {"classical": "O", "quantum": "C"}
        )
        swapped = fx.optimize_assignment(
            model, 1, 1, {"classical": "C", "quantum": "O"}
        )
        assert o_classical.objective_db < swapped.objective_db
        gap = (1530.0 - 1260.0) * model.slope_db_per_nm
        assert swapped.objective_db - o_classical.objective_db == pytest.approx(gap, abs=1e-9)

    def test_large_switch_stops_at_the_floor_bound(self):
        # 4.8e8 assignments, beyond the oracle: every classical-quantum pair
        # can sit at the -120 dB floor, so each quantum channel gets 2e-12.
        assignment = fx.optimize_assignment(fx.SwitchModel(n_in=16, n_out=16), 2, 2)
        assert assignment.method == "exhaustive"
        assert assignment.objective_db == 10.0 * math.log10(2e-12)

    def test_work_budget_exceeded_is_resource_error(self, monkeypatch):
        monkeypatch.setattr(switchlab, "PLAN_WORK_LIMIT", 1000)
        with pytest.raises(ResourceError, match="leak table of 3136 entries"):
            fx.optimize_assignment(fx.SwitchModel(), 2, 2)
        monkeypatch.setattr(switchlab, "PLAN_WORK_LIMIT", 5000)
        with pytest.raises(ResourceError, match="5000 nodes"):
            fx.optimize_assignment(fx.SwitchModel(), 7, 1)

    def test_oracle_refuses_large_spaces(self):
        with pytest.raises(ResourceError):
            fx.brute_force_assignment(fx.SwitchModel(), 3, 3, max_states=1000)

    def test_infeasible_counts_rejected(self):
        with pytest.raises(ParameterError):
            fx.optimize_assignment(fx.SwitchModel(n_in=4, n_out=4), 3, 2)

    def test_search_space_formula(self):
        model = fx.SwitchModel(n_in=4, n_out=4)
        # C(4,1)*P(4,1)*C(3,1)*P(3,1) = 4*4*3*3
        assert assignment_search_space(model, 1, 1) == 144
        # with a non-degenerate classical band the endpoints double the states
        assert assignment_search_space(model, 1, 1, {"classical": "O"}) == 288

    def test_assignment_config_is_valid(self):
        assignment = fx.optimize_assignment(fx.SwitchModel(), 2, 2)
        pairs = [(p.input, p.output) for p in assignment.classical + assignment.quantum]
        fx.SwitchConfig(connections=tuple(pairs)).validate(fx.SwitchModel())


def measured_model(n=5):
    """A measured table at one or two carriers, whole-dB values and some ``-inf`` entries."""
    rng = np.random.default_rng(11)
    ins, outs = range(1, n + 1), range(n + 1, 2 * n + 1)
    table = {}
    for a_in, a_out, v_in, v_out in itertools.product(ins, outs, ins, outs):
        if a_in != v_in and a_out != v_out:
            lams = (1550.0, 1300.0)[: int(rng.integers(1, 3))]
            table[a_in, a_out, v_in, v_out] = [
                (lam, -math.inf if rng.random() < 0.1 else float(rng.integers(-70, -40))) for lam in lams
            ]
    return fx.SwitchModel(n_in=n, n_out=n, table=table)


def first_fault(model, lam_c):
    """The error of the first failing ``switch_xtalk_db`` call in the planner's port order."""
    n_in, n_out = model.n_in, model.n_out
    for a, b, lam, v, w in itertools.product(range(n_in), range(n_out), lam_c, range(n_in), range(n_out)):
        if v != a and w != b:
            try:
                fx.switch_xtalk_db(model, (a + 1, n_in + 1 + b), (v + 1, n_in + 1 + w), lam)
            except (DataError, ParameterError) as exc:
                return exc
    raise AssertionError("no call fails")


class TestLeakTable:
    @pytest.mark.parametrize("model,lam_c", [
        (DEFAULT, (1310.0,)),
        (fx.SwitchModel(n_in=16, n_out=16), fx.C_BAND_NM),
        (fx.SwitchModel(beta_in_db_per_port=20.0, beta_out_db_per_port=15.0, floor_db=-90.0), fx.O_BAND_NM),
        (fx.SwitchModel(beta_in_db_per_port=0.0, beta_out_db_per_port=0.0), fx.O_BAND_NM),
        (fx.SwitchModel(n_in=3, n_out=5, slope_db_per_nm=-0.02), (1300.0, 1550.0)),
        (measured_model(), (1300.0, 1550.0)),
        (measured_model(), (1400.0,)),
    ], ids=["default", "16x16-C", "steep-floor", "flat-betas", "3x5-negative-slope", "measured", "measured-between"])
    def test_rows_equal_per_entry_model(self, model, lam_c):
        """Every entry is ``10 ** (switch_xtalk_db / 10)`` bit for bit, and prune 4 keeps the same carriers."""
        n_in, n_out = model.n_in, model.n_out
        want = [[] for _ in range(n_in)]
        for a, b, lam in itertools.product(range(n_in), range(n_out), lam_c):
            row = [math.inf] * (n_in * n_out)
            for v, w in itertools.product(range(n_in), range(n_out)):
                if v != a and w != b:
                    db = fx.switch_xtalk_db(model, (a + 1, n_in + 1 + b), (v + 1, n_in + 1 + w), lam)
                    row[v * n_out + w] = 10.0 ** (db / 10.0)
            if not any(c == b and all(x <= y for x, y in zip(low, row)) for c, _, low in want[a]):
                want[a].append((b, lam, row))
        got = switchlab._leak_rows(model, tuple(lam_c))
        assert [[(b, lam) for b, lam, _ in per_input] for per_input in got] == [
            [(b, lam) for b, lam, _ in per_input] for per_input in want
        ]
        for per_got, per_want in zip(got, want):
            for (_, _, row), (_, _, expected) in zip(per_got, per_want):
                assert all(type(x) is float for x in row)
                assert [x.hex() for x in row] == [x.hex() for x in expected]

    @pytest.mark.parametrize("model,lam_c", [
        # 1530 nm stays below 0 dB at the closest paths and 1565 nm does not.
        (fx.SwitchModel(c0_db=-10.0, beta_in_db_per_port=0.5, slope_db_per_nm=10.0 / 240.0), fx.C_BAND_NM),
        (fx.SwitchModel(reference_nm=900.0), (900.0,)),
        # Three keys missing; 2->8 / 4->7 comes first in port order.
        (fx.SwitchModel(n_in=5, n_out=5, table={
            k: v for k, v in measured_model().table.items() if k not in {(3, 6, 1, 7), (2, 8, 5, 6), (2, 8, 4, 7)}
        }), (1300.0, 1550.0)),
    ], ids=["above-0-dB", "reference-out-of-range", "missing-key"])
    def test_first_fault_in_port_order(self, model, lam_c):
        want = first_fault(model, lam_c)
        with pytest.raises(type(want)) as err:
            switchlab._leak_rows(model, tuple(lam_c))
        assert str(err.value) == str(want)
        with pytest.raises(type(want)) as err:
            fx.optimize_assignment(model, 2, 2, {"classical": lam_c} if len(lam_c) == 2 else None)
        assert str(err.value) == str(want)

    def test_plans_never_call_the_per_entry_model(self, monkeypatch):
        # brute_force_assignment takes ~20 s on 8x8 (2, 2); this is its plan.
        default_oracle = fx.Assignment(
            classical=(ChannelPlacement(1, 10, 1310.0), ChannelPlacement(2, 9, 1310.0)),
            quantum=(ChannelPlacement(7, 16, 1310.0), ChannelPlacement(8, 15, 1310.0)),
            objective_db=10.0 * math.log10(2e-10),
            method="brute-force",
        )
        table = measured_model()
        table_oracle = fx.brute_force_assignment(table, 2, 2, {"classical": (1300.0, 1550.0)})

        def refuse(*args):
            raise AssertionError("switch_xtalk_db called while planning")

        monkeypatch.setattr(switchlab, "switch_xtalk_db", refuse)
        for model, bands, oracle in ((DEFAULT, None, default_oracle),
                                     (table, {"classical": (1300.0, 1550.0)}, table_oracle)):
            plan = fx.optimize_assignment(model, 2, 2, bands)
            assert (plan.classical, plan.quantum, plan.objective_db) == (
                oracle.classical, oracle.quantum, oracle.objective_db
            )
        large = fx.optimize_assignment(fx.SwitchModel(n_in=16, n_out=16), 2, 2)
        assert large.objective_db == 10.0 * math.log10(2e-12)


class TestSwitchConfig:
    def test_duplicate_port_rejected_with_config_code(self):
        with pytest.raises(ParameterError) as err:
            fx.SwitchConfig(connections=((1, 10), (1, 11))).validate(DEFAULT)
        assert err.value.code == "E_CONFIG"

    def test_parse(self):
        config = fx.SwitchConfig.parse("1:10,2:9")
        assert config.connections == ((1, 10), (2, 9))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterError):
            fx.SwitchConfig.parse("1-10")
