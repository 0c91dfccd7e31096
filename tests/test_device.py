import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmac.device import (MacPhase, PHASE_ORDER, SensorParams, TraceRecord,
                           apply_noise, mac, phase_switches,
                           series_capacitance, trace_to_rows, write_trace_csv)


class TestSeriesCapacitance:
    def test_paper_operating_points(self):
        # independently: 500*72/572 and 16.77*72/88.77
        assert series_capacitance(500.0, 72.0) == pytest.approx(500 * 72 / 572, rel=1e-15)
        assert series_capacitance(500.0, 72.0) == pytest.approx(62.937, abs=5e-4)
        assert series_capacitance(16.77, 72.0) == pytest.approx(16.77 * 72 / 88.77, rel=1e-15)
        assert series_capacitance(16.77, 72.0) == pytest.approx(13.602, abs=5e-4)

    def test_symmetric_case_halves(self):
        assert series_capacitance(72.0, 72.0) == pytest.approx(36.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            series_capacitance(0.0, 72.0)
        with pytest.raises(ValueError):
            series_capacitance(-5.0, 72.0)
        with pytest.raises(ValueError):
            series_capacitance(10.0, 0.0)

    def test_vectorized(self):
        out = series_capacitance(np.array([500.0, 16.77]), 72.0)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(62.937, abs=5e-4)

    @given(st.floats(min_value=1e-3, max_value=1e4),
           st.floats(min_value=1e-3, max_value=1e4))
    def test_below_both_inputs(self, c_i, c0):
        s = series_capacitance(c_i, c0)
        assert 0 < s < min(c_i, c0)

    @given(st.floats(min_value=0.1, max_value=1e3),
           st.floats(min_value=0.1, max_value=1e3))
    def test_monotone_in_c_i(self, c_i, delta):
        lo = series_capacitance(c_i, 72.0)
        hi = series_capacitance(c_i + max(delta, 1e-6), 72.0)
        assert hi > lo


class TestPhaseSwitches:
    def test_clear_asserts_cl_con_add(self):
        assert phase_switches(MacPhase.CLEAR) == (True, False, True, True)

    def test_charge_asserts_mul_only(self):
        assert phase_switches(MacPhase.CHARGE) == (False, True, False, False)

    def test_transfer_asserts_con_only(self):
        assert phase_switches(MacPhase.TRANSFER) == (False, False, True, False)

    def test_sum_asserts_con_add(self):
        assert phase_switches(MacPhase.SUM) == (False, False, True, True)


class TestMacEvaluate:
    """The MAC kernel `mac`, one bank (a single weight row) at a time."""

    def test_identity_case(self):
        assert mac([72.0] * 9, [[1.0] * 9], 72.0)[0] == 1.0

    def test_zero_weights(self):
        assert mac([50.0, 13.0, 62.0], [[0.0, 0.0, 0.0]], 72.0)[0] == 0.0

    def test_paper_operating_point(self):
        u = mac([62.937] * 9, [[0.5] * 9], 72.0)[0]
        assert u == pytest.approx(9 * 62.937 * 0.5 / (9 * 72), rel=1e-12)
        assert u == pytest.approx(0.4371, abs=5e-5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mac([62.0, 60.0], [[0.5]], 72.0)

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError, match="normalize"):
            mac([62.0], [[1.0001]], 72.0)
        # the boundary itself is legal (binarized weights)
        mac([62.0], [[1.0]], 72.0)
        mac([62.0], [[-1.0]], 72.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mac([], [[]], 72.0)

    def test_trace_phase_sequence(self):
        c, v, c0 = [50.0, 20.0], [0.5, -0.25], 72.0
        banks = []
        u = mac(c, [v], c0, trace=banks)[0]
        (trace,) = banks
        assert len(trace) == 8  # 2 units x 4 phases
        by_phase = {}
        for rec in trace:
            by_phase.setdefault(rec.phase, []).append(rec)
        for rec in by_phase[MacPhase.CLEAR]:
            assert rec.charge_pc == 0.0
        for i, rec in enumerate(by_phase[MacPhase.CHARGE]):
            assert rec.charge_pc == pytest.approx(c[i] * v[i], rel=1e-15)
        for i, rec in enumerate(by_phase[MacPhase.TRANSFER]):
            assert rec.voltage_v == pytest.approx(c[i] * v[i] / c0, rel=1e-15)
        for rec in by_phase[MacPhase.SUM]:
            assert rec.voltage_v == u
        # each record carries exactly its phase's switch pattern
        for rec in trace:
            assert (rec.cl, rec.mul, rec.con, rec.add) == phase_switches(rec.phase)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.floats(min_value=0.5, max_value=500.0),
                              st.floats(min_value=-1.0, max_value=1.0)),
                    min_size=1, max_size=16))
    def test_matches_dot_product_oracle(self, pairs):
        c = [p[0] for p in pairs]
        v = [p[1] for p in pairs]
        u = mac(c, [v], 72.0)[0]
        oracle = float(np.dot(c, v)) / (len(c) * 72.0)
        scale = sum(abs(ci * vi) for ci, vi in pairs) / (len(c) * 72.0)
        assert abs(u - oracle) <= 1e-12 * max(abs(u), abs(oracle), scale, 1e-30)

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=1.0, max_value=70.0), min_size=1, max_size=9),
           st.floats(min_value=-0.5, max_value=0.5),
           st.floats(min_value=-0.5, max_value=0.5))
    def test_linear_in_weights(self, c, a, b):
        # |a|, |b| <= 0.5 keeps the combination inside the weight range
        n = len(c)
        rng = np.random.default_rng(0)
        v1 = rng.uniform(-1, 1, n)
        v2 = rng.uniform(-1, 1, n)
        lhs = mac(c, [a * v1 + b * v2], 72.0)[0]
        rhs = a * mac(c, [v1], 72.0)[0] + b * mac(c, [v2], 72.0)[0]
        scale = sum(abs(ci) for ci in c) / (n * 72.0)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), scale)


    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 12), st.integers(1, 5),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_batch_axes_kept_bit_for_bit(self, b, w, n, m, seed):
        rng = np.random.default_rng(seed)
        cs = rng.uniform(1.0, 500.0, (b, w, n))
        v = rng.uniform(-1.0, 1.0, (m, n))
        u = mac(cs, v, 72.0)
        assert u.shape == (b, w, m)
        for i in range(b):
            np.testing.assert_array_equal(u[i], mac(cs[i], v, 72.0))

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            mac([math.nan, 50.0], [[0.5, 0.5]], 72.0)
        with pytest.raises(ValueError, match="positive"):
            mac([50.0], [[0.5]], math.nan)
        with pytest.raises(ValueError, match="normalize"):
            mac([50.0, 50.0], [[math.nan, 0.5]], 72.0)

    def test_weights_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="M x N"):
            mac([50.0, 50.0], [0.5, 0.5], 72.0)

    def test_trace_needs_a_single_sample(self):
        with pytest.raises(ValueError, match="single sample"):
            mac(np.full((2, 3), 50.0), np.zeros((1, 3)), 72.0, trace=[])

    def test_trace_has_one_bank_per_weight_row(self):
        c, v, c0 = [50.0, 20.0, 35.0], [[0.5, -0.25, 1.0], [-1.0, 0.75, 0.0]], 72.0
        banks = []
        u = mac(c, v, c0, trace=banks)
        assert len(banks) == 2
        for m, bank in enumerate(banks):
            assert [rec.phase for rec in bank] == [p for p in PHASE_ORDER for _ in c]
            assert [rec.unit for rec in bank] == [0, 1, 2] * 4
            for rec in bank[9:]:
                assert rec.voltage_v == u[m]
                assert rec.charge_pc == c0 * u[m]


class TestApplyNoise:
    def test_zero_noise_identity(self):
        rng = np.random.default_rng(1)
        assert apply_noise(500.0, 500.0, 0.0, rng) == 500.0

    def test_deterministic_under_seed(self):
        a = apply_noise(500.0, 500.0, 0.2, np.random.default_rng(7))
        b = apply_noise(500.0, 500.0, 0.2, np.random.default_rng(7))
        assert a == b

    def test_monte_carlo_std(self):
        rng = np.random.default_rng(1234)
        draws = apply_noise(np.full(100_000, 500.0), 500.0, 0.2, rng)
        assert np.std(draws) == pytest.approx(100.0, rel=0.02)

    def test_floor_clamp(self):
        rng = np.random.default_rng(0)
        draws = apply_noise(np.full(50_000, 16.77), 16.77, 3.0, rng)
        assert draws.min() >= 0.01

    def test_negative_noise_frac_rejected(self):
        with pytest.raises(ValueError):
            apply_noise(500.0, 500.0, -0.1, np.random.default_rng(0))


class TestSensorParams:
    def test_defaults_are_paper_values(self):
        p = SensorParams()
        assert (p.c0, p.c_ih, p.c_il, p.noise_frac) == (72.0, 500.0, 16.77, 0.2)

    def test_invariants(self):
        with pytest.raises(ValueError):
            SensorParams(c0=-1.0)
        with pytest.raises(ValueError):
            SensorParams(c_ih=10.0, c_il=10.0)
        with pytest.raises(ValueError):
            SensorParams(noise_frac=-0.2)
        with pytest.raises(ValueError):
            SensorParams(noise_mode="weird")

    @given(st.sampled_from(["c0", "c_ih", "c_il", "noise_frac"]),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_rejected_naming_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SensorParams(**{name: value})


def test_trace_csv_export(tmp_path):
    banks = []
    mac([62.937, 13.602], [[1.0, -1.0]], 72.0, trace=banks)
    (trace,) = banks
    rows = trace_to_rows(trace)
    assert len(rows) == 8
    # default 87.5 ns phases: start times 0, 87.5, 175, 262.5
    times = sorted({r[-1] for r in rows})
    assert times == [0.0, 87.5, 175.0, 262.5]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "unit_index,phase,CL,MUL,CON,ADD,charge_pC,voltage_V,time_ns"
    assert len(lines) == 9
