import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes
from hypothesis.extra.numpy import arrays as np_arrays

from capmac.dataset import noisy_letters
from capmac.device import (MAX_CAPACITANCE_PF, MAX_CAPACITANCE_RATIO, MAX_NOISE_FRAC,
                           MIN_C_IL_PF, PHASES, SensorParams, apply_noise, check_mac_values,
                           mac, mac_phases, series_capacitance, write_trace_csv)

SWITCHES = dict(PHASES)


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
        assert SWITCHES["clear"] == (True, False, True, True)

    def test_charge_asserts_mul_only(self):
        assert SWITCHES["charge"] == (False, True, False, False)

    def test_transfer_asserts_con_only(self):
        assert SWITCHES["transfer"] == (False, False, True, False)

    def test_sum_asserts_con_add(self):
        assert SWITCHES["sum"] == (False, False, True, True)

    def test_execution_order(self):
        assert [name for name, _ in PHASES] == ["clear", "charge", "transfer", "sum"]


class TestMacEvaluate:
    """The MAC kernel `mac` and its phase-by-phase capture `mac_phases`."""

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

    def test_length_mismatch_names_shapes(self):
        # numpy's own matmul error also says "mismatch", but names neither side.
        with pytest.raises(ValueError, match=r"^length mismatch: capacitances of shape "
                                             r"\(2,\) vs 1 weights$"):
            mac([62.0, 60.0], [[0.5]], 72.0)

    def test_weight_range_enforced(self):
        # mac checks shapes only; mac_phases checks the values it is given.
        with pytest.raises(ValueError, match="normalize"):
            mac_phases([62.0], [[1.0001]], 72.0)
        # the boundary itself is legal (binarized weights)
        mac_phases([62.0], [[1.0]], 72.0)
        mac_phases([62.0], [[-1.0]], 72.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mac([], [[]], 72.0)

    def test_trace_phase_sequence(self):
        c, v, c0 = [50.0, 20.0], [0.5, -0.25], 72.0
        charge, volts = mac_phases(c, [v], c0)
        u = mac(c, [v], c0)[0]
        assert charge.shape == volts.shape == (4, 1, 2)  # 4 phases x 1 bank x 2 units
        names = [name for name, _ in PHASES]
        by_phase = dict(zip(names, zip(charge[:, 0], volts[:, 0])))
        for q in by_phase["clear"][0]:
            assert q == 0.0
        for i, q in enumerate(by_phase["charge"][0]):
            assert q == pytest.approx(c[i] * v[i], rel=1e-15)
        for i, volt in enumerate(by_phase["transfer"][1]):
            assert volt == pytest.approx(c[i] * v[i] / c0, rel=1e-15)
        for volt in by_phase["sum"][1]:
            assert volt == u

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 16),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_phases_agree_with_the_kernel_bitwise(self, m, n, seed):
        rng = np.random.default_rng(seed)
        cs = rng.uniform(1.0, 500.0, n)
        v = rng.uniform(-1.0, 1.0, (m, n))
        charge, volts = mac_phases(cs, v, 72.0)
        u = np.broadcast_to(mac(cs, v, 72.0)[:, None], (m, n))
        assert volts[-1].tobytes() == u.tobytes()
        assert charge[1].tobytes() == (cs * v).tobytes()

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

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40), st.sampled_from([0, 1, 9]),
           st.integers(1, 12), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_weight_stack_equals_per_slice_calls(self, k, b, w, n, m, seed):
        # v (K, M, N) against cs (K, B, N), or v (K, 1, M, N) against the
        # windows cs (K, B, W, N) of a convolution: slice k of the result is
        # mac(cs[k], v[k]) bit for bit.
        rng = np.random.default_rng(seed)
        cs = rng.uniform(1.0, 500.0, (k, b, w, n) if w else (k, b, n))
        v = rng.uniform(-1.0, 1.0, (k, m, n))
        u = mac(cs, v[:, None] if w else v, 72.0)
        assert u.shape == cs.shape[:-1] + (m,)
        for i in range(k):
            np.testing.assert_array_equal(u[i].view(np.uint64),
                                          mac(cs[i], v[i], 72.0).view(np.uint64))

    def test_weight_stack_keeps_the_value_checks(self):
        cs = np.full((2, 3, 4), 50.0)
        stack = np.stack([np.zeros((1, 4)), np.full((1, 4), 1.5)])
        with pytest.raises(ValueError, match="normalize"):
            check_mac_values(cs, stack, 72.0)
        with pytest.raises(ValueError, match="normalize"):
            mac_phases(cs[0, 0], stack, 72.0)
        with pytest.raises(ValueError, match="length mismatch"):
            mac(cs, np.zeros((2, 1, 5)), 72.0)

    @pytest.mark.filterwarnings("error")  # refused before any product
    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            mac_phases([math.nan, 50.0], [[0.5, 0.5]], 72.0)
        with pytest.raises(ValueError, match="positive"):
            mac_phases([50.0], [[0.5]], math.nan)
        with pytest.raises(ValueError, match="normalize"):
            mac_phases([50.0, 50.0], [[math.nan, 0.5]], 72.0)

    def test_weights_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="M x N"):
            mac([50.0, 50.0], [0.5, 0.5], 72.0)

    def test_trace_needs_a_single_sample(self):
        with pytest.raises(ValueError, match="single sample"):
            mac_phases(np.full((2, 3), 50.0), np.zeros((1, 3)), 72.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v", [[[[1.0, 0.0], [0.0, 1.0]]], np.zeros((1, 3, 2))])
    def test_trace_refuses_a_weight_stack(self, v):
        # Regression: a (1, 2, 2) stack put bank 1's SUM volts into bank 0's
        # second unit, and a (1, 3, 2) stack met only numpy's broadcast error.
        with pytest.raises(ValueError, match="^trace capture takes one M x N weight matrix$"):
            mac_phases([10.0, 20.0], v, 72.0)

    def test_trace_has_one_bank_per_weight_row(self):
        c, v, c0 = [50.0, 20.0, 35.0], [[0.5, -0.25, 1.0], [-1.0, 0.75, 0.0]], 72.0
        charge, volts = mac_phases(c, v, c0)
        u = mac(c, v, c0)
        assert charge.shape == volts.shape == (4, 2, 3)  # phases x banks x units
        for m in range(2):
            for volt, q in zip(volts[-1, m], charge[-1, m]):
                assert volt == u[m]
                assert q == c0 * u[m]


class TestMacValueBounds:
    """check_mac_values at its bounds, reached from outside through mac_phases:
    a capacitance or c0 must exceed 0 and a weight voltage lie in [-1, 1]."""

    @pytest.mark.filterwarnings("error")  # refused before the division by c0
    @pytest.mark.parametrize("cs,c0", [([0.0, 50.0], 72.0), ([50.0, 0.0], 72.0),
                                       ([50.0, 50.0], 0.0), ([50.0, 50.0], -0.0)])
    def test_zero_capacitance_refused(self, cs, c0):
        with pytest.raises(ValueError, match="^capacitances must be positive$"):
            mac_phases(cs, [[0.5, 0.5]], c0)

    def test_least_positive_capacitance_accepted(self):
        charge, volts = mac_phases([5e-324, 50.0], [[1.0, 1.0]], 72.0)
        assert charge[1, 0, 0] == 5e-324 and volts[-1, 0, 0] > 0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unit_weight_accepted_and_next_float_refused(self, sign):
        _, volts = mac_phases([50.0], [[sign]], 72.0)
        assert volts[1, 0, 0] == sign
        with pytest.raises(ValueError, match=r"^weight voltage outside \[-1, 1\]; "
                                             r"normalize weights first$"):
            mac_phases([50.0], [[sign * np.nextafter(1.0, 2.0)]], 72.0)


# Values at the edges of the value checks: zeros of both signs, NaN, the
# least subnormal, unit weights and the floats next to them.
_EDGE_VALUES = [0.0, -0.0, math.nan, 5e-324, -5e-324, 0.5, 50.0, 1.0, -1.0,
                float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)),
                -float(np.nextafter(1.0, 2.0))]
_EDGE_ARRAYS = np_arrays(float, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                         elements=st.sampled_from(_EDGE_VALUES))
_EDGE_C0 = st.sampled_from([0.0, -0.0, math.nan, 5e-324, 72.0])


def _refusal(call, *args):
    """The message of the ValueError that call(*args) raises, or None."""
    try:
        call(*args)
    except ValueError as err:
        return str(err)
    return None


def _reference_series_check(c_i, c0):
    """series_capacitance's check as ndarray methods, before it refused NaN."""
    if (c_i <= 0).any() or c0 <= 0:
        raise ValueError("capacitances must be positive")


def _reference_mac_check(cs, v, c0):
    """check_mac_values as ndarray methods, before its checks became reductions."""
    if not (c0 > 0 and cs.min(initial=np.inf) > 0):
        raise ValueError("capacitances must be positive")
    if not abs(v).max(initial=0.0) <= 1.0:
        raise ValueError("weight voltage outside [-1, 1]; normalize weights first")


class TestValueChecksAsReductions:
    """The value checks, written as ufunc reductions, refuse exactly what
    their ndarray-method forms refused, with the same message and no numpy
    warning; series_capacitance now also refuses NaN itself."""

    @pytest.mark.filterwarnings("error")
    @given(_EDGE_ARRAYS, _EDGE_C0)
    def test_series_capacitance_refuses_as_before_and_nan(self, c_i, c0):
        want = _refusal(_reference_series_check, c_i, c0)
        if want is None and (np.isnan(c_i).any() or math.isnan(c0)):
            want = "capacitances must be positive"
        assert _refusal(series_capacitance, c_i, c0) == want

    @pytest.mark.filterwarnings("error")
    @given(_EDGE_ARRAYS, _EDGE_ARRAYS, _EDGE_C0)
    def test_check_mac_values_refuses_as_before(self, cs, v, c0):
        assert (_refusal(check_mac_values, cs, v, c0)
                == _refusal(_reference_mac_check, cs, v, c0))


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

    @pytest.mark.parametrize("c0", [7.2e-8, 1e-4, 7.2e-4])
    def test_c_ih_at_most_ratio_times_c0(self, c0):
        # c_ih = MAX_CAPACITANCE_RATIO * c0 is accepted, the next float refused.
        most = MAX_CAPACITANCE_RATIO * c0
        assert SensorParams(c0=c0, c_ih=most).c_ih == most
        with pytest.raises(ValueError, match=f"^c_ih must be at most "
                                             f"{MAX_CAPACITANCE_RATIO:,.0f} times c0"):
            SensorParams(c0=c0, c_ih=float(np.nextafter(most, math.inf)))

    def test_c_il_below_bound_rejected_naming_field(self):
        SensorParams(c0=1e-130, c_ih=1e-125, c_il=MIN_C_IL_PF)
        with pytest.raises(ValueError, match="^c_il must be at least"):
            SensorParams(c0=1e-130, c_ih=1e-125, c_il=MIN_C_IL_PF / 2)

    @given(st.sampled_from(["c0", "c_ih", "c_il"]),
           st.floats(min_value=MAX_CAPACITANCE_PF, exclude_min=True,
                     allow_infinity=False))
    def test_capacitance_above_bound_rejected_naming_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be in"):
            SensorParams(**{name: value})

    @given(st.one_of(st.floats(min_value=0.0, max_value=MAX_NOISE_FRAC),
                     st.floats(min_value=MAX_NOISE_FRAC, allow_infinity=False)),
           st.sampled_from(["per_class", "global"]),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_accepted_noise_frac_gives_finite_capacitances(self, noise_frac, mode, seed):
        try:
            params = SensorParams(noise_frac=noise_frac, noise_mode=mode)
        except ValueError:
            assert noise_frac > MAX_NOISE_FRAC
            return
        idx = np.repeat(np.arange(4), 5)
        c_i = noisy_letters(idx, params, np.random.default_rng(seed), 5)
        cs = series_capacitance(c_i, params.c0)
        assert np.isfinite(cs).all() and (cs > 0).all()


def test_trace_csv_export(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(mac_phases([62.937, 13.602], [[1.0, -1.0]], 72.0), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "unit_index,phase,CL,MUL,CON,ADD,charge_pC,voltage_V,time_ns"
    assert len(lines) == 9
    rows = [line.split(",") for line in lines[1:]]
    # default 87.5 ns phases: start times 0, 87.5, 175, 262.5
    times = sorted({float(r[-1]) for r in rows})
    assert times == [0.0, 87.5, 175.0, 262.5]
    # phase-major, unit by unit; each row carries exactly its phase's switch pattern
    assert [r[1] for r in rows] == [name for name, _ in PHASES for _ in range(2)]
    assert [r[0] for r in rows] == ["0", "1"] * 4
    for r in rows:
        switches = tuple(level == "1" for level in r[2:6])
        assert switches == SWITCHES[r[1]]


def _stacked_phases(cs, v, c0):
    """mac_phases' (charge, volts) as two np.stack calls over zeros_like and a
    broadcast_to view, before both became halves of one zeroed array."""
    cs, v = np.asarray(cs, dtype=float), np.asarray(v, dtype=float)
    q = cs * v
    u_sum = np.broadcast_to(mac(cs, v, c0)[:, None], v.shape)
    zero = np.zeros_like(v)
    return (np.stack([zero, q, q, c0 * u_sum]),
            np.stack([zero, v, q / c0, u_sum]))


@st.composite
def _traced_cycles(draw):
    """(cs[N], v[M, N], c0) with M, N in [1, 9], weights of both signed zeros and units."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cs = draw(np_arrays(float, n, elements=st.floats(1e-3, 1e3)))
    v = draw(np_arrays(float, (m, n), elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0])
                       | st.floats(-1.0, 1.0)))
    return cs, v, draw(st.floats(1e-3, 1e3))


class TestPhasesAsOneArray:
    """mac_phases fills one (2, 4, M, N) array: the same shapes, dtype and
    bits as the two stacks it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_traced_cycles())
    def test_bitwise_equal_to_stacks(self, cycle):
        for got, want in zip(mac_phases(*cycle), _stacked_phases(*cycle)):
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert (got.view(np.uint64) == want.view(np.uint64)).all()

    def test_charge_writes_leave_volts_unchanged(self):
        charge, volts = mac_phases([62.937, 13.602], [[1.0, -1.0], [0.5, 0.25]], 72.0)
        before = volts.copy()
        charge[...] = np.nan
        assert (volts.view(np.uint64) == before.view(np.uint64)).all()

    def test_trace_csv_of_negative_zero_weight_as_before(self, tmp_path):
        args = ([62.937, 13.602], [[-0.0, 1.0], [0.5, -0.0]], 72.0)
        write_trace_csv(mac_phases(*args), tmp_path / "new.csv")
        write_trace_csv(_stacked_phases(*args), tmp_path / "old.csv")
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "old.csv").read_text()
        assert ",-0.0,-0.0," in text  # CHARGE Q = c * -0.0 at U = -0.0
