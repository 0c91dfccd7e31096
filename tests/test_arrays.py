import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmac import arrays
from capmac.arrays import (MAX_CONV_SIDE, ArrayTopology, array_inputs,
                           build_conv_array, build_fc_array, conv_forward, fc_forward,
                           gather_windows, schedule_conv)
from capmac.device import (NOISE_FLOOR_PF, SensorParams, mac, mac_phases,
                           series_capacitance)
from capmac.metrics import schedule_report

PARAMS = SensorParams()


def resource_report(rows, cols, kernel):
    """(dac_count, adc_count, step_count) that schedule_report reports for
    a rows x cols convolution array."""
    data = schedule_report(build_conv_array(rows, cols, kernel))
    return data["dac_count"], data["adc_count"], data["step_count"]


def sweep(rows, cols, kernel):
    """The steps of a rows x cols convolution array's report."""
    return schedule_report(build_conv_array(rows, cols, kernel))["steps"]


def naive_cross_correlation(c_i_image, kernel_3x3, params):
    """Independent O(rows*cols*k^2) oracle over series capacitances."""
    img = np.asarray(c_i_image, dtype=float)
    k = np.asarray(kernel_3x3, dtype=float).reshape(3, 3)
    rows, cols = img.shape
    out = np.zeros((rows - 2, cols - 2))
    for orr in range(rows - 2):
        for occ in range(cols - 2):
            acc = 0.0
            for dr in range(3):
                for dc in range(3):
                    c = series_capacitance(img[orr + dr, occ + dc], params.c0)
                    acc += c * k[dr, dc]
            out[orr, occ] = acc / (9 * params.c0)
    return out


class TestBuildFcArray:
    def test_four_banks_of_nine(self):
        topo = build_fc_array(3, 3, 4)
        assert topo == ArrayTopology(rows=3, cols=3, banks=4)

    def test_minimal_topology(self):
        topo = build_fc_array(1, 1, 1)
        assert topo == ArrayTopology(rows=1, cols=1, banks=1)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            build_fc_array(0, 3, 4)
        with pytest.raises(ValueError):
            build_fc_array(3, 3, 0)


class TestFcForward:
    def test_zero_weights(self):
        topo = build_fc_array(3, 3, 4)
        img = np.full((3, 3), 100.0)
        out = fc_forward(topo, img, np.zeros((4, 9)), PARAMS)
        assert out == [0.0] * 4

    def test_equals_independent_mac_calls(self):
        rng = np.random.default_rng(5)
        topo = build_fc_array(3, 3, 4)
        img = rng.uniform(10, 500, (3, 3))
        w = rng.uniform(-1, 1, (4, 9))
        got = fc_forward(topo, img, w, PARAMS)
        # Every bank reads every pixel in row-major order.
        cs = [series_capacitance(img[r, c], PARAMS.c0) for r in range(3) for c in range(3)]
        for m in range(4):
            expect = mac(cs, w[m:m + 1], PARAMS.c0)[0]
            assert got[m] == pytest.approx(expect, rel=1e-12)

    def test_shape_errors(self):
        topo = build_fc_array(3, 3, 4)
        with pytest.raises(ValueError):
            fc_forward(topo, np.full((2, 3), 100.0), np.zeros((4, 9)), PARAMS)
        with pytest.raises(ValueError):
            fc_forward(topo, np.full((3, 3), 100.0), np.zeros((4, 8)), PARAMS)

    @pytest.mark.parametrize("shape", [(), (9,), (4, 9, 1), (4, 8), (4, 10)])
    def test_malformed_weights_raise_value_error(self, shape):
        topo = build_fc_array(3, 3, 4)
        with pytest.raises(ValueError):
            fc_forward(topo, np.full((3, 3), 100.0), np.zeros(shape), PARAMS)

    def test_image_shape_error_names_shapes(self):
        topo = build_fc_array(3, 3, 4)
        with pytest.raises(ValueError, match=r"^image shape \(2, 3\) does not match 3x3 "
                                             r"topology$"):
            fc_forward(topo, np.full((2, 3), 100.0), np.zeros((4, 9)), PARAMS)

    def test_conv_topology_refused_naming_kernel(self):
        # Regression: a conv topology with (3, 9) weights used to fail only
        # at the bank count, "9 weight rows for 3 banks".
        with pytest.raises(ValueError, match="^kernel 3: fc_forward reads FC wiring"):
            fc_forward(build_conv_array(5, 5, 3), np.full((5, 5), 100.0), np.zeros((3, 9)),
                       PARAMS)

    def test_bank_count_mismatch(self):
        topo = build_fc_array(3, 3, 4)
        with pytest.raises(ValueError, match="3 weight rows for 4 banks"):
            fc_forward(topo, np.full((3, 3), 100.0), np.zeros((3, 9)), PARAMS)

    def test_stack_of_weight_matrices_refused(self):
        # device.mac reads a stack of matrices; a one-bank array cycle reads one.
        topo = build_fc_array(3, 3, 1)
        with pytest.raises(ValueError, match="^2 weight rows for 1 banks$"):
            fc_forward(topo, np.full((3, 3), 100.0), np.zeros((2, 1, 9)), PARAMS)

    def test_trace_capture_per_bank(self):
        topo = build_fc_array(3, 3, 4)
        img = np.full((3, 3), 100.0)
        w = np.full((4, 9), 0.25)
        out = fc_forward(topo, img, w, PARAMS)
        _, volts = mac_phases(series_capacitance(img.reshape(-1), PARAMS.c0), w, PARAMS.c0)
        assert volts.shape == (4, 4, 9)  # 4 phases x 4 banks x 9 units
        for m in range(4):
            assert volts[-1, m, -1] == out[m]


class TestScheduleConv:
    def test_5x5_paper_case(self):
        steps = sweep(5, 5, 3)
        assert len(steps) == 3
        assert all(len(step["windows"]) == 3 for step in steps)
        total = sum(len(step["windows"]) for step in steps)
        assert total == 9

    def test_kernel_equals_array(self):
        steps = sweep(3, 3, 3)
        assert len(steps) == 1
        assert steps[0]["windows"] == [{"row": 0, "col": 0, "adc": 0}]

    def test_rejects_small_array(self):
        with pytest.raises(ValueError):
            schedule_conv(2, 5, 3)

    def test_adc_assignment_is_vertical_offset(self):
        for step in sweep(6, 4, 3):
            for window in step["windows"]:
                assert window["adc"] == window["row"]

    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=3, max_value=12))
    def test_window_enumeration(self, rows, cols):
        steps = sweep(rows, cols, 3)
        assert len(steps) == cols - 2
        origins = [(w["row"], w["col"]) for step in steps for w in step["windows"]]
        # collectively exhaustive, each origin exactly once
        assert len(origins) == (rows - 2) * (cols - 2)
        assert len(set(origins)) == len(origins)
        assert set(origins) == {(r, c) for r in range(rows - 2) for c in range(cols - 2)}
        # within a step, ADC assignments are disjoint
        for step in steps:
            adcs = [w["adc"] for w in step["windows"]]
            assert len(set(adcs)) == len(adcs)


class TestConvForward:
    def test_zero_kernel(self):
        topo = build_conv_array(5, 5, 3)
        sched = schedule_conv(5, 5, 3)
        img = np.full((5, 5), 100.0)
        out = conv_forward(topo, sched, img, np.zeros(9), PARAMS)
        assert out.shape == (3, 3)
        assert np.all(out == 0.0)

    def test_5x5_gives_3x3_feature_map(self):
        topo = build_conv_array(5, 5, 3)
        sched = schedule_conv(5, 5, 3)
        rng = np.random.default_rng(2)
        img = rng.uniform(10, 500, (5, 5))
        out = conv_forward(topo, sched, img, rng.uniform(-1, 1, 9), PARAMS)
        assert out.shape == (3, 3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=3, max_value=7), st.integers(min_value=3, max_value=7),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_naive_oracle(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        topo = build_conv_array(rows, cols, 3)
        sched = schedule_conv(rows, cols, 3)
        img = rng.uniform(5, 600, (rows, cols))
        k = rng.uniform(-1, 1, 9)
        got = conv_forward(topo, sched, img, k, PARAMS)
        want = naive_cross_correlation(img, k, PARAMS)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_kernel_range_enforced(self):
        topo = build_conv_array(5, 5, 3)
        sched = schedule_conv(5, 5, 3)
        img = np.full((5, 5), 100.0)
        with pytest.raises(ValueError):
            conv_forward(topo, sched, img, np.full(9, 1.5), PARAMS)

    def test_image_shape_mismatch(self):
        topo = build_conv_array(5, 5, 3)
        with pytest.raises(ValueError, match="does not match"):
            conv_forward(topo, schedule_conv(5, 5, 3), np.full((5, 4), 100.0),
                         np.zeros(9), PARAMS)

    @pytest.mark.parametrize("topo,sched", [
        (build_conv_array(5, 5, 3), schedule_conv(5, 5, 2)),
        (build_conv_array(5, 5, 3), schedule_conv(5, 6, 3)),
        (build_fc_array(5, 5, 3), schedule_conv(5, 5, 3)),
    ])
    def test_schedule_topology_mismatch(self, topo, sched):
        # Each pairing used to return a feature map of some size.
        with pytest.raises(ValueError, match=r"^schedule \(rows, cols, kernel\) .* != "
                                             r"topology's"):
            conv_forward(topo, sched, np.full((5, 5), 100.0), np.zeros(9), PARAMS)

    @pytest.mark.parametrize("weights", [8, 10, 16])
    def test_kernel_size_mismatch(self, weights):
        topo = build_conv_array(5, 5, 3)
        with pytest.raises(ValueError, match=f"kernel needs 9 weights, got {weights}"):
            conv_forward(topo, schedule_conv(5, 5, 3), np.full((5, 5), 100.0),
                         np.zeros(weights), PARAMS)


_POSITIVE = "^capacitances must be positive$"
_NORMALIZE = r"^weight voltage outside \[-1, 1\]; normalize weights first$"


class TestOutsideValues:
    """fc_forward and conv_forward check the values they are given with
    check_mac_values before any product, so no numpy warning precedes a
    refusal; device.mac itself checks shapes only."""

    @staticmethod
    def forward(kind, pixel, weight, params=PARAMS):
        """One readout with the centre pixel of the image and the centre weight
        of the kernel (FC: of bank 2) set."""
        if kind == "fc":
            img, w = np.full((3, 3), 100.0), np.full((4, 9), 0.5)
            img[1, 1], w[2, 4] = pixel, weight
            return np.array(fc_forward(build_fc_array(3, 3, 4), img, w, params))
        img, k = np.full((5, 5), 100.0), np.full(9, 0.5)
        img[2, 2], k[4] = pixel, weight
        return conv_forward(build_conv_array(5, 5, 3), schedule_conv(5, 5, 3), img, k, params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["fc", "conv"])
    @pytest.mark.parametrize("pixel,weight,c0,match", [
        (math.nan, 0.5, 72.0, _POSITIVE),
        (5e-324, 0.5, 1e-3, _POSITIVE),  # c_i c0 underflows to a zero capacitance
        (100.0, math.nan, 72.0, _NORMALIZE),
        (100.0, 1.5, 72.0, _NORMALIZE),
        (100.0, -np.nextafter(1.0, 2.0), 72.0, _NORMALIZE),
    ])
    def test_refused_before_the_product(self, kind, pixel, weight, c0, match):
        with pytest.raises(ValueError, match=match):
            self.forward(kind, pixel, weight, SensorParams(c0=c0))

    @pytest.mark.parametrize("kind", ["fc", "conv"])
    @pytest.mark.parametrize("pixel,weight", [(5e-324, 1.0), (100.0, -1.0)])
    def test_bounds_accepted(self, kind, pixel, weight):
        assert np.isfinite(self.forward(kind, pixel, weight)).all()

    def test_a_stack_out_of_range_gets_the_value_message(self):
        # A stack breaks fc_forward's one-matrix rule too, but values are
        # checked before the product and its shape.
        with pytest.raises(ValueError, match=_NORMALIZE):
            fc_forward(build_fc_array(3, 3, 1), np.full((3, 3), 100.0),
                       np.stack([np.zeros((1, 9)), np.full((1, 9), 1.5)]), PARAMS)


class TestSingleRead:
    """The simulator reads the array as the trainer does: one mac call on
    array_inputs, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), st.integers(1, 5),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_forwards_equal_mac_of_array_inputs(self, rows, cols, kernel, banks, seed):
        rng = np.random.default_rng(seed)
        img = rng.uniform(NOISE_FLOOR_PF, 600, (rows, cols))
        if kernel == 0:
            topo = build_fc_array(rows, cols, banks)
            w = rng.uniform(-1, 1, (banks, rows * cols))
            got = fc_forward(topo, img, w, PARAMS)
            want = mac(array_inputs(topo, img[None], PARAMS), w, PARAMS.c0)[0]
            assert isinstance(got, list)
        else:
            kernel = min(kernel, rows, cols)
            topo = build_conv_array(rows, cols, kernel)
            w = rng.uniform(-1, 1, (1, kernel ** 2))
            got = conv_forward(topo, schedule_conv(rows, cols, kernel), img, w, PARAMS)
            want = mac(array_inputs(topo, img[None], PARAMS), w, PARAMS.c0)[0]
            want = want[:, 0].reshape(rows - kernel + 1, cols - kernel + 1)
        assert np.asarray(got).tobytes() == want.tobytes()


class TestResourceReport:
    # One ADC per lane the schedule reads, rows - kernel + 1 of them.
    @pytest.mark.parametrize("rows,cols,kernel,expected", [
        (5, 5, 3, (9, 3, 3)),
        (3, 3, 3, (9, 1, 1)),
        (8, 10, 3, (9, 6, 8)),
    ])
    def test_counts(self, rows, cols, kernel, expected):
        assert resource_report(rows, cols, kernel) == expected

    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=3, max_value=12))
    def test_consistent_with_schedule(self, rows, cols):
        dacs, adcs, steps = resource_report(rows, cols, 3)
        assert steps == len(sweep(rows, cols, 3))
        assert dacs == 9
        assert adcs == rows - 2 == build_conv_array(rows, cols, 3).banks


@pytest.mark.parametrize("build", [build_conv_array, schedule_conv, resource_report])
@pytest.mark.parametrize("rows,cols,kernel,name", [
    (5, 5, 0, "kernel"),
    (5, 5, -2, "kernel"),
    (0, 0, 0, "kernel"),
    (5, 5, MAX_CONV_SIDE + 1, "kernel"),
    (2, 5, 3, "rows"),
    (5, 2, 3, "cols"),
    (MAX_CONV_SIDE + 1, 5, 3, "rows"),
    (5, MAX_CONV_SIDE + 1, 1, "cols"),
])
def test_conv_geometry_rejected_naming_parameter(build, rows, cols, kernel, name):
    with pytest.raises(ValueError, match=f"^{name} must be in"):
        build(rows, cols, kernel)


def test_conv_geometry_bounds_accepted():
    assert len(sweep(MAX_CONV_SIDE, 3, 3)) == 1
    assert resource_report(1, MAX_CONV_SIDE, 1) == (1, 1, MAX_CONV_SIDE)
    assert build_conv_array(MAX_CONV_SIDE, MAX_CONV_SIDE, MAX_CONV_SIDE).banks == 1


def test_schedule_json_dump():
    data = schedule_report(build_conv_array(5, 5, 3))
    assert data["step_count"] == 3
    assert data["dac_count"] == 9
    assert data["adc_count"] == 3
    assert len(data["steps"]) == 3
    assert json.loads(json.dumps(data)) == data


class TestGatherWindows:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=9),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_explicit_slicing(self, b, rows, cols, other_cols, kernel, seed):
        # Two geometries in turn, sharing rows and kernel: the window index
        # cached for the first must not serve the second.
        kernel = min(kernel, rows, cols, other_cols)
        rng = np.random.default_rng(seed)
        for width in (cols, other_cols):
            mat = rng.uniform(5, 600, (b, rows, width))
            want = np.stack([
                np.stack([mat[i, r:r + kernel, c:c + kernel].ravel()
                          for r in range(rows - kernel + 1)
                          for c in range(width - kernel + 1)])
                for i in range(b)])
            got = gather_windows(mat, kernel)
            np.testing.assert_array_equal(got, want)
            # A strided result would change the order of the sums built on it.
            assert got.flags.c_contiguous

    def test_cached_index_rejects_writes(self):
        gather_windows(np.ones((1, 5, 5)), 3)
        with pytest.raises(ValueError, match="read-only"):
            arrays._window_index(5, 5, 3)[0, 0] = 1
