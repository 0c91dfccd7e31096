import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmac import arrays
from capmac.arrays import (MAX_CONV_SIDE, ArrayTopology, build_conv_array,
                           build_fc_array, conv_forward, fc_forward, gather_windows,
                           schedule_conv, schedule_to_dict)
from capmac.device import SensorParams, mac, mac_phases, series_capacitance

PARAMS = SensorParams()


def resource_report(rows, cols, kernel):
    """(dac_count, adc_count, step_count) that schedule_to_dict reports for
    a rows x cols convolution array."""
    data = schedule_to_dict(schedule_conv(rows, cols, kernel))
    return data["dac_count"], data["adc_count"], data["step_count"]


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

    def test_bank_count_mismatch(self):
        topo = build_fc_array(3, 3, 4)
        with pytest.raises(ValueError, match="3 weight rows for 4 banks"):
            fc_forward(topo, np.full((3, 3), 100.0), np.zeros((3, 9)), PARAMS)

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
        sched = schedule_conv(5, 5, 3)
        assert len(sched.steps) == 3
        assert all(len(step) == 3 for step in sched.steps)
        total = sum(len(step) for step in sched.steps)
        assert total == 9

    def test_kernel_equals_array(self):
        sched = schedule_conv(3, 3, 3)
        assert len(sched.steps) == 1
        assert sched.steps[0] == (((0, 0), 0),)

    def test_rejects_small_array(self):
        with pytest.raises(ValueError):
            schedule_conv(2, 5, 3)

    def test_adc_assignment_is_vertical_offset(self):
        sched = schedule_conv(6, 4, 3)
        for step in sched.steps:
            for (orr, _occ), adc in step:
                assert adc == orr

    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=3, max_value=12))
    def test_window_enumeration(self, rows, cols):
        sched = schedule_conv(rows, cols, 3)
        assert len(sched.steps) == cols - 2
        origins = [(orr, occ) for step in sched.steps for (orr, occ), _ in step]
        # collectively exhaustive, each origin exactly once
        assert len(origins) == (rows - 2) * (cols - 2)
        assert len(set(origins)) == len(origins)
        assert set(origins) == {(r, c) for r in range(rows - 2) for c in range(cols - 2)}
        # within a step, ADC assignments are disjoint
        for step in sched.steps:
            adcs = [adc for _, adc in step]
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

    @pytest.mark.parametrize("weights", [8, 10, 16])
    def test_kernel_size_mismatch(self, weights):
        topo = build_conv_array(5, 5, 3)
        with pytest.raises(ValueError, match=f"kernel needs 9 weights, got {weights}"):
            conv_forward(topo, schedule_conv(5, 5, 3), np.full((5, 5), 100.0),
                         np.zeros(weights), PARAMS)


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
        sched = schedule_conv(rows, cols, 3)
        assert steps == len(sched.steps)
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
    assert len(schedule_conv(MAX_CONV_SIDE, 3, 3).steps) == 1
    assert resource_report(1, MAX_CONV_SIDE, 1) == (1, 1, MAX_CONV_SIDE)
    assert build_conv_array(MAX_CONV_SIDE, MAX_CONV_SIDE, MAX_CONV_SIDE).banks == 1


def test_schedule_json_dump():
    sched = schedule_conv(5, 5, 3)
    data = schedule_to_dict(sched)
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
