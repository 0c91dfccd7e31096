import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmac.arrays import (ArrayTopology, build_conv_array, build_fc_array,
                           conv_forward, fc_forward, resource_report,
                           schedule_conv, schedule_to_dict, write_schedule_json)
from capmac.device import SensorParams, mac, series_capacitance
from capmac.weights import WeightBank

PARAMS = SensorParams()


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
        assert topo.banks == 4
        assert topo.subpixels_per_pixel == 4
        for m in range(4):
            coords = topo.bank_wiring[m]
            assert len(coords) == 9
            assert set(coords) == {(r, c) for r in range(3) for c in range(3)}

    def test_minimal_topology(self):
        topo = build_fc_array(1, 1, 1)
        assert topo.banks == 1
        assert topo.bank_wiring[0] == [(0, 0)]

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
        cs = [series_capacitance(img[r, c], PARAMS.c0) for r, c in topo.bank_wiring[0]]
        for m in range(4):
            expect = mac(cs, w[m:m + 1], PARAMS.c0)[0]
            assert got[m] == pytest.approx(expect, rel=1e-12)

    def test_accepts_weight_bank(self):
        topo = build_fc_array(3, 3, 4)
        img = np.full((3, 3), 100.0)
        bank = WeightBank(np.full((4, 9), 0.5))
        out = fc_forward(topo, img, bank, PARAMS)
        assert all(u > 0 for u in out)

    def test_shape_errors(self):
        topo = build_fc_array(3, 3, 4)
        with pytest.raises(ValueError):
            fc_forward(topo, np.full((2, 3), 100.0), np.zeros((4, 9)), PARAMS)
        with pytest.raises(ValueError):
            fc_forward(topo, np.full((3, 3), 100.0), np.zeros((4, 8)), PARAMS)

    def test_trace_capture_per_bank(self):
        topo = build_fc_array(3, 3, 4)
        img = np.full((3, 3), 100.0)
        traces = []
        out = fc_forward(topo, img, np.full((4, 9), 0.25), PARAMS, traces=traces)
        assert len(traces) == 4
        assert all(len(t) == 36 for t in traces)  # 9 units x 4 phases
        from capmac.device import MacPhase
        for m, trace in enumerate(traces):
            finals = [r for r in trace if r.phase == MacPhase.SUM]
            assert finals[-1].voltage_v == out[m]


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


class TestResourceReport:
    @pytest.mark.parametrize("rows,cols,kernel,expected", [
        (5, 5, 3, (9, 5, 3)),
        (3, 3, 3, (9, 3, 1)),
        (8, 10, 3, (9, 8, 8)),
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
        assert adcs == rows


def test_schedule_json_dump(tmp_path):
    sched = schedule_conv(5, 5, 3)
    data = schedule_to_dict(sched)
    assert data["step_count"] == 3
    assert data["dac_count"] == 9
    assert data["adc_count"] == 5
    assert len(data["steps"]) == 3
    path = tmp_path / "schedule.json"
    write_schedule_json(sched, path)
    loaded = json.loads(path.read_text())
    assert loaded == data
