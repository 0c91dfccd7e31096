import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays as np_arrays

from capmac.arrays import (ArrayTopology, build_conv_array, build_fc_array, fc_forward,
                           gather_windows)
from capmac.cli import _json_text
from capmac.device import (DEFAULT_PHASE_NS, PHASES, SWITCH_NAMES, SensorParams, mac_phases,
                           series_capacitance, trace_text)
from capmac.metrics import (DEFAULT_ENERGY_PJ, assemble_waveform, charge_energy,
                            schedule_report, waveform_final_outputs, waveform_text)
from capmac.netlab import MODELS

PARAMS = SensorParams()
FC_SPEC, AE_SPEC, CNN_SPEC = (MODELS[arch].spec for arch in
                              ("fc_classifier", "autoencoder", "cnn_classifier"))


class TestPhaseTiming:
    def test_defaults_sum_to_350(self):
        assert len(PHASES) * DEFAULT_PHASE_NS == 350.0
        assert DEFAULT_PHASE_NS == 87.5


class TestLatency:
    def test_fc_four_banks_is_one_cycle(self):
        assert schedule_report(FC_SPEC)["latency_ns"] == 350.0

    def test_conv_5x5_is_three_cycles(self):
        assert schedule_report(CNN_SPEC)["latency_ns"] == pytest.approx(1050.0)

    def test_autoencoder_encoder_is_one_cycle(self):
        assert schedule_report(AE_SPEC)["step_count"] == 1

    def test_independent_of_weights_additive_in_cycles(self):
        spec = build_conv_array(7, 9, 3)
        assert schedule_report(spec)["latency_ns"] == pytest.approx(350.0 * 7)

    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=3, max_value=12))
    def test_one_cycle_per_schedule_step(self, rows, cols):
        report = schedule_report(build_conv_array(rows, cols, 3))
        assert report["step_count"] == len(report["steps"])
        assert report["latency_ns"] == 350.0 * len(report["steps"])
        assert report["energy_nJ"] == pytest.approx(0.9 * len(report["steps"]))


class TestEnergy:
    def test_calibrated_default(self):
        assert schedule_report(FC_SPEC)["energy_nJ"] == 0.9

    def test_calibrated_scales_with_cycles(self):
        assert schedule_report(CNN_SPEC)["energy_nJ"] == pytest.approx(2.7)

    def test_charge_based_zero_weights(self):
        trace = mac_phases([62.937] * 9, [[0.0] * 9], 72.0)
        assert charge_energy(trace) == 0.0

    def test_charge_based_all_ones_consistency(self):
        # sum over charge phase of |Q*V| = 9 * 62.937 pC * 1 V = 0.566 nJ;
        # order-of-magnitude consistent with the calibrated 0.9 nJ figure
        trace = mac_phases([62.937] * 9, [[1.0] * 9], 72.0)
        e = charge_energy(trace)
        assert e == pytest.approx(0.566433, abs=1e-6)
        assert 0.1 < e < 2.0

    def test_charge_based_monotone_in_weight_magnitude(self):
        lo = mac_phases([50.0] * 9, [[0.3] * 9], 72.0)
        hi = mac_phases([50.0] * 9, [[0.9] * 9], 72.0)
        assert charge_energy(hi) > charge_energy(lo)


class TestAssembleWaveform:
    def _traced_forward(self, weights):
        topo = build_fc_array(3, 3, 4)
        img = np.where(np.eye(3) > 0, 500.0, 16.77)
        outputs = fc_forward(topo, img, weights, PARAMS)
        cs = series_capacitance(img.reshape(-1), PARAMS.c0)
        return outputs, mac_phases(cs, weights, PARAMS.c0)

    def test_finals_match_fc_forward_exactly(self):
        rng = np.random.default_rng(0)
        outputs, phases = self._traced_forward(rng.uniform(-1, 1, (4, 9)))
        rows = assemble_waveform(phases)
        finals = waveform_final_outputs(rows)
        assert finals == outputs

    def test_zero_weights_flat_at_zero(self):
        _, phases = self._traced_forward(np.zeros((4, 9)))
        rows = assemble_waveform(phases)
        u_rows = [r for r in rows if r[1].startswith("U")]
        assert all(v == 0.0 for _, _, v in u_rows)

    def test_piecewise_constant_and_time_ordered(self):
        rng = np.random.default_rng(1)
        _, phases = self._traced_forward(rng.uniform(-1, 1, (4, 9)))
        rows = assemble_waveform(phases)
        by_signal = {}
        for t, sig, v in rows:
            by_signal.setdefault(sig, []).append((t, v))
        assert set(by_signal) == {"CL", "MUL", "CON", "ADD", "U1", "U2", "U3", "U4"}
        for sig, pts in by_signal.items():
            times = [t for t, _ in pts]
            assert times == sorted(times)
            assert len(pts) == 5  # four phases + closing sample

    def test_switch_levels_follow_phases(self):
        _, phases = self._traced_forward(np.zeros((4, 9)))
        rows = assemble_waveform(phases)
        levels = {(t, sig): v for t, sig, v in rows}
        # clear at t=0: CL, CON, ADD high, MUL low
        assert (levels[(0.0, "CL")], levels[(0.0, "MUL")],
                levels[(0.0, "CON")], levels[(0.0, "ADD")]) == (1.0, 0.0, 1.0, 1.0)
        # charge at 87.5: only MUL
        assert (levels[(87.5, "CL")], levels[(87.5, "MUL")],
                levels[(87.5, "CON")], levels[(87.5, "ADD")]) == (0.0, 1.0, 0.0, 0.0)

    def test_empty_trace_rejected(self):
        no_banks = mac_phases([50.0] * 9, np.zeros((0, 9)), 72.0)
        with pytest.raises(ValueError):
            assemble_waveform(no_banks)

    def test_phase_starts_match_trace_csv(self):
        rng = np.random.default_rng(3)
        _, phases = self._traced_forward(rng.uniform(-1, 1, (4, 9)))
        trace_starts = {}
        for row in trace_text(phases).splitlines()[1:]:
            fields = row.split(",")
            trace_starts.setdefault(fields[1], set()).add(fields[-1])
        wave_starts = sorted({row.split(",")[0] for row in
                              waveform_text(assemble_waveform(phases)).splitlines()[1:]},
                             key=float)
        # each phase starts at one time in trace.csv, the waveform's k-th sample
        assert [trace_starts[name] for name, _ in PHASES] == [{t} for t in wave_starts[:4]]

    def test_csv_export(self):
        _, phases = self._traced_forward(np.zeros((4, 9)))
        rows = assemble_waveform(phases)
        lines = waveform_text(rows).splitlines()
        assert lines[0] == "time_ns,signal,value"
        assert len(lines) == len(rows) + 1


def _reference_trace_text(phases):
    """trace_text(phases) as its per-line loop wrote it, before the rows'
    constant parts became a per-shape frame."""
    charge, volts = phases
    lines = ["unit_index,phase,CL,MUL,CON,ADD,charge_pC,voltage_V,time_ns"]
    for m in range(charge.shape[1]):
        for k, (phase, levels) in enumerate(PHASES):
            switches = ",".join(map(str, levels))
            start = k * DEFAULT_PHASE_NS
            lines += [f"{i},{phase},{switches},{q!r},{u!r},{start!r}" for i, (q, u)
                      in enumerate(zip(charge[k, m].tolist(), volts[k, m].tolist()))]
    return "\n".join(lines) + "\n"


def _reference_waveform_text(phases):
    """waveform_text(assemble_waveform(phases)) as their per-row
    loops wrote it."""
    finals = phases[1][-1, :, 0].tolist()
    lines = ["time_ns,signal,value"]
    for k, (phase, levels) in enumerate(PHASES + PHASES[-1:]):
        t0 = k * DEFAULT_PHASE_NS
        rows = [(t0, name, float(level)) for name, level in zip(SWITCH_NAMES, levels)]
        rows += [(t0, f"U{m + 1}", u if phase == "sum" else 0.0) for m, u in enumerate(finals)]
        lines += [f"{t!r},{signal},{value!r}" for t, signal, value in rows]
    return "\n".join(lines) + "\n"


# Every float class the writers repr: both zeros, NaN, infinities, subnormals.
_TRACE_VALUES = (st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                  -2.5e-310, 1.0, -1.0, 62.937])
                 | st.floats(allow_nan=True, allow_infinity=True))


class TestWritersAsBefore:
    """The trace and waveform CSVs are byte for byte what the per-line loops wrote."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 16), st.data())
    def test_trace_and_waveform_text_unchanged(self, banks, units, data):
        both = data.draw(np_arrays(float, (2, len(PHASES), banks, units), elements=_TRACE_VALUES))
        phases = (both[0], both[1])
        assert trace_text(phases) == _reference_trace_text(phases)
        assert waveform_text(assemble_waveform(phases)) == _reference_waveform_text(phases)

    def test_a_shape_seen_again_writes_its_own_values(self):
        # The frame is cached per shape; the values are not.
        for scale in (1.0, -3.0):
            phases = mac_phases([62.937, 13.602], [[0.5 * scale / 3, -0.25]], 72.0)
            assert trace_text(phases) == _reference_trace_text(phases)


class TestSummary:
    def test_fc_summary(self):
        data = schedule_report(FC_SPEC)
        assert data["latency_ns"] == 350.0
        assert data["energy_nJ"] == 0.9
        assert data["step_count"] == 1
        assert data["dac_count"] == 36
        assert data["adc_count"] == 4
        assert data["banks"] == 4

    @pytest.mark.parametrize("arch,latency_ns,energy_nj,cycles,dacs,adcs", [
        ("fc_classifier", 350.0, 0.9, 1, 36, 4),
        ("autoencoder", 350.0, 0.9, 1, 36, 4),
        ("cnn_classifier", 1050.0, 2.7, 3, 9, 3),
    ])
    def test_every_model(self, arch, latency_ns, energy_nj, cycles, dacs, adcs):
        data = schedule_report(MODELS[arch].spec)
        assert data["latency_ns"] == pytest.approx(latency_ns)
        assert data["energy_nJ"] == pytest.approx(energy_nj)
        assert (data["step_count"], data["dac_count"], data["adc_count"]) == (cycles, dacs, adcs)

    def test_cnn_summary_uses_resource_report(self):
        data = schedule_report(CNN_SPEC)
        assert data["step_count"] == 3
        assert data["dac_count"] == 9
        assert data["adc_count"] == 3
        steps = [{"step": c, "windows": [{"row": r, "col": c, "adc": r} for r in range(3)]}
                 for c in range(3)]
        assert data == {"rows": 5, "cols": 5, "kernel": 3, "dac_count": 9, "adc_count": 3,
                        "step_count": 3, "steps": steps,
                        "latency_ns": 1050.0, "energy_nJ": 2.7}

    def test_conv_report_ignores_hand_built_banks(self):
        # A convolution array has one ADC lane per band of rows, whatever
        # banks a hand-built topology states.
        assert (schedule_report(ArrayTopology(5, 5, 7, 3))
                == schedule_report(build_conv_array(5, 5, 3)))

    def test_fc_report_refuses_a_bankless_array(self):
        # Regression: ArrayTopology(5, 5, -1) reported dac_count -25.
        with pytest.raises(ValueError, match="^need at least one bank$"):
            schedule_report(ArrayTopology(5, 5, -1))

    def test_conv_report_refuses_geometry_naming_parameter(self):
        with pytest.raises(ValueError, match=r"^rows must be in \[3, 256\] for a 3x3 kernel"):
            schedule_report(ArrayTopology(2, 5, 3, 3))


def _reference_schedule_report(spec):
    """schedule_report as it was written before both wirings shared one
    report skeleton: each branch stating its own counts."""
    topo = (build_conv_array(spec.rows, spec.cols, spec.kernel) if spec.kernel
            else build_fc_array(spec.rows, spec.cols, spec.banks))  # checked geometry
    if topo.kernel:
        steps = topo.cols - topo.kernel + 1
        report = {
            "rows": topo.rows,
            "cols": topo.cols,
            "kernel": topo.kernel,
            "dac_count": topo.kernel ** 2,
            "adc_count": topo.banks,
            "step_count": steps,
            "steps": [{"step": c, "windows": [{"row": r, "col": c, "adc": r}
                                              for r in range(topo.banks)]}
                      for c in range(steps)],
        }
    else:
        pixels = [[r, c] for r in range(topo.rows) for c in range(topo.cols)]
        report = {
            "type": "fc_banks",
            "rows": topo.rows,
            "cols": topo.cols,
            "banks": topo.banks,
            "wiring": {str(m): pixels for m in range(topo.banks)},
            "dac_count": topo.banks * len(pixels),
            "adc_count": topo.banks,
            "step_count": 1,
        }
    cycles = report["step_count"]
    return {**report,
            "latency_ns": len(PHASES) * DEFAULT_PHASE_NS * cycles,
            "energy_nJ": DEFAULT_ENERGY_PJ * cycles / 1000}


@st.composite
def _topologies(draw):
    """An FC topology, or a convolution one with hand-built banks that the
    report must ignore."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kernel = draw(st.one_of(st.just(0), st.integers(1, min(rows, cols))))
    return ArrayTopology(rows, cols, draw(st.integers(1, 8)), kernel)


class TestReportAsBefore:
    @settings(max_examples=300, deadline=None)
    @given(_topologies())
    def test_report_text_is_the_two_branch_text(self, spec):
        # Compared as printed text: an int that became a float would compare
        # equal as a value but print differently.
        assert _json_text(schedule_report(spec)) == _json_text(_reference_schedule_report(spec))


class TestSweepMatchesCompute:
    """The report's sweep is the computation's: each step's windows are the
    windows conv_forward reads (through gather_windows) at that column."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_report_windows_are_the_gathered_windows(self, rows, cols, data):
        kernel = data.draw(st.integers(1, min(rows, cols)))
        report = schedule_report(build_conv_array(rows, cols, kernel))
        lanes, steps = rows - kernel + 1, cols - kernel + 1
        # A window's origin is the first of its taps; windows run row-major.
        taps = gather_windows(np.arange(rows * cols).reshape(1, rows, cols), kernel)[0]
        origins = taps[:, 0].reshape(lanes, steps)
        assert report["step_count"] == steps
        assert [step["step"] for step in report["steps"]] == list(range(steps))
        for c, step in enumerate(report["steps"]):
            assert ([(w["row"], w["col"]) for w in step["windows"]]
                    == [divmod(int(o), cols) for o in origins[:, c]])
            assert [w["adc"] for w in step["windows"]] == list(range(lanes))
