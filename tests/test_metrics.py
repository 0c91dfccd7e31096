import numpy as np
import pytest

from capmac.arrays import build_conv_array, build_fc_array, fc_forward
from capmac.device import MacPhase, SensorParams, mac
from capmac.metrics import (EnergyModel, PhaseTiming, assemble_waveform,
                            cycle_count, energy, latency, summary,
                            waveform_final_outputs, write_summary_json,
                            write_waveform_csv)
from capmac.netlab import autoencoder_spec, cnn_spec, fc_spec

PARAMS = SensorParams()


class TestPhaseTiming:
    def test_defaults_sum_to_350(self):
        t = PhaseTiming()
        assert t.total == 350.0
        assert t.durations == (87.5, 87.5, 87.5, 87.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhaseTiming(t_clear=0.0)


class TestLatency:
    def test_fc_four_banks_is_one_cycle(self):
        topo = build_fc_array(3, 3, 4)
        assert latency(fc_spec(), PhaseTiming(), topo) == 350.0

    def test_conv_5x5_is_three_cycles(self):
        topo = build_conv_array(5, 5, 3)
        assert latency(cnn_spec(), PhaseTiming(), topo) == pytest.approx(1050.0)

    def test_single_bank_serializes_four_times(self):
        topo1 = build_fc_array(3, 3, 1)
        topo4 = build_fc_array(3, 3, 4)
        assert (latency(fc_spec(), PhaseTiming(), topo1)
                == 4 * latency(fc_spec(), PhaseTiming(), topo4))

    def test_autoencoder_encoder_is_one_cycle(self):
        topo = build_fc_array(3, 3, 4)
        assert cycle_count(autoencoder_spec(), topo) == 1

    def test_independent_of_weights_additive_in_cycles(self):
        timing = PhaseTiming(t_clear=10, t_charge=20, t_transfer=30, t_sum=40)
        topo = build_conv_array(7, 9, 3)
        spec = cnn_spec()
        spec = type(spec)(spec.architecture, 7, 9, 4, 3, spec.activations)
        assert latency(spec, timing, topo) == pytest.approx(100.0 * 7)


class TestEnergy:
    def test_calibrated_default(self):
        topo = build_fc_array(3, 3, 4)
        assert energy(EnergyModel(), net=fc_spec(), topology=topo) == 0.9

    def test_calibrated_scales_with_cycles(self):
        topo = build_conv_array(5, 5, 3)
        assert energy(EnergyModel(), net=cnn_spec(), topology=topo) == pytest.approx(2.7)

    def test_charge_based_zero_weights(self):
        trace = []
        mac([62.937] * 9, [[0.0] * 9], 72.0, trace=trace)
        model = EnergyModel(mode="charge_based")
        assert energy(model, trace=trace) == 0.0

    def test_charge_based_all_ones_consistency(self):
        # sum over charge phase of |Q*V| = 9 * 62.937 pC * 1 V = 0.566 nJ;
        # order-of-magnitude consistent with the calibrated 0.9 nJ figure
        trace = []
        mac([62.937] * 9, [[1.0] * 9], 72.0, trace=trace)
        e = energy(EnergyModel(mode="charge_based"), trace=trace)
        assert e == pytest.approx(0.566433, abs=1e-6)
        assert 0.1 < e < 2.0

    def test_charge_based_monotone_in_weight_magnitude(self):
        model = EnergyModel(mode="charge_based")
        lo, hi = [], []
        mac([50.0] * 9, [[0.3] * 9], 72.0, trace=lo)
        mac([50.0] * 9, [[0.9] * 9], 72.0, trace=hi)
        assert energy(model, trace=hi) > energy(model, trace=lo)

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            energy(EnergyModel(), net=None, topology=None)
        with pytest.raises(ValueError):
            energy(EnergyModel(mode="charge_based"), trace=None)
        with pytest.raises(ValueError):
            EnergyModel(mode="thermal")


class TestAssembleWaveform:
    def _traced_forward(self, weights):
        topo = build_fc_array(3, 3, 4)
        img = np.where(np.eye(3) > 0, 500.0, 16.77)
        traces = []
        outputs = fc_forward(topo, img, weights, PARAMS, traces=traces)
        return outputs, traces

    def test_finals_match_fc_forward_exactly(self):
        rng = np.random.default_rng(0)
        outputs, traces = self._traced_forward(rng.uniform(-1, 1, (4, 9)))
        rows = assemble_waveform(traces, PhaseTiming())
        finals = waveform_final_outputs(rows)
        assert finals == outputs

    def test_zero_weights_flat_at_zero(self):
        _, traces = self._traced_forward(np.zeros((4, 9)))
        rows = assemble_waveform(traces, PhaseTiming())
        u_rows = [r for r in rows if r[1].startswith("U")]
        assert all(v == 0.0 for _, _, v in u_rows)

    def test_piecewise_constant_and_time_ordered(self):
        rng = np.random.default_rng(1)
        _, traces = self._traced_forward(rng.uniform(-1, 1, (4, 9)))
        rows = assemble_waveform(traces, PhaseTiming())
        by_signal = {}
        for t, sig, v in rows:
            by_signal.setdefault(sig, []).append((t, v))
        assert set(by_signal) == {"CL", "MUL", "CON", "ADD", "U1", "U2", "U3", "U4"}
        for sig, pts in by_signal.items():
            times = [t for t, _ in pts]
            assert times == sorted(times)
            assert len(pts) == 5  # four phases + closing sample

    def test_switch_levels_follow_phases(self):
        _, traces = self._traced_forward(np.zeros((4, 9)))
        rows = assemble_waveform(traces, PhaseTiming())
        levels = {(t, sig): v for t, sig, v in rows}
        # clear at t=0: CL, CON, ADD high, MUL low
        assert (levels[(0.0, "CL")], levels[(0.0, "MUL")],
                levels[(0.0, "CON")], levels[(0.0, "ADD")]) == (1.0, 0.0, 1.0, 1.0)
        # charge at 87.5: only MUL
        assert (levels[(87.5, "CL")], levels[(87.5, "MUL")],
                levels[(87.5, "CON")], levels[(87.5, "ADD")]) == (0.0, 1.0, 0.0, 0.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            assemble_waveform([], PhaseTiming())

    def test_csv_export(self, tmp_path):
        _, traces = self._traced_forward(np.zeros((4, 9)))
        rows = assemble_waveform(traces, PhaseTiming())
        path = tmp_path / "waveform.csv"
        write_waveform_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_ns,signal,value"
        assert len(lines) == len(rows) + 1


class TestSummary:
    def test_fc_summary(self, tmp_path):
        topo = build_fc_array(3, 3, 4)
        data = summary(fc_spec(), PhaseTiming(), topo, EnergyModel())
        assert data["latency_ns"] == 350.0
        assert data["energy_nJ"] == 0.9
        assert data["cycles"] == 1
        assert data["dacs"] == 36
        assert data["adcs"] == 4
        write_summary_json(data, tmp_path / "m.json")
        assert (tmp_path / "m.json").exists()

    def test_cnn_summary_uses_resource_report(self):
        topo = build_conv_array(5, 5, 3)
        data = summary(cnn_spec(), PhaseTiming(), topo, EnergyModel())
        assert data["cycles"] == 3
        assert data["dacs"] == 9
        assert data["adcs"] == 5
