"""Latency and energy models for the in-sensor MAC,
plus waveform table assembly from captured phase traces.

Latency is purely structural (phase durations times scheduled array cycles).
Energy has two modes: `calibrated` reproduces the measured per-classification
figure, `charge_based` sums |Q_n * V_n| over the charging phase as a
physically motivated lower-bound estimate.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .arrays import ArrayTopology, resource_report
from .device import (DEFAULT_PHASE_NS, MacPhase, PHASE_ORDER, SWITCH_NAMES,
                     phase_switches)
from .netlab import NetworkSpec

# Measured energy of one 4-bank FC classification cycle.
DEFAULT_ENERGY_NJ = 0.9


@dataclass(frozen=True)
class PhaseTiming:
    """Durations (ns) of the four MAC phases; each defaults to
    device.DEFAULT_PHASE_NS."""

    t_clear: float = DEFAULT_PHASE_NS
    t_charge: float = DEFAULT_PHASE_NS
    t_transfer: float = DEFAULT_PHASE_NS
    t_sum: float = DEFAULT_PHASE_NS

    def __post_init__(self):
        if min(self.t_clear, self.t_charge, self.t_transfer, self.t_sum) <= 0:
            raise ValueError("phase durations must be positive")

    @property
    def durations(self):
        return (self.t_clear, self.t_charge, self.t_transfer, self.t_sum)

    @property
    def total(self) -> float:
        return self.t_clear + self.t_charge + self.t_transfer + self.t_sum


@dataclass(frozen=True)
class EnergyModel:
    mode: str = "calibrated"            # "calibrated" | "charge_based"
    e_per_classification: float = DEFAULT_ENERGY_NJ   # nJ, calibrated mode

    def __post_init__(self):
        if self.mode not in ("calibrated", "charge_based"):
            raise ValueError(f"unknown energy mode: {self.mode!r}")


def cycle_count(net: NetworkSpec, topology: ArrayTopology) -> int:
    """Sequential array cycles per inference: ceil(M/banks) for FC readout,
    one horizontal schedule step per cycle for convolution."""
    if net.architecture in ("fc_classifier", "autoencoder"):
        return math.ceil(net.outputs / topology.banks)
    if net.architecture == "cnn_classifier":
        return net.cols - net.kernel + 1
    raise ValueError(f"unknown architecture: {net.architecture!r}")


def latency(net: NetworkSpec, timing: PhaseTiming, topology: ArrayTopology) -> float:
    """Total nanoseconds: (sum of phase durations) x (scheduled cycles).
    Independent of weight values."""
    return timing.total * cycle_count(net, topology)


def energy(model: EnergyModel, net: NetworkSpec | None = None,
           topology: ArrayTopology | None = None, trace=None) -> float:
    """Energy in nJ for one inference.

    calibrated: e_per_classification scaled by the cycle count (needs net
    and topology). charge_based: sum of |Q_n * V_n| over the charge phase
    of a captured trace, the (charge, volts) pair of device.mac_phases
    (needs trace); 1 pC*V = 1 pJ = 1e-3 nJ.
    """
    if model.mode == "calibrated":
        if net is None or topology is None:
            raise ValueError("calibrated mode needs a network spec and topology")
        return model.e_per_classification * cycle_count(net, topology)
    if trace is None:
        raise ValueError("charge_based mode needs a captured MAC trace")
    charge, volts = trace
    # Phase 1 of PHASE_ORDER is CHARGE; bank by bank, unit by unit.
    picojoule = sum(abs(charge[1] * volts[1]).ravel().tolist())
    return picojoule / 1000.0


def assemble_waveform(phases, timing: PhaseTiming):
    """Build a timed (time_ns, signal, value) table from a captured MAC
    cycle, the (charge, volts) pair of device.mac_phases.

    Signals are the four switch levels plus U_1..U_M; every signal is
    piecewise constant per phase, U_m becomes the bank's summed output at the
    start of the summation phase and the final values equal fc_forward's
    outputs exactly.
    """
    _, volts = phases
    finals = volts[-1, :, 0].tolist()
    if not finals:
        raise ValueError("empty trace; capture one with device.mac_phases")
    rows = []
    # Five samples per signal: the start of each phase, then t_total, where
    # the summation levels repeat to close the cycle for plotting.
    starts = itertools.accumulate(timing.durations, initial=0.0)
    for t0, phase in zip(starts, PHASE_ORDER + (MacPhase.SUM,)):
        rows += [(t0, name, float(level))
                 for name, level in zip(SWITCH_NAMES, phase_switches(phase))]
        rows += [(t0, f"U{m + 1}", u if phase == MacPhase.SUM else 0.0)
                 for m, u in enumerate(finals)]
    return rows


def waveform_final_outputs(rows) -> list[float]:
    """The last value of each U_m signal in a waveform table."""
    finals = {}
    for t, signal, value in rows:
        if signal.startswith("U"):
            finals[signal] = value
    return [finals[f"U{m + 1}"] for m in range(len(finals))]


def write_waveform_csv(rows, path):
    lines = ["time_ns,signal,value"]
    for t, signal, value in rows:
        lines.append(f"{t!r},{signal},{value!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def summary(net: NetworkSpec, timing: PhaseTiming, topology: ArrayTopology,
            model: EnergyModel) -> dict:
    """Metrics JSON bundle: latency, energy, cycles and converter counts."""
    cycles = cycle_count(net, topology)
    if net.architecture == "cnn_classifier":
        dacs, adcs, _ = resource_report(net.rows, net.cols, net.kernel)
    else:
        # FC wiring: one DAC per (bank, pixel) voltage, one ADC per bank.
        dacs = topology.banks * net.rows * net.cols
        adcs = topology.banks
    return {
        "architecture": net.architecture,
        "latency_ns": latency(net, timing, topology),
        "energy_nJ": energy(model, net=net, topology=topology)
        if model.mode == "calibrated" else None,
        "cycles": cycles,
        "dacs": dacs,
        "adcs": adcs,
    }


def write_summary_json(data: dict, path):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
