"""Latency and energy of the in-sensor MAC, plus waveform table assembly
from captured phase traces.

Latency is structural: the four phases of device.DEFAULT_PHASE_NS (a 350 ns
cycle) times the scheduled array cycles. `energy` scales the measured
per-classification figure by the same cycle count; `charge_energy` sums
|Q_n * V_n| over the charging phase of a captured cycle as a physically
motivated lower-bound estimate.
"""

from __future__ import annotations

import json
import math

from .arrays import ArrayTopology, resource_report
from .device import DEFAULT_PHASE_NS, PHASES, SWITCH_NAMES
from .netlab import NetworkSpec

# Measured energy of one 4-bank FC classification cycle.
DEFAULT_ENERGY_NJ = 0.9


def cycle_count(net: NetworkSpec, topology: ArrayTopology) -> int:
    """Sequential array cycles per inference: one horizontal schedule step per
    cycle for convolution, ceil(M/banks) for FC readout."""
    if net.kernel:
        return net.cols - net.kernel + 1
    return math.ceil(net.outputs / topology.banks)


def latency(net: NetworkSpec, topology: ArrayTopology) -> float:
    """Total nanoseconds: the cycle's four phase durations times the
    scheduled cycles. Independent of weight values."""
    return len(PHASES) * DEFAULT_PHASE_NS * cycle_count(net, topology)


def energy(net: NetworkSpec, topology: ArrayTopology) -> float:
    """Energy in nJ for one inference: DEFAULT_ENERGY_NJ per array cycle."""
    return DEFAULT_ENERGY_NJ * cycle_count(net, topology)


def charge_energy(phases) -> float:
    """Energy in nJ of a captured MAC cycle, the (charge, volts) pair of
    device.mac_phases: the sum of |Q_n * V_n| over the CHARGE phase (PHASES[1]),
    bank by bank and unit by unit; 1 pC*V = 1 pJ = 1e-3 nJ."""
    charge, volts = phases
    return sum(abs(charge[1] * volts[1]).ravel().tolist()) / 1000.0


def assemble_waveform(phases):
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
    # Five samples per signal: the start of each phase, then the cycle's end,
    # where the summation levels repeat to close the cycle for plotting.
    for k, (phase, levels) in enumerate(PHASES + PHASES[-1:]):
        t0 = k * DEFAULT_PHASE_NS
        rows += [(t0, name, float(level)) for name, level in zip(SWITCH_NAMES, levels)]
        rows += [(t0, f"U{m + 1}", u if phase == "sum" else 0.0)
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


def summary(net: NetworkSpec, topology: ArrayTopology) -> dict:
    """Metrics JSON bundle: latency, energy, cycles and converter counts."""
    if net.kernel:
        dacs, adcs, _ = resource_report(net.rows, net.cols, net.kernel)
    else:
        # FC wiring: one DAC per (bank, pixel) voltage, one ADC per bank.
        dacs = topology.banks * net.rows * net.cols
        adcs = topology.banks
    return {
        "architecture": net.architecture,
        "latency_ns": latency(net, topology),
        "energy_nJ": energy(net, topology),
        "cycles": cycle_count(net, topology),
        "dacs": dacs,
        "adcs": adcs,
    }


def write_summary_json(data: dict, path):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
