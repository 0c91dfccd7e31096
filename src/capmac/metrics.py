"""The hardware cost of an inference, read off the arrays.ArrayTopology it
runs on, plus waveform table assembly from captured phase traces.

`schedule_report` is the one source of every count: array cycles (the steps
of a convolution's left-to-right sweep, or the FC array's one cycle), ADCs
and DACs, and from the cycles the latency, four phases of
device.DEFAULT_PHASE_NS (a 350 ns cycle) each, and the energy,
DEFAULT_ENERGY_PJ each. `charge_energy` sums |Q_n * V_n| over the CHARGE
phase only: a lower bound, so 0.39 nJ for a traced FC cycle vs 0.9 nJ is expected.
"""

from __future__ import annotations

from .arrays import ArrayTopology, build_conv_array, build_fc_array
from .device import DEFAULT_PHASE_NS, PHASES, SWITCH_NAMES

# Energy of one 4-bank FC cycle, 0.9 nJ, in whole pJ so that any cycle count's nJ
# is the nearest float to its decimal. Unsourced: PAPER.md is the abstract only.
DEFAULT_ENERGY_PJ = 900


def schedule_report(spec: ArrayTopology) -> dict:
    """JSON-ready account of the array `spec` and what one inference costs on
    it, with the latency and energy of its step_count array cycles.

    A convolution array (kernel set) sweeps its windows left to right: step c
    reads window (r, c) on ADC lane r for each of its rows - kernel + 1 lanes,
    with one DAC per kernel weight. An FC array runs in one cycle in which each
    of its `banks` reads every pixel in row-major order, as fc_forward does:
    one ADC per bank and one DAC per (bank, pixel) voltage.
    """
    topo = (build_conv_array(spec.rows, spec.cols, spec.kernel) if spec.kernel
            else build_fc_array(spec.rows, spec.cols, spec.banks))  # checked geometry
    steps = topo.cols - topo.kernel + 1 if topo.kernel else 1
    report = {
        "rows": topo.rows,
        "cols": topo.cols,
        "adc_count": topo.banks,
        "step_count": steps,
        "latency_ns": len(PHASES) * DEFAULT_PHASE_NS * steps,
        "energy_nJ": DEFAULT_ENERGY_PJ * steps / 1000,
    }
    if topo.kernel:
        return {**report,
                "kernel": topo.kernel,
                "dac_count": topo.kernel ** 2,
                "steps": [{"step": c, "windows": [{"row": r, "col": c, "adc": r}
                                                  for r in range(topo.banks)]}
                          for c in range(steps)]}
    pixels = [[r, c] for r in range(topo.rows) for c in range(topo.cols)]
    return {**report,
            "type": "fc_banks",
            "banks": topo.banks,
            "wiring": {str(m): pixels for m in range(topo.banks)},
            "dac_count": topo.banks * len(pixels)}


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
    finals = {signal: value for _, signal, value in rows if signal.startswith("U")}
    return [finals[f"U{m + 1}"] for m in range(len(finals))]


def waveform_text(rows) -> str:
    """A waveform table of assemble_waveform as CSV, one row per sample."""
    text = "".join([f"{t!r},{signal},{value!r}\n" for t, signal, value in rows])
    return "time_ns,signal,value\n" + text
