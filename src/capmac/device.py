"""Single capacitive pixel: induced series capacitance and the four-phase
charge-domain multiply-accumulate unit.

Units are pF for capacitance, V for voltage and pC for charge throughout
(pF * V = pC), so no unit conversions appear in the math.

The switch model is behavioral: transmission gates are ideal, with no charge
injection, leakage or RC settling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Paper operating point: C0 = 72 pF sensor cap, touched / untouched pixel
# induced capacitances 500 / 16.77 pF, 20% rms capacitance noise.
DEFAULT_C0 = 72.0
DEFAULT_C_IH = 500.0
DEFAULT_C_IL = 16.77
DEFAULT_NOISE_FRAC = 0.2

# Gaussian noise can push a capacitance through zero; the series formula
# needs a strictly positive value.
NOISE_FLOOR_PF = 0.01

# Default per-phase duration (ns); four equal phases summing to 350 ns.
DEFAULT_PHASE_NS = 87.5


class MacPhase(enum.Enum):
    """The four phases of one MAC cycle, in execution order."""

    CLEAR = "clear"
    CHARGE = "charge"
    TRANSFER = "transfer"
    SUM = "sum"


PHASE_ORDER = (MacPhase.CLEAR, MacPhase.CHARGE, MacPhase.TRANSFER, MacPhase.SUM)

# Switch levels (CL, MUL, CON, ADD) asserted during each phase.
_PHASE_SWITCHES = {
    MacPhase.CLEAR: (True, False, True, True),
    MacPhase.CHARGE: (False, True, False, False),
    MacPhase.TRANSFER: (False, False, True, False),
    MacPhase.SUM: (False, False, True, True),
}

SWITCH_NAMES = ("CL", "MUL", "CON", "ADD")


def phase_switches(phase: MacPhase) -> tuple[bool, bool, bool, bool]:
    """Return the (CL, MUL, CON, ADD) switch levels for a phase."""
    return _PHASE_SWITCHES[phase]


@dataclass(frozen=True)
class SensorParams:
    """Fixed electrical parameters of the sensor array.

    noise_mode selects the sigma reference for capacitance noise:
    "per_class" uses each pixel's own clean value (c_ih or c_il),
    "global" uses c_ih for every pixel.
    """

    c0: float = DEFAULT_C0
    c_ih: float = DEFAULT_C_IH
    c_il: float = DEFAULT_C_IL
    noise_frac: float = DEFAULT_NOISE_FRAC
    noise_mode: str = "per_class"

    def __post_init__(self):
        for name in ("c0", "c_ih", "c_il", "noise_frac"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.c0 <= 0 or self.c_ih <= 0 or self.c_il <= 0:
            raise ValueError("capacitances must be positive")
        if self.c_ih <= self.c_il:
            raise ValueError("c_ih must exceed c_il")
        if self.noise_frac < 0:
            raise ValueError("noise_frac must be >= 0")
        if self.noise_mode not in ("per_class", "global"):
            raise ValueError(f"unknown noise_mode: {self.noise_mode!r}")


def series_capacitance(c_i, c0):
    """Series combination c_i*c0/(c_i + c0) of the induced and sensor caps.

    Accepts scalars or arrays; the result is strictly below both inputs.
    Raises ValueError for non-positive capacitance.
    """
    c_i = np.asarray(c_i, dtype=float)
    if np.any(c_i <= 0) or c0 <= 0:
        raise ValueError("capacitances must be positive")
    out = c_i * c0 / (c_i + c0)
    return float(out) if out.ndim == 0 else out


def apply_noise(c_i_clean, nominal, noise_frac, rng):
    """Add Gaussian capacitance noise with sigma = noise_frac * nominal.

    `nominal` is the clean class value the rms noise is referenced to
    (broadcast against c_i_clean). Results are clamped at NOISE_FLOOR_PF so
    the series formula stays defined. Deterministic for a seeded rng.
    """
    if noise_frac < 0:
        raise ValueError("noise_frac must be >= 0")
    c_i_clean = np.asarray(c_i_clean, dtype=float)
    if noise_frac == 0:
        out = c_i_clean.copy()
    else:
        delta = rng.standard_normal(c_i_clean.shape) * (noise_frac * np.asarray(nominal, dtype=float))
        out = np.maximum(c_i_clean + delta, NOISE_FLOOR_PF)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TraceRecord:
    """State of one MAC unit at the end of one phase."""

    unit: int
    phase: MacPhase
    cl: bool
    mul: bool
    con: bool
    add: bool
    charge_pc: float
    voltage_v: float


def mac(cs, v, c0: float = DEFAULT_C0, trace: list | None = None):
    """Charge-domain MAC of M banks: U[..., m] = sum_n cs[..., n] v[m, n] / (N c0).

    cs holds the series capacitances seen by the N units of a bank on its last
    axis, with any leading batch axes; v is the M x N matrix of weight
    voltages (|v| <= 1, the pre-normalized programming range), one row per
    bank. Each bank runs the four phases: CHARGE stores Q_n = c_n v_n,
    TRANSFER moves it onto c0 (plate at Q_n/c0), SUM shares the N charges
    (common plate at sum(Q)/(N c0)). The rounding of the sum depends on the
    shape matmul sees, so the leading axes are kept, never flattened: a
    (B, W, N) call equals its B separate (W, N) calls bit for bit.

    Pass a list as `trace`, with a single sample (cs of shape (N,)), to append
    one list of TraceRecords per bank, phase-major and unit by unit; the
    records are read off the same arrays.
    """
    cs = np.asarray(cs, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"weight voltages must be an M x N matrix, got shape {v.shape}")
    n = v.shape[1]
    if cs.ndim < 1 or cs.shape[-1] != n:
        raise ValueError(f"length mismatch: capacitances of shape {cs.shape} "
                         f"vs {n} weights")
    if n < 1:
        raise ValueError("need at least one unit")
    if not (c0 > 0 and cs.min(initial=np.inf) > 0):
        raise ValueError("capacitances must be positive")
    if not abs(v).max(initial=0.0) <= 1.0:
        raise ValueError("weight voltage outside [-1, 1]; normalize weights first")
    if trace is not None and cs.ndim != 1:
        raise ValueError("trace capture takes a single sample of N capacitances")
    u = cs @ v.T / (n * c0)
    if trace is not None:
        q = cs * v
        u_sum = np.broadcast_to(u[:, None], v.shape)
        zero = np.zeros_like(v)
        # (charge Q, plate voltage U) of every unit at the end of each phase.
        states = {MacPhase.CLEAR: (zero, zero), MacPhase.CHARGE: (q, v),
                  MacPhase.TRANSFER: (q, q / c0), MacPhase.SUM: (c0 * u_sum, u_sum)}
        for m in range(v.shape[0]):
            bank = []
            for phase in PHASE_ORDER:
                switches = _PHASE_SWITCHES[phase]
                charge, volts = states[phase]
                bank += [TraceRecord(i, phase, *switches, qi, ui) for i, (qi, ui)
                         in enumerate(zip(charge[m].tolist(), volts[m].tolist()))]
            trace.append(bank)
    return u


def trace_to_rows(trace, phase_ns=(DEFAULT_PHASE_NS,) * 4):
    """Flatten TraceRecords to CSV rows with phase start times attached."""
    starts = {}
    t = 0.0
    for phase, dur in zip(PHASE_ORDER, phase_ns):
        starts[phase] = t
        t += dur
    rows = []
    for rec in trace:
        rows.append((rec.unit, rec.phase.value, int(rec.cl), int(rec.mul),
                     int(rec.con), int(rec.add), rec.charge_pc, rec.voltage_v,
                     starts[rec.phase]))
    return rows


def write_trace_csv(trace, path, phase_ns=(DEFAULT_PHASE_NS,) * 4):
    """Export a captured MAC trace as CSV for waveform reconstruction."""
    lines = ["unit_index,phase,CL,MUL,CON,ADD,charge_pC,voltage_V,time_ns"]
    for row in trace_to_rows(trace, phase_ns):
        unit, phase, cl, mul, con, add, q, u, t = row
        lines.append(f"{unit},{phase},{cl},{mul},{con},{add},{q!r},{u!r},{t!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
