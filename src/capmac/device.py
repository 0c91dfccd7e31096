"""Single capacitive pixel: induced series capacitance and the four-phase
charge-domain multiply-accumulate unit.

Units are pF for capacitance, V for voltage and pC for charge throughout
(pF * V = pC), so no unit conversions appear in the math. NOISE_FLOOR_PF is the
one absolute capacitance: every other enters as a ratio, so a run is unit-free
only where no pixel clamps at it.

The switch model is behavioral: transmission gates are ideal, with no charge
injection, leakage or RC settling.

Entry points refuse outside values before any product, so no numpy warning precedes a refusal:
`series_capacitance` unless c0 > 0 and each c_i * c0 is a positive finite float; `apply_noise` a
noise_frac or sigma that is negative, NaN or above MAX_NOISE_FRAC * MAX_CAPACITANCE_PF;
`mac_phases` unless 0 < c0 < inf, cs > 0 and 2 N max(cs) / min(c0, 1) is finite (before rounding,
every cycle value is at most half that); `check_weight_volts` (for it, `arrays.fc_forward` and
`conv_forward`) a weight voltage outside [-1, 1], NaN included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

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

# The largest rms noise fraction accepted: 50 times the paper's 0.2, where
# the letters are long lost in noise, yet small enough that the draw's sigma
# = noise_frac * nominal stays finite (near 1e308 it overflows to inf).
MAX_NOISE_FRAC = 10.0

# The largest capacitance accepted for c0, c_ih and c_il: 2,000 times the
# paper's largest (500 pF), and small enough that the series formula's
# product c_i * c0 stays finite (at c_ih = 1e307 it overflows to inf).
MAX_CAPACITANCE_PF = 1e6

# The largest c_ih/c0 accepted (the paper's is 500/72). The autoencoder maps
# series capacitances back through c_i = C c0/(c0 - C), so a touched pixel's
# C_H = c_ih c0/(c_ih + c0) must stay clear of c0: here c0 - C_H is about
# 1e-9 c0, but at c_ih/c0 = 1e17 C_H rounds to c0 and the map divides by 0.
MAX_CAPACITANCE_RATIO = 1e9

# The smallest c_il accepted. A pixel's c_i is at least min(c_il,
# NOISE_FLOOR_PF), and c0 >= c_ih/MAX_CAPACITANCE_RATIO > 1e-9 c_il, so the
# series formula's product c_i c0 exceeds 1e-9 c_il^2: a normal float for c_il
# above about 5e-150. Below that it can underflow to a zero capacitance.
MIN_C_IL_PF = 1e-140

# Duration (ns) of each of the four MAC phases: the measured 350 ns cycle
# split evenly.
DEFAULT_PHASE_NS = 87.5

SWITCH_NAMES = ("CL", "MUL", "CON", "ADD")

# The four phases of one MAC cycle in execution order, each with the switch
# levels (CL, MUL, CON, ADD) it asserts.
PHASES = (("clear", (1, 0, 1, 1)), ("charge", (0, 1, 0, 0)),
          ("transfer", (0, 0, 1, 0)), ("sum", (0, 0, 1, 1)))


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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("c0", "c_ih", "c_il"):
            if not 0 < getattr(self, name) <= MAX_CAPACITANCE_PF:
                raise ValueError(f"{name} must be in (0, {MAX_CAPACITANCE_PF}] pF")
        if self.c_il < MIN_C_IL_PF:
            raise ValueError(f"c_il must be at least {MIN_C_IL_PF:g} pF")
        if self.c_ih <= self.c_il:
            raise ValueError("c_ih must exceed c_il")
        if self.c_ih > MAX_CAPACITANCE_RATIO * self.c0:
            raise ValueError(f"c_ih must be at most {MAX_CAPACITANCE_RATIO:,.0f} times "
                             f"c0, got c_ih/c0 = {self.c_ih / self.c0:.3g}")
        if not 0 <= self.noise_frac <= MAX_NOISE_FRAC:
            raise ValueError(f"noise_frac must be in [0, {MAX_NOISE_FRAC}]")
        if self.noise_mode not in ("per_class", "global"):
            raise ValueError(f"unknown noise_mode: {self.noise_mode!r}")


def series_capacitance(c_i, c0, out=None):
    """Series combination c_i*c0/(c_i + c0) of the induced and sensor caps.

    Accepts scalars or arrays. The exact result lies below both inputs, but
    rounds to the smaller once the larger is some 1e16 times it. Raises
    ValueError unless c0 > 0 and each c_i * c0 is a positive finite float, as each result then is.
    Given `out`, an array of c_i's shape, writes the result there and c_i + c0 over c_i.
    """
    c_i = np.asarray(c_i, dtype=float)
    lo = float(np.minimum.reduce(c_i, axis=None, initial=np.inf))
    hi = float(np.maximum.reduce(c_i, axis=None, initial=0.0))
    if not ((c0f := float(c0)) > 0 and lo * c0f > 0 and hi * c0f < math.inf):
        raise ValueError("capacitances must be positive")
    cs = c_i * c0 if out is None else np.multiply(c_i, c0, out=out)
    cs /= c_i + c0 if out is None else np.add(c_i, c0, out=c_i)
    return float(cs) if cs.ndim == 0 else cs


def apply_noise(c_i_clean, nominal, noise_frac, rng, normals=None):
    """Add Gaussian capacitance noise with sigma = noise_frac * nominal.

    `nominal` is the clean class value the rms noise is referenced to (broadcast against
    c_i_clean). Results are clamped at NOISE_FLOOR_PF so the series formula stays defined.
    Deterministic for a seeded rng. Given `normals` drawn already (unread if noise_frac is 0),
    it writes over them. It refuses a sigma above the most SensorParams allows (draws stay finite).
    """
    if not 0 <= noise_frac < math.inf:
        raise ValueError(f"noise_frac must be finite and >= 0, got {noise_frac!r}")
    sigma = float(noise_frac) * float(np.maximum.reduce(np.abs(nominal), axis=None, initial=0.0))
    if not sigma <= MAX_NOISE_FRAC * MAX_CAPACITANCE_PF:
        raise ValueError(f"noise sigma must be at most {MAX_NOISE_FRAC * MAX_CAPACITANCE_PF:g} pF")
    c_i_clean = np.asarray(c_i_clean, dtype=float)
    if noise_frac == 0:
        out = np.positive(c_i_clean, out=normals)  # a copy, into normals if given
    else:
        out = rng.standard_normal(c_i_clean.shape) if normals is None else normals
        out *= noise_frac * np.asarray(nominal, dtype=float)
        out += c_i_clean
        np.maximum(out, NOISE_FLOOR_PF, out=out)
    return float(out) if out.ndim == 0 else out


def mac(cs, v, c0: float):
    """Charge-domain MAC of M banks: U[..., m] = sum_n cs[..., n] v[m, n] / (N c0).

    cs holds the series capacitances seen by the N units of a bank on its last
    axis, with any leading batch axes; v is the M x N matrix of weight
    voltages, one row per bank, or a stack (..., M, N) broadcast against
    cs[..., W, N]. Each bank runs the four phases: CHARGE stores Q_n = c_n v_n,
    TRANSFER moves it onto c0 (plate at Q_n/c0), SUM shares the N charges at
    sum(Q)/(N c0). Matmul's rounding depends on the shape it sees, so leading
    axes are kept: a (B, W, N) call equals its B (W, N) calls bit for bit, as a
    (K, M, N) stack its K slices, but not its W one-row (1, N) calls. mac checks
    shapes only (values: see the module docstring).
    """
    cs = np.asarray(cs, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.ndim < 2:
        raise ValueError(f"weight voltages must be an M x N matrix, got shape {v.shape}")
    n = v.shape[-1]
    if cs.ndim < 1 or cs.shape[-1] != n:
        raise ValueError(f"length mismatch: capacitances of shape {cs.shape} "
                         f"vs {n} weights")
    if n < 1:
        raise ValueError("need at least one unit")
    return np.divide(u := cs @ v.swapaxes(-1, -2), n * c0, out=u)


def check_weight_volts(v: np.ndarray):
    """Refuse a float array v of weight voltages outside [-1, 1], NaN included."""
    if not np.maximum.reduce(abs(v), axis=None, initial=0.0) <= 1.0:
        raise ValueError("weight voltage outside [-1, 1]; normalize weights first")


def mac_phases(cs, v, c0: float):
    """The MAC cycle of one sample, phase by phase: (charge, volts), the
    charge Q (pC) and plate voltage U (V) of every unit at the end of each
    phase, both of shape (4, M, N) with the phases in the order of PHASES.

    cs holds the N series capacitances of a single sample and v the M x N
    weight voltages, as for `mac`. CLEAR empties every unit (Q = U = 0);
    CHARGE stores Q_n = c_n v_n at U = v_n; TRANSFER moves it onto c0
    (U = Q_n / c0); SUM shares the bank's charges, so every unit of bank m
    holds U_m = mac(cs, v, c0)[m] and Q = c0 U_m. charge, volts: the halves of one array.
    """
    cs, v = np.asarray(cs, dtype=float), np.asarray(v, dtype=float)
    if cs.ndim != 1:
        raise ValueError("trace capture takes a single sample of N capacitances")
    if not (0 < (c0 := float(c0)) < math.inf and float(np.minimum.reduce(cs, initial=np.inf)) > 0
            and 2 * float(np.maximum.reduce(cs, initial=0.0)) * len(cs) / min(c0, 1) < math.inf):
        raise ValueError("capacitances must be positive")
    check_weight_volts(v)
    if v.ndim != 2:
        raise ValueError("trace capture takes one M x N weight matrix")
    q = cs * v
    u_sum = mac(cs, v, c0)[:, None]
    charge, volts = np.zeros((2, len(PHASES)) + v.shape)
    charge[1:3], charge[3], volts[1], volts[2], volts[3] = q, c0 * u_sum, v, q / c0, u_sum
    return charge, volts


@functools.lru_cache(maxsize=16)
def _trace_frame(banks: int, units: int) -> tuple:
    """(head, tail) of each trace.csv row of a banks x units cycle in file order:
    the text before the unit's charge and after its voltage."""
    return tuple((f"{i},{phase},{','.join(map(str, levels))},", f",{k * DEFAULT_PHASE_NS!r}\n")
                 for _ in range(banks) for k, (phase, levels) in enumerate(PHASES)
                 for i in range(units))


def trace_text(phases) -> str:
    """A captured MAC cycle, the (charge, volts) pair of mac_phases, as CSV
    for waveform reconstruction: bank by bank, phase-major and unit by unit,
    each phase starting DEFAULT_PHASE_NS after the one before."""
    charge, volts = phases
    q, u = (a.swapaxes(0, 1).ravel().tolist() for a in (charge, volts))  # bank-major
    rows = [f"{head}{a!r},{b!r}{tail}"
            for (head, tail), a, b in zip(_trace_frame(*charge.shape[1:]), q, u)]
    return "unit_index,phase,CL,MUL,CON,ADD,charge_pC,voltage_V,time_ns\n" + "".join(rows)
