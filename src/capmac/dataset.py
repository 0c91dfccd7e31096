"""The four-letter capacitive image corpus: canonical glyph bitmaps at 3x3
and 5x5, capacitive encoding, and seeded noisy batch generation."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .device import SensorParams, apply_noise


class Glyph(enum.Enum):
    H = "h"
    L = "l"
    Y = "y"
    INV_Z = "invz"


# One-hot label order is fixed as H, L, Y, INV_Z = 0..3.
GLYPH_ORDER = (Glyph.H, Glyph.L, Glyph.Y, Glyph.INV_Z)
NUM_GLYPHS = len(GLYPH_ORDER)

# Canonical 3x3 bitmaps, rows top to bottom, 1 = inside the stroke.
_PATTERNS_3 = {
    Glyph.H: ((1, 0, 1), (1, 1, 1), (1, 0, 1)),
    Glyph.L: ((1, 0, 0), (1, 0, 0), (1, 1, 1)),
    Glyph.Y: ((1, 0, 1), (0, 1, 0), (0, 1, 0)),
    Glyph.INV_Z: ((1, 1, 1), (0, 1, 0), (1, 1, 1)),
}

# The corpus: the canonical bitmaps of each resolution, stacked and indexed
# by glyph number. The 5x5 letters center the 3x3 glyph and extend its
# strokes to the border by edge replication.
GRIDS = {3: np.array([_PATTERNS_3[glyph] for glyph in GLYPH_ORDER], dtype=np.uint8)}
GRIDS[5] = np.pad(GRIDS[3], ((0, 0), (1, 1), (1, 1)), mode="edge")

LABELS = np.eye(NUM_GLYPHS)  # one-hot, indexed by glyph number
for _shared in (*GRIDS.values(), LABELS):
    _shared.setflags(write=False)

# The most samples a single draw may hold: a training batch, an evaluation
# set or a set of letters to reconstruct.
MAX_DRAW = 100_000


def _check_draw(letters: int):
    if not 1 <= letters <= MAX_DRAW:
        raise ValueError(f"a draw holds 1 to {MAX_DRAW} letters, got {letters}")


def encode_capacitive(grid, params: SensorParams) -> np.ndarray:
    """Map binary bitmaps, one or a stack, to induced capacitances (pF):
    inside -> c_ih, outside -> c_il."""
    c_i = np.where(np.asarray(grid) > 0, params.c_ih, params.c_il)
    return c_i.astype(float, copy=False)


@dataclass(frozen=True)
class CapacitiveSample:
    """One noisy letter: induced capacitances c_i (pF) and its one-hot label.
    Only sample_batch makes these, for the benchmark's readout set-up."""

    c_i: np.ndarray
    label: np.ndarray


def noisy_letters(idx, params: SensorParams, rng, resolution: int = 3, normals=None) -> np.ndarray:
    """Induced capacitances c_i[..., R, R] of the glyphs numbered `idx`, of any
    shape, each with a fresh noise realization drawn in one call, or made of
    `normals` (see apply_noise) that idx broadcasts to. Deterministic for a seeded rng."""
    if resolution not in GRIDS:
        raise ValueError(f"unsupported resolution: {resolution}")
    _check_draw(np.size(idx))
    clean = encode_capacitive(GRIDS[resolution], params).take(idx, axis=0)
    nominal = params.c_ih if params.noise_mode == "global" else clean
    return apply_noise(clean, nominal, params.noise_frac, rng, normals)


def letter_batches(count: int, size: int, params: SensorParams, rng, resolution: int = 3):
    """(idx[count, size], c_i[count, size, R, R]) of `count` batches of `size` uniform
    glyphs, in the RNG order of `count` integers-then-noisy_letters draws."""
    _check_draw(count * size)
    idx = np.empty((count, size), dtype=np.int64)
    normals = np.empty((count, size, resolution, resolution)) if params.noise_frac else None
    for k in range(count):
        idx[k] = rng.integers(0, NUM_GLYPHS, size)
        if normals is not None:
            rng.standard_normal(out=normals[k])
    return idx, noisy_letters(idx, params, rng, resolution, normals)


def sample_batch(size: int, params: SensorParams, rng, resolution: int = 3
                 ) -> list[CapacitiveSample]:
    """The one batch of `letter_batches(1, size, ...)` as sample objects, for
    the benchmark's readout set-up. Deterministic for a seeded rng."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    (idx,), (c_i,) = letter_batches(1, size, params, rng, resolution)
    return [CapacitiveSample(c_i=c, label=LABELS[i]) for c, i in zip(c_i, idx)]


def bitmap_text(grid) -> str:
    """Plain-text bitmap fixture format: one row of 0/1 characters per line."""
    rows = ["".join(str(int(v)) for v in row) for row in np.asarray(grid)]
    return "\n".join(rows) + "\n"


def capacitance_text(matrix) -> str:
    """Capacitance dump: one CSV row per pixel row, repr-formatted pF values."""
    mat = np.asarray(matrix, dtype=float)
    lines = [",".join(repr(float(v)) for v in row) for row in mat]
    return "\n".join(lines) + "\n"

