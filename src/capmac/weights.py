"""Voltage weight banks, programmed by the trainer's rule netlab.programmed_weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlab import programmed_weights


@dataclass
class WeightBank:
    """An M x N matrix of weight voltages plus the last normalization divisor.

    `v` holds the trainer's weights (possibly outside [-1, 1]); `beta` is the
    divisor last used to map them onto the programmable range.
    """

    v: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)


def normalize_weights(bank: WeightBank) -> WeightBank:
    """Divide by beta = max |v| so the largest programmed voltage is +-1; an
    all-zero bank keeps its zeros with beta = 1."""
    return WeightBank(*programmed_weights(bank.v))
