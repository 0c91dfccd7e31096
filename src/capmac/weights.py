"""Voltage weight banks: normalization to the programmable [-1, 1] range and
sign binarization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    """Divide by beta = max |v| so the largest programmed voltage is +-1.

    An all-zero bank has no defined beta and is returned unchanged with
    beta = 1. Normalization is a positive rescaling, so the argmax of any
    linear readout is preserved.
    """
    beta = float(np.max(np.abs(bank.v)))
    if beta == 0.0:
        return WeightBank(v=bank.v.copy(), beta=1.0)
    return WeightBank(v=bank.v / beta, beta=beta)


def binarize_weights(bank: WeightBank) -> WeightBank:
    """Map every weight to +1 or -1 (sign, with sign(0) = +1)."""
    return WeightBank(v=np.where(bank.v >= 0, 1.0, -1.0), beta=bank.beta)
