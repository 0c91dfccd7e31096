"""Sensor array composition: subpixel banks for parallel fully-connected
readout, and the sliding kernel x kernel windows of in-array convolution."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .device import SensorParams, check_weight_volts, mac, series_capacitance


# The largest rows or cols of a convolution array: 50 times the paper's 5x5.
# The schedule has (rows-k+1)(cols-k+1) windows, at most 65,536 here, which
# build and print in well under a second; the count grows with the square of
# the side (636,804 windows at 800x800).
MAX_CONV_SIDE = 256


@dataclass(frozen=True)
class ArrayTopology:
    """The array a network runs on: rows x cols pixels read by `banks` MAC
    banks. Kernel 0 is FC wiring: bank m reads every pixel in row-major order,
    all in one array cycle. Otherwise bank (ADC lane) r reads the band of rows
    r..r+kernel-1 as its kernel x kernel windows slide."""

    rows: int
    cols: int
    banks: int
    kernel: int = 0


def build_fc_array(rows: int, cols: int, banks: int) -> ArrayTopology:
    """Fully-connected wiring: bank m ties together subpixel m of every
    pixel, so all `banks` outputs are produced in a single array cycle."""
    if rows < 1 or cols < 1:
        raise ValueError("array dimensions must be at least 1x1")
    if banks < 1:
        raise ValueError("need at least one bank")
    return ArrayTopology(rows, cols, banks)


def build_conv_array(rows: int, cols: int, kernel: int = 3) -> ArrayTopology:
    """Convolution wiring: pixels carry kernel^2 subpixels; ADC lane r reads
    the horizontal band of rows r..r+kernel-1 as its windows slide. (The
    exact subpixel-to-window interconnect is an interpretation; it yields the
    stated step and ADC counts.) Raises ValueError, naming the parameter
    first, unless 1 <= kernel <= rows, cols <= MAX_CONV_SIDE."""
    if not 1 <= kernel <= MAX_CONV_SIDE:
        raise ValueError(f"kernel must be in [1, {MAX_CONV_SIDE}], got {kernel}")
    for name, side in (("rows", rows), ("cols", cols)):
        if not kernel <= side <= MAX_CONV_SIDE:
            raise ValueError(f"{name} must be in [{kernel}, {MAX_CONV_SIDE}] for a "
                             f"{kernel}x{kernel} kernel, got {side}")
    return ArrayTopology(rows, cols, rows - kernel + 1, kernel)


def fc_forward(topology: ArrayTopology, c_i_image, weights, params: SensorParams):
    """One fully-connected array cycle: U_m = mac over bank m's pixels.

    `c_i_image` holds induced capacitances (pF); weight row m drives bank m.
    Every bank reads every pixel in row-major order (the FC wiring), so the
    cycle is one kernel call on what the array reads of the image.
    """
    if topology.kernel:
        raise ValueError(f"kernel {topology.kernel}: fc_forward reads FC wiring, kernel 0")
    img = np.asarray(c_i_image, dtype=float)
    if img.shape != (topology.rows, topology.cols):
        raise ValueError(f"image shape {img.shape} does not match "
                         f"{topology.rows}x{topology.cols} topology")
    cs, v = array_inputs(topology, img[None], params), np.asarray(weights, dtype=float)
    check_weight_volts(v)
    volts = mac(cs, v, params.c0)[0]
    if volts.shape != (topology.banks,):  # one matrix, not a stack of them
        raise ValueError(f"{len(weights)} weight rows for {topology.banks} banks")
    return volts.tolist()


# Only bench/ calls this, to hand conv_forward its `schedule` and to read its
# kernel. A def, not an alias, so bench/'s tracer opens one span per call.
def schedule_conv(rows: int, cols: int, kernel: int = 3) -> ArrayTopology:
    return build_conv_array(rows, cols, kernel)


@functools.lru_cache(maxsize=16)
def _window_index(rows: int, cols: int, kernel: int) -> np.ndarray:
    """Read-only flat pixel indices of each window's taps, (n_windows, kernel^2)."""
    # Flat pixel index of each window's top-left corner, plus each kernel tap's offset.
    origins = np.arange(rows - kernel + 1)[:, None] * cols + np.arange(cols - kernel + 1)
    offsets = np.arange(kernel)[:, None] * cols + np.arange(kernel)
    index = origins.reshape(-1, 1) + offsets.reshape(1, -1)
    index.setflags(write=False)
    return index


def gather_windows(mat_batch: np.ndarray, kernel: int = 3, out=None) -> np.ndarray:
    """(..., rows, cols) -> (..., n_windows, kernel^2) with row-major origins, into
    `out` if given (mode "clip": the index is in range, and "raise" buffers out)."""
    index = _window_index(*mat_batch.shape[-2:], kernel)
    return mat_batch.reshape(mat_batch.shape[:-2] + (-1,)).take(index, -1, out, "clip")


def array_inputs(topology: ArrayTopology, c_i, params: SensorParams, out=None) -> np.ndarray:
    """What the array reads of images c_i[..., rows, cols]: their series capacitances,
    flattened per image for FC wiring, or gathered into the topology's kernel x kernel
    windows for a convolution. Written into `out` if given, which may overwrite c_i."""
    if topology.kernel:
        return gather_windows(series_capacitance(c_i, params.c0), topology.kernel, out)
    c_i = np.asarray(c_i, dtype=float)
    return series_capacitance(c_i.reshape(c_i.shape[:-2] + (-1,)), params.c0, out)


def conv_forward(topology: ArrayTopology, schedule: ArrayTopology, c_i_image,
                 kernel_weights, params: SensorParams):
    """Stride-1 valid cross-correlation executed in the array; each output is
    a mac over the window's series capacitances with the shared kernel
    voltages. `schedule` must be the same array. The sweep reads every window
    once, so all windows go through one kernel call."""
    img = np.asarray(c_i_image, dtype=float)
    if img.shape != (topology.rows, topology.cols):
        raise ValueError(f"image shape {img.shape} does not match topology")
    want = (topology.rows, topology.cols, topology.kernel)
    got = (schedule.rows, schedule.cols, schedule.kernel)
    if got != want:
        raise ValueError(f"schedule (rows, cols, kernel) {got} != topology's {want}")
    k = np.asarray(kernel_weights, dtype=float).reshape(1, -1)
    ksz = topology.kernel
    if k.size != ksz ** 2:
        raise ValueError(f"kernel needs {ksz ** 2} weights, got {k.size}")
    cs = array_inputs(topology, img[None], params)
    check_weight_volts(k)
    out = mac(cs, k, params.c0)[0, :, 0]
    return out.reshape(topology.rows - ksz + 1, topology.cols - ksz + 1)
