"""Sensor array composition: subpixel banks for parallel fully-connected
readout, and the sliding-window schedule for in-array convolution."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .device import SensorParams, mac, series_capacitance
from .weights import as_matrix


@dataclass(frozen=True)
class ArrayTopology:
    """rows x cols pixel array where each pixel holds `subpixels_per_pixel`
    identical MAC units. bank_wiring maps a bank (output) index to the pixel
    coordinates its units read; subpixels within one pixel see the same C_I.
    """

    rows: int
    cols: int
    subpixels_per_pixel: int
    bank_wiring: dict

    @property
    def banks(self) -> int:
        return len(self.bank_wiring)


@dataclass(frozen=True)
class ConvSchedule:
    """Ordered steps of simultaneously evaluated convolution windows.

    Each step is a list of ((origin_row, origin_col), adc_index) pairs; the
    window at vertical offset r always feeds ADC r.
    """

    rows: int
    cols: int
    kernel: int
    steps: tuple


def build_fc_array(rows: int, cols: int, banks: int) -> ArrayTopology:
    """Fully-connected wiring: bank m ties together subpixel m of every
    pixel, so all `banks` outputs are produced in a single array cycle."""
    if rows < 1 or cols < 1:
        raise ValueError("array dimensions must be at least 1x1")
    if banks < 1:
        raise ValueError("need at least one bank")
    coords = [(r, c) for r in range(rows) for c in range(cols)]
    wiring = {m: list(coords) for m in range(banks)}
    return ArrayTopology(rows=rows, cols=cols, subpixels_per_pixel=banks,
                         bank_wiring=wiring)


def build_conv_array(rows: int, cols: int, kernel: int = 3) -> ArrayTopology:
    """Convolution wiring: pixels carry kernel^2 subpixels; ADC lane r reads
    the horizontal band of rows r..r+kernel-1 as its windows slide. (The
    exact subpixel-to-window interconnect is an interpretation; it yields the
    stated step and ADC counts.)"""
    if rows < kernel or cols < kernel:
        raise ValueError("array smaller than kernel")
    wiring = {}
    for r in range(rows - kernel + 1):
        wiring[r] = [(rr, c) for rr in range(r, r + kernel) for c in range(cols)]
    return ArrayTopology(rows=rows, cols=cols, subpixels_per_pixel=kernel * kernel,
                         bank_wiring=wiring)


def fc_forward(topology: ArrayTopology, c_i_image, weights, params: SensorParams,
               traces: list | None = None):
    """One fully-connected array cycle: U_m = mac over bank m's pixels.

    `c_i_image` holds induced capacitances (pF); weight row m drives bank m.
    Every bank reads every pixel in row-major order (build_fc_array's
    wiring), so the cycle is one kernel call over the flattened image.
    Pass a list as `traces` to capture one device trace per bank.
    """
    img = np.asarray(c_i_image, dtype=float)
    if img.shape != (topology.rows, topology.cols):
        raise ValueError(f"image shape {img.shape} does not match "
                         f"{topology.rows}x{topology.cols} topology")
    w = as_matrix(weights)
    n = topology.rows * topology.cols
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError(f"weight matrix must be M x {n}, got {w.shape}")
    if w.shape[0] != topology.banks:
        raise ValueError(f"{w.shape[0]} weight rows for {topology.banks} banks")
    cs = series_capacitance(img.reshape(-1), params.c0)
    return mac(cs, w, params.c0, trace=traces).tolist()


def schedule_conv(rows: int, cols: int, kernel: int = 3) -> ConvSchedule:
    """Left-to-right window sweep: cols-kernel+1 steps, each evaluating the
    rows-kernel+1 vertically stacked windows in parallel on dedicated ADCs."""
    if rows < kernel or cols < kernel:
        raise ValueError("array smaller than kernel")
    steps = []
    for oc in range(cols - kernel + 1):
        steps.append(tuple(((orr, oc), orr) for orr in range(rows - kernel + 1)))
    return ConvSchedule(rows=rows, cols=cols, kernel=kernel, steps=tuple(steps))


def gather_windows(mat_batch: np.ndarray, kernel: int = 3) -> np.ndarray:
    """(B, rows, cols) -> (B, n_windows, kernel^2) with row-major origins."""
    b, rows, cols = mat_batch.shape
    out_r, out_c = rows - kernel + 1, cols - kernel + 1
    win = np.empty((b, out_r * out_c, kernel * kernel))
    j = 0
    for orr in range(out_r):
        for occ in range(out_c):
            win[:, j, :] = mat_batch[:, orr:orr + kernel, occ:occ + kernel].reshape(b, -1)
            j += 1
    return win


def conv_forward(topology: ArrayTopology, schedule: ConvSchedule, c_i_image,
                 kernel_weights, params: SensorParams):
    """Stride-1 valid cross-correlation executed in the array; each output is
    a mac over the window's series capacitances with the shared kernel
    voltages. The schedule visits every window exactly once, so all windows
    go through one kernel call."""
    img = np.asarray(c_i_image, dtype=float)
    if img.shape != (topology.rows, topology.cols):
        raise ValueError(f"image shape {img.shape} does not match topology")
    k = as_matrix(kernel_weights).reshape(1, -1)
    ksz = schedule.kernel
    if k.size != ksz ** 2:
        raise ValueError(f"kernel needs {ksz ** 2} weights, got {k.size}")
    win = gather_windows(series_capacitance(img, params.c0)[None], ksz)[0]
    out = mac(win, k, params.c0)[:, 0]
    return out.reshape(topology.rows - ksz + 1, topology.cols - ksz + 1)


def resource_report(rows: int, cols: int, kernel: int = 3):
    """(dac_count, adc_count, step_count) for a rows x cols conv array:
    kernel^2 weight DACs, one ADC per row, cols-kernel+1 schedule steps."""
    if rows < kernel or cols < kernel:
        raise ValueError("array smaller than kernel")
    return kernel * kernel, rows, cols - kernel + 1


def schedule_to_dict(schedule: ConvSchedule) -> dict:
    """JSON-ready dump of the schedule plus the resource accounting."""
    dacs, adcs, n_steps = resource_report(schedule.rows, schedule.cols, schedule.kernel)
    return {
        "rows": schedule.rows,
        "cols": schedule.cols,
        "kernel": schedule.kernel,
        "dac_count": dacs,
        "adc_count": adcs,
        "step_count": n_steps,
        "steps": [
            {"step": i,
             "windows": [{"row": orr, "col": occ, "adc": adc}
                         for (orr, occ), adc in step]}
            for i, step in enumerate(schedule.steps)
        ],
    }


def write_schedule_json(schedule: ConvSchedule, path):
    with open(path, "w") as fh:
        json.dump(schedule_to_dict(schedule), fh, indent=2, sort_keys=True)
        fh.write("\n")
