"""Span tracing of capmac's public functions, installed from outside the
package.

Each wrapped function records one span per call: name, start, end, parent
span and op id. Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.

Wrappers replace every binding of the original function object that the
package holds: module attributes (including names imported into other
modules, such as `arrays.mac_evaluate` or `cli.load_checkpoint`) and
module-level dict values (such as `netlab.TRAINERS`). A call therefore goes
through the wrapper whichever binding its caller looks up.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# The layers are capmac's modules; these are the functions timed in each.
LAYERS = {
    "device": ("mac_evaluate", "series_capacitance", "apply_noise",
               "write_trace_csv"),
    "weights": ("normalize_weights", "binarize_weights"),
    "arrays": ("fc_forward", "conv_forward", "build_fc_array",
               "build_conv_array", "schedule_conv"),
    "dataset": ("sample_batch", "balanced_batch", "batch_arrays"),
    "netlab": ("train_fc_classifier", "train_autoencoder",
               "train_cnn_classifier", "fc_batch_loss",
               "autoencoder_batch_loss", "cnn_batch_loss", "fc_output_volts",
               "autoencoder_forward", "cnn_logits", "gather_windows",
               "classify_series_bits", "save_checkpoint", "load_checkpoint",
               "write_history_csv"),
    "metrics": ("assemble_waveform", "write_waveform_csv"),
    "cli": ("build_parser", "build_config", "run", "evaluate",
            "capture_fc_traces", "write_manifest"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Counts recorded at layer boundaries, keyed by the per-layer metric name.
SAMPLES = "dataset.samples"
MAC_UNITS = "arrays.mac_units"
NOISE_DRAWN = "device.apply_noise.drawn"
NOISE_CLAMPED = "device.apply_noise.clamped"

SETUP_OP = -1


def _count_samples(counts, args, kwargs, result):
    counts[SAMPLES] += len(result)


def _noise_hook(floor):
    def count(counts, args, kwargs, result):
        noise_frac = args[2] if len(args) > 2 else kwargs["noise_frac"]
        if noise_frac > 0:
            counts[NOISE_DRAWN] += np.size(result)
            counts[NOISE_CLAMPED] += int(np.count_nonzero(
                np.asarray(result) <= floor))
    return count


def _count_fc_units(counts, args, kwargs, result):
    # One MAC unit per (bank, pixel): outputs x image pixels.
    image = args[1] if len(args) > 1 else kwargs["c_i_image"]
    counts[MAC_UNITS] += len(result) * np.size(image)


def _count_conv_units(counts, args, kwargs, result):
    # One MAC unit per (window, kernel tap).
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    counts[MAC_UNITS] += np.size(result) * schedule.kernel ** 2


class Tracer:
    """Records spans and per-function call counts and self times.

    `op` is the id of the op being run (SETUP_OP during set-up) and `kind`
    its kind; both are set by the caller between ops, while `on` is true.
    """

    def __init__(self):
        self.on = False
        self.op = SETUP_OP
        self.kind = "setup"
        self.names: list[str] = []
        self.absent: list[str] = []
        self.counts = Counter()
        self.stats: dict = {}        # (kind, name index) -> [calls, self_ns]
        self._stack: list = []       # [span id, ns covered by children]
        self.name_ix = array("i")
        self.parent = array("i")
        self.op_ix = array("i")
        self.start = array("q")
        self.end = array("q")

    def wrap(self, name: str, fn, post=None):
        ix = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.start)
            frame = [sid, 0]
            tracer.name_ix.append(ix)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.op_ix.append(tracer.op)
            tracer.end.append(0)
            stack.append(frame)
            t0 = perf_counter_ns()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.end[sid] = t1
                if stack:
                    stack[-1][1] += t1 - t0
                stat = tracer.stats.get((tracer.kind, ix))
                if stat is None:
                    stat = tracer.stats[(tracer.kind, ix)] = [0, 0]
                stat[0] += 1
                stat[1] += t1 - t0 - frame[1]
            if post is not None:
                post(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every function in LAYERS at each of its package bindings.

        A function that no longer exists is listed in `absent`.
        """
        from capmac import arrays, cli, dataset, device, metrics, netlab, weights
        modules = {"device": device, "weights": weights, "arrays": arrays,
                   "dataset": dataset, "netlab": netlab, "metrics": metrics,
                   "cli": cli}
        hooks = {
            "dataset.sample_batch": _count_samples,
            "dataset.balanced_batch": _count_samples,
            "device.apply_noise": _noise_hook(device.NOISE_FLOOR_PF),
            "arrays.fc_forward": _count_fc_units,
            "arrays.conv_forward": _count_conv_units,
        }
        package = [m for n, m in sorted(sys.modules.items())
                   if (n == "capmac" or n.startswith("capmac.")) and m is not None]
        for name in FUNCTIONS:
            mod, fn_name = name.split(".")
            fn = getattr(modules[mod], fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, fn, hooks.get(name))
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is fn:
                                value[key] = wrapper

    def per_kind(self):
        """{kind: {function name: (calls, self_ns)}}"""
        out: dict = {}
        for (kind, ix), (calls, self_ns) in self.stats.items():
            out.setdefault(kind, {})[self.names[ix]] = (calls, self_ns)
        return out

    def write_spans(self, path):
        """Write the spans as columns of an .npz file."""
        np.savez(path, names=np.array(self.names), name=np.array(self.name_ix),
                 parent=np.array(self.parent), op=np.array(self.op_ix),
                 start_ns=np.array(self.start), end_ns=np.array(self.end))
