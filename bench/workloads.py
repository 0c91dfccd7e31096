"""The benchmark's three workloads and the output checks for their ops.

A workload builds its inputs from the workload seed in `setup`, lists one
cycle of ops as rounds in `cycle` and runs one op in `run`. Ops with the
same key have the same inputs. `check` marks the ops whose outputs fail a
check, given the reference op of each key, which ran before the timed
loop; for deterministic outputs a timed op is a same-input replay of it.

All calls into capmac go through module attributes (`arrays.fc_forward`,
`cli.main`), so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from capmac import arrays, cli, dataset, device, metrics, netlab, weights

# (kind, architecture, epochs, emits): the paper defaults for each network.
TRAIN_RUNS = (
    ("fc", "fc_classifier", 350, "history,checkpoint,waveform,schedule"),
    ("ae", "autoencoder", 40, "history,checkpoint,waveform,schedule,reconstruction"),
    ("cnn", "cnn_classifier", 60, "history,checkpoint,schedule"),
)
TRAIN_SEEDS = 3          # training seeds per architecture in one cycle
READOUT_IMAGES = 16      # noisy letters per resolution in one cycle
EVAL_SEEDS = 4           # eval seeds per checkpoint in one cycle
EVAL_PER_GLYPH = 250
TRACE_ARCHS = ("fc", "ae")


@dataclass(frozen=True)
class Op:
    kind: str
    key: tuple           # ops with equal keys have equal inputs
    args: tuple = ()


@dataclass(slots=True)
class Record:
    op: Op
    start: float         # perf_counter() when the op began
    seconds: float       # measured wall time
    out: Path            # directory for the op's files
    value: object = None
    error: str | None = None
    traced: bool = False
    norm_seconds: float = 0.0    # rescaled to the reference host
    bytes: int = 0       # size of the files the op wrote


def call_cli(argv) -> tuple[int, str]:
    """cli.main(argv) with its output captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def _seeds(seed: int, stream: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, n)]


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def _fail(rec: Record, why: str):
    rec.error = rec.error or why


class Workload:
    name = ""

    def __init__(self, seed: int, out: Path):
        self.seed, self.out = seed, out


class Train(Workload):
    """`capmac train` of each architecture at the paper defaults."""

    name = "train"

    def setup(self):
        self.seeds = _seeds(self.seed, 1, TRAIN_SEEDS)

    def cycle(self):
        return [[Op(kind, (kind, s), (arch, epochs, emit, s))
                 for kind, arch, epochs, emit in TRAIN_RUNS]
                for s in self.seeds]

    def run(self, op: Op, out: Path):
        arch, epochs, emit, s = op.args
        code, _ = call_cli(["train", "--arch", arch, "--seed", str(s),
                            "--epochs", str(epochs), "--emit", emit,
                            "--output-dir", str(out)])
        return code

    @staticmethod
    def _manifest_ok(out: Path) -> bool:
        text = _read(out / "manifest.txt")
        if text is None:
            return False
        listed = [line.split() for line in text.decode().splitlines()
                  if line.startswith("artifact: ")]
        for fields in listed:
            data = _read(out / fields[1]) if len(fields) == 4 else None
            if data is None or hashlib.sha256(data).hexdigest() != fields[3]:
                return False
        return bool(listed)

    def check(self, records, refs):
        for rec in records:
            if rec.value != 0:
                _fail(rec, f"exit code {rec.value}")
            elif not self._manifest_ok(rec.out):
                _fail(rec, "manifest digest does not match")
            ref = refs[rec.op.key].out
            for name in ("history.csv", "checkpoint.txt"):
                got = _read(rec.out / name)
                if got is None or got != _read(ref / name):
                    _fail(rec, f"{name} differs on a same-seed replay")

    def named_metrics(self, records, refs):
        timed = [r for r in records if not r.traced]
        epochs = {kind: e for kind, _, e, _ in TRAIN_RUNS}
        out = {"train_epochs_per_s": (
            sum(epochs[r.op.kind] for r in timed) / sum(r.norm_seconds for r in timed),
            "1/s")}
        for kind, _, _, _ in TRAIN_RUNS:
            out[f"{kind}_train_ms"] = (statistics.median(
                r.norm_seconds * 1e3 for r in timed if r.op.kind == kind), "ms")
        for kind, _, _, _ in TRAIN_RUNS:
            finals = []
            for key, ref in refs.items():
                history = _read(ref.out / "history.csv")
                if key[0] == kind and history is not None:
                    finals.append(float(history.decode().splitlines()[-1].split(",")[2]))
            out[f"{kind}_accuracy"] = (
                sum(finals) / len(finals) if len(finals) == TRAIN_SEEDS else None,
                "fraction")
        return out


class Readout(Workload):
    """The array simulator as an inference engine: FC bank readouts and
    convolution sweeps over noisy letters generated in set-up."""

    name = "readout"

    def setup(self):
        self._expected_by_key = {}
        rng = np.random.default_rng([self.seed, 2])
        self.params = device.SensorParams()
        self.images3 = [s.c_i for s in dataset.sample_batch(
            READOUT_IMAGES, self.params, rng, resolution=3)]
        self.images5 = [s.c_i for s in dataset.sample_batch(
            READOUT_IMAGES, self.params, rng, resolution=5)]
        self.w = weights.normalize_weights(
            weights.WeightBank(rng.uniform(-1.0, 1.0, (4, 9)))).v
        self.k = weights.normalize_weights(
            weights.WeightBank(rng.uniform(-1.0, 1.0, (1, 9)))).v.reshape(-1)
        self.fc_topo = arrays.build_fc_array(3, 3, 4)
        self.conv_topo = arrays.build_conv_array(5, 5, 3)
        self.sched = arrays.schedule_conv(5, 5, 3)

    def cycle(self):
        return [[Op("fc", ("fc", i), (i,)), Op("conv", ("conv", i), (i,))]
                for i in range(READOUT_IMAGES)]

    def run(self, op: Op, out: Path):
        (i,) = op.args
        if op.kind == "fc":
            return arrays.fc_forward(self.fc_topo, self.images3[i], self.w,
                                     self.params)
        return arrays.conv_forward(self.conv_topo, self.sched, self.images5[i],
                                   self.k, self.params)

    def _expected(self, op: Op):
        (i,) = op.args
        c0 = self.params.c0
        if op.kind == "fc":
            return netlab.fc_output_volts(self.w, self.images3[i].reshape(1, -1),
                                          self.params)[0], 1e-12, 0.0
        cs = device.series_capacitance(self.images5[i], c0)
        win = netlab.gather_windows(cs[None], 3)[0]
        return (win @ self.k / (9 * c0)).reshape(3, 3), 1e-12, 1e-15

    def check(self, records, refs):
        expected = self._expected_by_key
        for rec in records:
            if rec.error is not None:
                continue
            if rec.op.key not in expected:
                expected[rec.op.key] = self._expected(rec.op)
            want, rtol, atol = expected[rec.op.key]
            got = np.asarray(rec.value, dtype=float)
            if got.shape != want.shape or not np.allclose(got, want, rtol=rtol,
                                                          atol=atol):
                _fail(rec, "array output differs from the netlab path")

    def named_metrics(self, records, refs):
        timed = [r for r in records if not r.traced]
        out = {}
        for kind in ("fc", "conv"):
            recs = [r for r in timed if r.op.kind == kind]
            out[f"{kind}_readouts_per_s"] = (
                len(recs) / sum(r.norm_seconds for r in recs), "1/s")
        return out


class Evaluate(Workload):
    """The read side on trained checkpoints: `capmac eval` and
    `capmac trace`."""

    name = "evaluate"

    def setup(self):
        self.ckpts = {}
        for (kind, arch, epochs, _), s in zip(TRAIN_RUNS, _seeds(self.seed, 3, 3)):
            out = self.out / f"ckpt_{kind}"
            code, _ = call_cli(["train", "--arch", arch, "--seed", str(s),
                                "--epochs", str(epochs), "--emit", "checkpoint",
                                "--output-dir", str(out)])
            if code != 0:
                raise RuntimeError(f"set-up training of {arch} exited {code}")
            self.ckpts[kind] = str(out / "checkpoint.txt")
        self.eval_seeds = _seeds(self.seed, 4, EVAL_SEEDS)

    def cycle(self):
        traces = [Op("trace", ("trace", kind, g.value), (kind, g.value))
                  for kind in TRACE_ARCHS for g in dataset.GLYPH_ORDER]
        return [[Op("eval", ("eval", kind, s), (kind, s))
                 for kind, _, _, _ in TRAIN_RUNS] + traces
                for s in self.eval_seeds]

    def run(self, op: Op, out: Path):
        kind, arg = op.args
        if op.kind == "eval":
            return call_cli(["eval", self.ckpts[kind], "--per-glyph",
                             str(EVAL_PER_GLYPH), "--seed", str(arg)])
        return call_cli(["trace", "--checkpoint", self.ckpts[kind], "--glyph", arg,
                         "--out", str(out)])

    @staticmethod
    def _trace_ok(rec: Record) -> bool:
        try:
            return Evaluate._trace_agrees(rec)
        except (ValueError, KeyError):    # a malformed file
            return False

    @staticmethod
    def _trace_agrees(rec: Record) -> bool:
        printed = next((line for line in rec.value[1].splitlines()
                        if line.startswith("traced ")), "").split()[3:]
        trace_rows = (_read(rec.out / "trace.csv") or b"").decode().splitlines()[1:]
        wave_rows = (_read(rec.out / "waveform.csv") or b"").decode().splitlines()[1:]
        finals = metrics.waveform_final_outputs(
            [(float(t), s, float(v)) for t, s, v in
             (row.split(",") for row in wave_rows)])
        # trace.csv lists each bank's records in turn; take its SUM voltages.
        sums, bank = [], []
        for row in trace_rows:
            unit, phase, *_, volts, _ = row.split(",")
            if unit == "0" and phase == "clear":
                bank = []
                sums.append(bank)
            if phase == "sum":
                bank.append(float(volts))
        return (len(finals) == len(sums) > 0
                and all(b and all(v == u for v in b) for b, u in zip(sums, finals))
                and printed == [f"{u:+.4f}" for u in finals])

    def check(self, records, refs):
        for rec in records:
            if rec.error is not None:
                continue
            if rec.value[0] != 0:
                _fail(rec, f"exit code {rec.value[0]}")
            elif rec.op.kind == "trace" and not self._trace_ok(rec):
                _fail(rec, "trace.csv, waveform.csv and printed outputs disagree")
            elif rec.op.kind == "eval" and rec.value != refs[rec.op.key].value:
                _fail(rec, "eval report differs on replay")

    def named_metrics(self, records, refs):
        timed = [r for r in records if not r.traced]
        evals = [r for r in timed if r.op.kind == "eval"]
        return {
            "eval_samples_per_s": (
                len(evals) * 4 * EVAL_PER_GLYPH / sum(r.norm_seconds for r in evals),
                "1/s"),
            "trace_ms": (statistics.median(
                r.norm_seconds * 1e3 for r in timed if r.op.kind == "trace"), "ms"),
        }


WORKLOADS = {w.name: w for w in (Train, Readout, Evaluate)}
