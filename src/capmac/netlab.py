"""The three letter networks and their hardware-in-the-loop training loop.

The analog array only ever sees weight voltages inside [-1, 1]: each epoch
the latent weights are divided by beta = max |v| before programming, and the
digital domain multiplies the array outputs back by beta. Training therefore
optimizes the latent weights directly while the hardware stays in range.

The array reads one thing of an image c_i[B, R, R]: the series capacitance
C_n = c_i c0 / (c_i + c0) of each pixel, flattened per image for the FC banks
and gathered into 3x3 windows for the convolution. arrays.array_inputs, the
read the simulator's fc_forward and conv_forward make too, computes it,
x = array_inputs(spec, c_i, params), once per batch; every forward pass and
batch loss takes x, and a loss also takes c_i for its targets.

Forward paths, each reading the array through the same kernel, device.mac:
  fc_classifier  logits = beta * U, U = sum(C_n v'_mn) / (N c0) from the array
  autoencoder    U_m = (A - B) / C with A = sum(C_n V_mn) from the array,
                 B = C_L sum(V_mn) and C = C_H - C_L in the digital domain
  cnn_classifier conv features go through the same (A - B) / C conditioning
                 before the sigmoid, then a digital 9 -> 4 head
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import dataset
from .arrays import (ArrayTopology, array_inputs, build_conv_array, build_fc_array,
                     gather_windows)  # kept for bench/workloads.py's netlab.gather_windows
from .device import SensorParams, mac, series_capacitance

# Offset separating the evaluation stream from the training stream so the
# eval set size never perturbs the training data sequence.
EVAL_SEED_OFFSET = 1_000_003

LOG_FLOOR = 1e-12

# The most epochs a run may train: about 300 times the paper's longest
# schedule (350 FC epochs). At well under a millisecond per epoch such a run
# still ends within about a minute, and its history.csv (about 360 bytes per
# epoch) stays near 36 MB.
MAX_EPOCHS = 100_000

# The largest learning rate accepted: 1e5 times the paper's largest (10, FC).
# An FC step moves a weight by less than alpha/N, so MAX_EPOCHS steps stay
# below 1.2e10. Unbounded, alpha = 1e308 left beta = 7.3e306 in an FC
# checkpoint: finite but useless, as any further product with it overflows.
MAX_LEARNING_RATE = 1e6


# ---------------------------------------------------------------------------
# activations and losses

def softmax(u):
    """Row-wise softmax with max subtraction for stability."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("softmax input must be finite")
    shifted = u - u.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(z):
    """Numerically stable logistic function, elementwise: with e = exp(-|z|),
    1/(1 + e) where z >= 0 and e/(1 + e) elsewhere, in one division. e <= 1,
    so nothing overflows."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def cross_entropy(p, y):
    """-sum(y log p) over the last axis, averaged over a leading batch axis
    if there is one, with the log argument floored at 1e-12."""
    p = np.asarray(p, dtype=float)
    per_sample = (-(y * np.log(np.maximum(p, LOG_FLOOR)))).sum(axis=-1)
    return float(per_sample.sum() / per_sample.size)


# ---------------------------------------------------------------------------
# configs

@dataclass(frozen=True)
class TrainConfig:
    """How a run trains; its sensor and noise level are train's `params`."""

    batch_size: int = 20
    learning_rate: float = 10.0
    epochs: int = 350
    seed: int = 0
    binarize: bool = False
    eval_per_glyph: int = 25

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        for name in _train_bounds():
            check_bound(name, getattr(self, name))


def _train_bounds() -> dict:
    """(least, most) of each bounded TrainConfig field, built per call so that
    a changed MAX_EPOCHS or MAX_LEARNING_RATE applies."""
    return {"batch_size": (1, dataset.MAX_DRAW), "epochs": (1, MAX_EPOCHS),
            "learning_rate": (0, MAX_LEARNING_RATE), "seed": (0, math.inf),
            "eval_per_glyph": (1, dataset.MAX_DRAW // dataset.NUM_GLYPHS)}


def check_bound(name: str, value, label: str = ""):
    """Raise ValueError, naming `label` (by default the field), unless `value`
    lies within the bounds of TrainConfig field `name`."""
    least, most = _train_bounds()[name]
    if not least <= value <= most:
        raise ValueError(f"{label or name} must be in [{least}, {most}]")


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# How a field of TrainConfig, SensorParams or Checkpoint is read from config
# or checkpoint text, by its annotation. Fields of other types (a
# checkpoint's params and matrices) are not written as one line of text.
FIELD_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}


def field_texts(settings) -> dict:
    """{field name: text} of each int, float, str or bool field of a
    TrainConfig, SensorParams or Checkpoint, as configs and checkpoints write
    them: booleans in lower case, strings bare, numbers by repr."""
    texts = {}
    for f in dataclasses.fields(settings):
        if f.type in FIELD_PARSERS:
            value = getattr(settings, f.name)
            if isinstance(value, bool):
                value = str(value).lower()
            texts[f.name] = value if isinstance(value, str) else repr(value)
    return texts


def field_keys(cls, prefix: str) -> list[str]:
    """The keys field_texts writes for `cls`, each field's name after `prefix`."""
    return [prefix + f.name for f in dataclasses.fields(cls) if f.type in FIELD_PARSERS]


def parse_fields(cls, texts: dict, prefix: str) -> dict:
    """The inverse of field_texts: keyword arguments for `cls` from the keys
    of field_keys(cls, prefix) that `texts` holds, each parsed by its field's
    annotation. A malformed value raises ValueError naming its key."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if f.type in FIELD_PARSERS and key in texts:
            try:
                kwargs[f.name] = FIELD_PARSERS[f.type](texts[key])
            except ValueError:
                raise ValueError(f"{key}: cannot parse {texts[key]!r}") from None
    return kwargs


def default_config(architecture: str, **overrides) -> TrainConfig:
    """The architecture's paper-default learning rate and epoch count (see
    MODELS), with `overrides` applied."""
    model = MODELS[architecture]
    return TrainConfig(**{"learning_rate": model.learning_rate, "epochs": model.epochs,
                          **overrides})


@dataclass
class Checkpoint:
    architecture: str
    seed: int
    epoch: int
    beta: float
    binarize: bool
    params: SensorParams
    matrices: dict


@dataclass
class TrainHistory:
    """Per-epoch records plus the final weights."""

    loss: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    mean_outputs: list = field(default_factory=list)  # (glyphs, outputs) per epoch
    checkpoint: Checkpoint | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.loss)


class TrainingDiverged(RuntimeError):
    """Raised when an epoch's loss, gradients, updated weights or evaluation
    outputs stop being finite; carries the history up to (and the checkpoint
    of) the last good epoch. Finite but huge weights are not detected here;
    TrainConfig prevents them at config time by bounding the learning rate."""

    def __init__(self, epoch: int, history: TrainHistory):
        super().__init__(f"training diverged at epoch {epoch}: non-finite "
                         "loss, gradient, weight or output")
        self.epoch = epoch
        self.history = history


# ---------------------------------------------------------------------------
# shared plumbing

def programmed_weights(v: np.ndarray, binarize: bool = False):
    """Latent weights -> (voltages programmed into the array, digital rescale
    beta): signs with beta = 1 when binarized, else v / max|v| with beta =
    max|v|."""
    v = np.asarray(v, dtype=float)
    if binarize:
        return np.where(v >= 0, 1.0, -1.0), 1.0
    beta = float(abs(v).max()) or 1.0
    return v / beta, beta


@functools.lru_cache(maxsize=16)
def encoder_caps(params: SensorParams):
    """(C_H, C_L, C_H - C_L): series capacitances of the two clean pixel
    classes and the normalization span. Cached: every AE and CNN forward
    pass and loss asks for them, and they depend on the frozen params only."""
    c_h = series_capacitance(params.c_ih, params.c0)
    c_l = series_capacitance(params.c_il, params.c0)
    return c_h, c_l, c_h - c_l


def _conditioned(cs: np.ndarray, v: np.ndarray, params: SensorParams) -> np.ndarray:
    """u = (A - B) / C per output: A = sum(C_n V_n) read the hardware way
    (program v/beta, rescale the MAC voltages by N*c0*beta in digital),
    B = C_L sum(V_n) and C = C_H - C_L."""
    _, c_l, span = encoder_caps(params)
    prog, beta = programmed_weights(v)
    a = mac(cs, prog, params.c0) * (cs.shape[-1] * params.c0 * beta)
    return (a - c_l * v.sum(axis=1)) / span


# ---------------------------------------------------------------------------
# forward passes and batch losses

def _fc_pass(v, cs, params, binarize):
    """(U, beta): array output voltages and the digital rescale."""
    prog, beta = programmed_weights(v, binarize)
    return mac(cs, prog, params.c0), beta


def fc_output_volts(v: np.ndarray, c_i_flat: np.ndarray, params: SensorParams,
                    binarize: bool = False) -> np.ndarray:
    """Array output voltages U_m for a batch, using the programmed weights."""
    return _fc_pass(v, series_capacitance(c_i_flat, params.c0), params, binarize)[0]


def autoencoder_forward(m: dict, x: np.ndarray, params: SensorParams):
    """(codes phi, normalized reconstruction, reconstructed series caps,
    reconstructed induced caps) of the autoencoder with matrices m."""
    _, c_l, span = encoder_caps(params)
    c0 = params.c0
    phi = sigmoid(_conditioned(x, m["encoder"], params))
    cnl_rec = sigmoid(phi @ m["decoder"].T)
    c_rec = cnl_rec * span + c_l
    ci_rec = c_rec * c0 / (c0 - c_rec)
    return phi, cnl_rec, c_rec, ci_rec


def cnn_logits(m: dict, x: np.ndarray, params: SensorParams):
    """(logits, sigmoid features h) of the conv classifier with matrices m,
    from the windows x."""
    h = sigmoid(_conditioned(x, m["kernel"].reshape(1, -1), params)[..., 0])
    return h @ m["head"].T, h


# Batch losses: (mean loss, summed gradients in matrix order).

def fc_batch_loss(m, x, c_i, labels, params, binarize):
    """Mean cross-entropy of the FC classifier and the gradient with respect
    to the latent weights (straight-through when binarized)."""
    u, beta = _fc_pass(m["weights"], x, params, binarize)
    p = softmax(u * beta)
    grad = (p - labels).T @ x / (x.shape[1] * params.c0)
    return cross_entropy(p, labels), (grad,)


def autoencoder_batch_loss(m, x, c_i, labels, params, binarize):
    """Mean reconstruction MSE (in induced-capacitance units) of the images
    c_i, and the gradients for encoder voltages and decoder weights."""
    _, c_l, span = encoder_caps(params)
    c0 = params.c0
    c_i_flat = c_i.reshape(len(c_i), -1)
    phi, cnl_rec, c_rec, ci_rec = autoencoder_forward(m, x, params)
    if np.any(c_rec >= c0):
        raise AssertionError("reconstructed series capacitance reached c0")
    n = x.shape[1]
    loss = float(((ci_rec - c_i_flat) ** 2).sum() / ci_rec.size)
    d_ci = 2.0 / n * (ci_rec - c_i_flat)
    d_z = d_ci * c0 ** 2 / (c0 - c_rec) ** 2 * span * cnl_rec * (1 - cnl_rec)
    grad_dec = d_z.T @ phi
    d_u = (d_z @ m["decoder"]) * phi * (1 - phi)
    cnl = (x - c_l) / span
    grad_enc = d_u.T @ cnl
    return loss, (grad_enc, grad_dec)


def cnn_batch_loss(m, x, c_i, labels, params, binarize):
    """Mean cross-entropy of the conv classifier and the gradients for the
    kernel voltages and the digital head."""
    _, c_l, span = encoder_caps(params)
    logits, h = cnn_logits(m, x, params)
    p = softmax(logits)
    d_logit = p - labels
    grad_head = d_logit.T @ h
    d_u = (d_logit @ m["head"]) * h * (1 - h)
    win_cnl = (x - c_l) / span
    grad_k = np.einsum("sj,sjk->k", d_u, win_cnl)
    return cross_entropy(p, labels), (grad_k, grad_head)


# ---------------------------------------------------------------------------
# evaluation helpers

def classify_series_bits(c_rec_series: np.ndarray, params: SensorParams):
    """Threshold reconstructed series caps at (C_H + C_L)/2 and classify the
    bitmaps by Hamming distance to the canonical glyphs (ties -> lowest)."""
    c_h, c_l, _ = encoder_caps(params)
    bits = (c_rec_series >= (c_h + c_l) / 2).astype(int)
    pats = dataset.GRIDS[3].reshape(dataset.NUM_GLYPHS, -1)
    ham = (bits[:, None, :] != pats).sum(axis=2)
    return ham.argmin(axis=1), bits


def _mean_by_glyph(values: np.ndarray) -> np.ndarray:
    """Per-glyph means of outputs laid out glyph-major, as
    np.repeat(np.arange(NUM_GLYPHS), per_glyph) draws them."""
    by_glyph = values.reshape(dataset.NUM_GLYPHS, -1, values.shape[-1])
    return by_glyph.sum(axis=1) / by_glyph.shape[1]


def evaluate(architecture: str, m: dict, params: SensorParams, binarize: bool,
             rng, per_glyph: int):
    """Score the matrices m of `architecture` on a noisy batch drawn from rng
    at params, per_glyph letters of each glyph, glyph-major: (accuracy,
    per-glyph mean outputs, the outputs that must stay finite)."""
    model = MODELS[architecture]
    idx = np.repeat(np.arange(dataset.NUM_GLYPHS), per_glyph)
    c_i = dataset.noisy_letters(idx, params, rng, model.spec.rows)
    pred, outputs, checked = model.score(m, array_inputs(model.spec, c_i, params),
                                         params, binarize)
    return float(np.count_nonzero(pred == idx) / len(idx)), _mean_by_glyph(outputs), checked


# ---------------------------------------------------------------------------
# the model table and the training loop

def _check_finite(epoch, history, loss, *arrays):
    if not (math.isfinite(loss) and all(np.isfinite(a).all() for a in arrays)):
        raise TrainingDiverged(epoch, history)


# Each architecture's scoring on what the array reads (array_inputs), given a
# dict of its matrices.

def _fc_score(m, x, params, binarize):
    volts, _ = _fc_pass(m["weights"], x, params, binarize)
    return volts.argmax(axis=1), volts, (volts,)


def _autoencoder_score(m, x, params, binarize):
    """Glyphs read by threshold-classifying the reconstruction; the codes
    phi are the shown outputs."""
    phi, _, c_rec, _ = autoencoder_forward(m, x, params)
    return classify_series_bits(c_rec, params)[0], phi, (phi, c_rec)


def _cnn_score(m, x, params, binarize):
    logits, _ = cnn_logits(m, x, params)
    return logits.argmax(axis=1), logits, (logits,)


@dataclass(frozen=True)
class Model:
    """What the training loop and the evaluator know of one architecture.

    `matrices` maps each matrix name to its shape, in initialization order;
    the first is the one programmed into the array, and a checkpoint's beta
    is its divisor in programmed_weights. Both functions take the dict m of
    matrices by name and x = array_inputs(spec, c_i, params), what the array
    reads of the images c_i[B, R, R]. `loss(m, x, c_i, labels, params, binarize)` gives the mean
    loss and the summed gradients in matrix order; `score(m, x, params,
    binarize)` gives the predicted glyphs, the outputs shown per glyph and
    the outputs that must stay finite. Only a model that `binarizes` may
    train and program its first matrix as signs.
    """

    spec: ArrayTopology  # the array the network runs on
    learning_rate: float
    epochs: int
    matrices: dict
    loss: Callable
    score: Callable
    binarizes: bool = False


# The paper's alpha and epoch counts for the classifier and the autoencoder;
# the CNN rate is a repo calibration.
MODELS = {
    "fc_classifier": Model(build_fc_array(3, 3, 4), 10.0, 350,
                           {"weights": (4, 9)}, fc_batch_loss, _fc_score,
                           binarizes=True),
    "autoencoder": Model(build_fc_array(3, 3, 4), 4e-4, 40,
                         {"encoder": (4, 9), "decoder": (9, 4)},
                         autoencoder_batch_loss, _autoencoder_score),
    "cnn_classifier": Model(build_conv_array(5, 5, 3), 1.0, 60,
                            {"kernel": (1, 9), "head": (4, 9)},
                            cnn_batch_loss, _cnn_score),
}
ARCHITECTURES = tuple(MODELS)


def train(architecture: str, config: TrainConfig,
          params: SensorParams = SensorParams()) -> TrainHistory:
    """Train one architecture with the analog array in the forward path.

    Per epoch: draw S noisy letters at `params`, the ones the checkpoint
    records, compute the loss and the summed gradients through the array,
    update every matrix by M -= (alpha/S) * sum_p dL/dM, then `evaluate` at
    the same params on a separate stream. The FC classifier may train
    binarized weights with a straight-through estimator. Raises
    TrainingDiverged when the loss, a gradient, a matrix or an eval output
    stops being finite.
    """
    model = MODELS[architecture]
    rng = np.random.default_rng(config.seed)
    erng = np.random.default_rng(config.seed + EVAL_SEED_OFFSET)
    mats = {name: rng.uniform(-1.0, 1.0, shape) for name, shape in model.matrices.items()}
    lr = config.learning_rate / config.batch_size
    history = TrainHistory()
    for epoch in range(1, config.epochs + 1):
        idx = rng.integers(0, dataset.NUM_GLYPHS, config.batch_size)
        c_i = dataset.noisy_letters(idx, params, rng, model.spec.rows)
        x = array_inputs(model.spec, c_i, params)
        loss, grads = model.loss(mats, x, c_i, dataset.LABELS[idx], params, config.binarize)
        mats = {name: m - lr * g for (name, m), g in zip(mats.items(), grads)}
        _check_finite(epoch, history, loss, *grads, *mats.values())
        accuracy, mean_outputs, checked = evaluate(
            architecture, mats, params, config.binarize, erng, config.eval_per_glyph)
        _check_finite(epoch, history, loss, *checked)
        history.loss.append(loss)
        history.accuracy.append(accuracy)
        history.mean_outputs.append(mean_outputs)
        # Each epoch makes a new dict of new matrices, so none is copied.
        beta = programmed_weights(next(iter(mats.values())))[1]
        history.checkpoint = Checkpoint(architecture, config.seed, epoch, beta,
                                        config.binarize, params, mats)
    return history


# ---------------------------------------------------------------------------
# checkpoint and history serialization

def save_checkpoint(ckpt: Checkpoint, path):
    lines = ["capmac-checkpoint v1"]
    lines += [f"{name}: {text}" for name, text in field_texts(ckpt).items()]
    lines += [f"sensor.{name}: {text}" for name, text in field_texts(ckpt.params).items()]
    for name in sorted(ckpt.matrices):
        mat = np.atleast_2d(np.asarray(ckpt.matrices[name], dtype=float))
        lines.append(f"matrix {name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(repr(float(x)) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != "capmac-checkpoint v1":
        raise ValueError(f"{path}: not a capmac checkpoint")
    fields, matrices = {}, {}
    i = 1
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("matrix "):
            try:
                _, name, rows, cols = line.split()
                rows, cols = int(rows), int(cols)
                matrices[name] = np.array([[float(x) for x in row.split()]
                                           for row in lines[i:i + rows]])
                if matrices[name].shape != (rows, cols):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: malformed matrix block {line!r}") from None
            i += rows
        else:  # header lines; a blank line keys "", which no field reads
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    for key in field_keys(Checkpoint, "") + field_keys(SensorParams, "sensor."):
        if key not in fields:
            raise ValueError(f"{path}: missing checkpoint field {key!r}")
    params = SensorParams(**parse_fields(SensorParams, fields, "sensor."))
    ckpt = Checkpoint(**parse_fields(Checkpoint, fields, ""), params=params,
                      matrices=matrices)
    if not math.isfinite(ckpt.beta):
        raise ValueError(f"{path}: beta must be finite, got {ckpt.beta!r}")
    model = MODELS.get(ckpt.architecture)
    if model is None:
        raise ValueError(f"{path}: unknown architecture {ckpt.architecture!r}")
    if set(matrices) != set(model.matrices):
        raise ValueError(f"{path}: matrices {sorted(matrices)} do not match "
                         f"architecture {ckpt.architecture}")
    for name, shape in model.matrices.items():
        if matrices[name].shape != shape:
            raise ValueError(f"{path}: matrix {name} is {matrices[name].shape}, "
                             f"{ckpt.architecture} needs {shape}")
        if not np.all(np.isfinite(matrices[name])):
            raise ValueError(f"{path}: matrix {name} holds non-finite values")
    first = next(iter(model.matrices))
    beta = programmed_weights(matrices[first])[1]
    if ckpt.beta != beta:
        raise ValueError(f"{path}: beta must be {beta!r}, got {ckpt.beta!r}")
    return ckpt


def history_columns() -> list[str]:
    return ["epoch", "loss", "accuracy"] + [
        f"u{m + 1}_{glyph.value}" for glyph in dataset.GLYPH_ORDER for m in range(4)]


def write_history_csv(history: TrainHistory, path):
    """Per-epoch CSV: loss, accuracy and the per-class mean outputs."""
    lines = [",".join(history_columns())]
    for epoch, (loss, acc, mo) in enumerate(
            zip(history.loss, history.accuracy, history.mean_outputs), 1):
        lines.append(",".join([str(epoch), repr(loss), repr(acc),
                               *map(repr, mo.ravel().tolist())]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
