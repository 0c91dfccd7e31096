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
training step takes x, and a step also takes c_i for its targets and gives what its loss reads.

train steps its epochs in chunks, bit for bit as an epoch-by-epoch loop (see train). device.mac
checks shapes only: noisy_letters keeps c_i > 0 and programmed_weights |v| <= 1.

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

# The most floats of array_inputs that train reads at once, in a chunk of epochs'
# batches or evaluations: 36 FC or autoencoder epochs at the defaults, 4 CNN epochs.
CHUNK_FLOATS = 2 ** 15


# ---------------------------------------------------------------------------
# activations and losses

def softmax(u):
    """Row-wise softmax with max subtraction for stability. A row holding NaN
    or +inf comes out all NaN; the other rows are unaffected."""
    u = np.asarray(u, dtype=float)
    e = np.exp(e := u - np.maximum.reduce(u, axis=-1, keepdims=True), out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def sigmoid(z, out=None):
    """Numerically stable logistic function, elementwise: with e = exp(-|z|),
    1/(1 + e) where z >= 0 and e/(1 + e) elsewhere, in one division. e <= 1,
    so nothing overflows. Written into `out` if given, which may be z."""
    z = np.asarray(z, dtype=float)
    pos, e = z >= 0, np.abs(z, out=np.empty_like(z) if out is None else out)
    d = np.exp(np.negative(e, out=e), out=e) + 1.0
    np.copyto(e, 1.0, where=pos)
    e /= d
    return float(e) if e.ndim == 0 else e


def cross_entropy(p, y):
    """-sum(y log p) over the last axis, log argument floored at 1e-12, averaged over
    the batch axis before it if any: a float, or one value per slice of the axes before."""
    p = np.array(p, dtype=float, copy=None, ndmin=2)  # a 1-D p is a batch of one
    per_sample = np.add.reduce(-(y * np.log(np.maximum(p, LOG_FLOOR))), axis=-1)
    mean = np.add.reduce(per_sample, axis=-1) / per_sample.shape[-1]
    return float(mean) if mean.ndim == 0 else mean


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


def field_texts(settings, prefix: str) -> dict:
    """{prefix + field name: text} of each int, float, str or bool field of a
    TrainConfig, SensorParams or Checkpoint, as configs and checkpoints write
    them: booleans in lower case, strings bare, numbers by repr."""
    texts = {}
    for f in dataclasses.fields(settings):
        if f.type in FIELD_PARSERS:
            value = getattr(settings, f.name)
            if isinstance(value, bool):
                value = str(value).lower()
            texts[prefix + f.name] = value if isinstance(value, str) else repr(value)
    return texts


def field_keys(cls, prefix: str) -> list[str]:
    """The keys field_texts writes for `cls`, each field's name after `prefix`."""
    return [prefix + f.name for f in dataclasses.fields(cls) if f.type in FIELD_PARSERS]


def parse_fields(cls, texts: dict, prefix: str, where: str, **given):
    """The inverse of field_texts: the checked cls(**given), each key of
    field_keys(cls, prefix) that `texts` holds parsed by its field's
    annotation and put over `given`. Raises ValueError beginning `<where>: `
    for a value that does not parse (naming its key) or that cls refuses."""
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if f.type in FIELD_PARSERS and key in texts:
            try:
                given[f.name] = FIELD_PARSERS[f.type](texts[key])
            except ValueError:
                raise ValueError(f"{where}: {key}: cannot parse {texts[key]!r}") from None
    try:
        return cls(**given)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_settings(lines, sep: str, keys) -> dict:
    """{key: value} of (where, text) settings lines, each text split at its
    first `sep` and stripped. Raises ValueError naming `where` for a text
    without `sep`, a key not in `keys` or a key an earlier line gave."""
    settings = {}
    for where, text in lines:
        key, found, value = (part.strip() for part in text.partition(sep))
        if not found:
            raise ValueError(f"{where} expects KEY{sep}VALUE, got {text!r}")
        if key not in keys:
            raise ValueError(f"{where}: {key}: unknown configuration key")
        if key in settings:
            raise ValueError(f"{where}: {key} is given twice")
        settings[key] = value
    return settings


def default_config(architecture: str, **overrides) -> TrainConfig:
    """The architecture's paper-default learning rate and epoch count (see
    MODELS), with `overrides` applied."""
    model = MODELS[architecture]
    return TrainConfig(**{"learning_rate": model.learning_rate, "epochs": model.epochs,
                          **overrides})


@dataclass
class Checkpoint:
    """A trained network; refuses any value that train never writes."""

    architecture: str
    seed: int
    epoch: int
    beta: float
    binarize: bool
    params: SensorParams
    matrices: dict

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        check_bound("seed", self.seed)
        check_bound("epochs", self.epoch, "epoch")
        model = MODELS.get(self.architecture)
        if model is None:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.binarize and not model.binarizes:
            raise ValueError(f"binarize: {self.architecture} trains no binarized weights")
        if set(self.matrices) != set(model.matrices):
            raise ValueError(f"matrices {sorted(self.matrices)} do not match "
                             f"architecture {self.architecture}")
        for name, shape in model.matrices.items():
            if np.shape(self.matrices[name]) != shape:
                raise ValueError(f"matrix {name} is {np.shape(self.matrices[name])}, "
                                 f"{self.architecture} needs {shape}")
            if not np.logical_and.reduce(np.isfinite(self.matrices[name]), axis=None):
                raise ValueError(f"matrix {name} holds non-finite values")
        beta = programmed_weights(self.matrices[next(iter(model.matrices))])[1]
        if self.beta != beta:
            raise ValueError(f"beta must be {beta!r}, got {self.beta!r}")


@dataclass
class TrainHistory:
    """Per-epoch records plus the final weights."""

    loss: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    mean_outputs: list = field(default_factory=list)  # (glyphs, outputs) per epoch
    checkpoint: Checkpoint | None = None
    diverged_at: int | None = None  # the first epoch whose values were not finite

    @property
    def epochs_run(self) -> int:
        return len(self.loss)


# ---------------------------------------------------------------------------
# shared plumbing

def programmed_weights(v: np.ndarray, binarize: bool = False):
    """Latent weights -> (voltages programmed into the array, digital rescale
    beta): signs with beta = 1 when binarized, else v / max|v| with beta =
    max|v|, a float, or shape (..., 1, 1) for a stack v[..., M, N]."""
    v = np.asarray(v, dtype=float)
    if binarize:
        return np.where(v >= 0, 1.0, -1.0), 1.0
    beta = np.maximum.reduce(abs(v), axis=(-2, -1), keepdims=v.ndim > 2)
    beta = np.where(beta == 0, 1.0, beta) if v.ndim > 2 else float(beta) or 1.0
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
    return (a - c_l * np.add.reduce(v, axis=-1)[..., None, :]) / span


# ---------------------------------------------------------------------------
# forward passes, training steps and losses

def _fc_pass(v, cs, params, binarize):
    """(U, beta): array output voltages and the digital rescale."""
    prog, beta = programmed_weights(v, binarize)
    return mac(cs, prog, params.c0), beta


def fc_output_volts(v: np.ndarray, c_i_flat: np.ndarray, params: SensorParams,
                    binarize: bool = False) -> np.ndarray:
    """Array output voltages U_m for a batch, using the programmed weights."""
    return _fc_pass(v, series_capacitance(c_i_flat, params.c0), params, binarize)[0]


def _reconstruct(m: dict, x: np.ndarray, params: SensorParams):
    """autoencoder_forward's (phi, cnl_rec, c_rec), without the induced caps."""
    _, c_l, span = encoder_caps(params)
    phi = sigmoid(u := _conditioned(x, m["encoder"], params), u)
    cnl_rec = sigmoid(z := phi @ m["decoder"].swapaxes(-1, -2), z)
    return phi, cnl_rec, np.add(c_rec := cnl_rec * span, c_l, out=c_rec)


def autoencoder_forward(m: dict, x: np.ndarray, params: SensorParams):
    """(codes phi, normalized reconstruction, reconstructed series caps in
    [C_L, C_H], so below c0, and induced caps) of the autoencoder m."""
    phi, cnl_rec, c_rec = _reconstruct(m, x, params)
    return phi, cnl_rec, c_rec, c_rec * params.c0 / (params.c0 - c_rec)


def cnn_logits(m: dict, x: np.ndarray, params: SensorParams):
    """(logits, sigmoid features h) of the conv classifier with matrices m,
    from the windows x; stacked kernels (..., 1, 9) read x[..., S, W, 9]."""
    kernel = m["kernel"][..., None, :, :] if m["kernel"].ndim > 2 else m["kernel"].reshape(1, -1)
    h = sigmoid(u := _conditioned(x, kernel, params)[..., 0], u)
    return h @ m["head"].swapaxes(-1, -2), h


def fc_step(m, x, c_i, labels, params, binarize):
    """Softmax probabilities of the FC classifier and the gradient with respect
    to the latent weights (straight-through when binarized)."""
    u, beta = _fc_pass(m["weights"], x, params, binarize)
    p = softmax(u * beta)
    grad = (p - labels).swapaxes(-1, -2) @ x / (x.shape[-1] * params.c0)
    return p, (grad,)


def autoencoder_step(m, x, c_i, labels, params, binarize):
    """Reconstruction error (in induced-capacitance units) of the images c_i,
    and the gradients for encoder voltages and decoder weights."""
    _, c_l, span = encoder_caps(params)
    c0 = params.c0
    phi, cnl_rec, c_rec, ci_rec = autoencoder_forward(m, x, params)
    err = ci_rec - c_i.reshape(c_i.shape[:-2] + (-1,))
    d_ci = 2.0 / x.shape[-1] * err
    d_z = d_ci * c0 ** 2 / (c0 - c_rec) ** 2 * span * cnl_rec * (1 - cnl_rec)
    grad_dec = d_z.swapaxes(-1, -2) @ phi
    d_u = (d_z @ m["decoder"]) * phi * (1 - phi)
    cnl = (x - c_l) / span
    grad_enc = d_u.swapaxes(-1, -2) @ cnl
    return err, (grad_enc, grad_dec)


def mean_square(err, labels):
    """Mean of err ** 2 over each (B, N) slice (labels unread): the autoencoder's MSE loss."""
    loss = np.add.reduce(err ** 2, axis=(-2, -1)) / (err.shape[-2] * err.shape[-1])
    return float(loss) if loss.ndim == 0 else loss


def cnn_step(m, x, c_i, labels, params, binarize):
    """Softmax probabilities of the conv classifier and the gradients for the kernel
    voltages, (..., 1, 9) for a stack and (9,) unstacked, and the digital head."""
    _, c_l, span = encoder_caps(params)
    logits, h = cnn_logits(m, x, params)
    p = softmax(logits)
    d_logit = p - labels
    grad_head = d_logit.swapaxes(-1, -2) @ h
    d_u = (d_logit @ m["head"]) * h * (1 - h)
    win_cnl = (x - c_l) / span
    grad_k = np.einsum("...sj,...sjk->...k", d_u, win_cnl)
    grad_k = grad_k[..., None, :] if m["kernel"].ndim > 2 else grad_k
    return p, (grad_k, grad_head)


# ---------------------------------------------------------------------------
# evaluation helpers

@functools.cache
def _nearest_glyph():
    """(table, place): the read-only nearest 3x3 glyph of each of the 2**9 bitmaps by
    Hamming distance, ties -> lowest, at the bitmap's number sum(bits * place)."""
    pats, place = dataset.GRIDS[3].reshape(dataset.NUM_GLYPHS, -1), 2 ** np.arange(8, -1, -1)
    table = (np.arange(512)[:, None, None] // place % 2 != pats).sum(-1).argmin(-1)
    for shared in (table, place):
        shared.setflags(write=False)
    return table, place


def classify_series_bits(c_rec_series: np.ndarray, params: SensorParams):
    """Threshold reconstructed series caps at (C_H + C_L)/2 and read each bitmap's glyph
    from the 512-entry _nearest_glyph table (ties -> lowest); a 1-pixel row reads as 9."""
    c_h, c_l, _ = encoder_caps(params)
    bits = (c_rec_series >= (c_h + c_l) / 2).astype(int)
    table, place = _nearest_glyph()
    return table[np.add.reduce(bits * place, axis=-1)], bits


def _mean_by_glyph(values: np.ndarray) -> np.ndarray:
    """Per-glyph means of outputs (..., S, outputs) laid out glyph-major, as
    np.arange(NUM_GLYPHS).repeat(per_glyph) draws them."""
    by_glyph = values.reshape(*values.shape[:-2], dataset.NUM_GLYPHS, -1, values.shape[-1])
    return np.add.reduce(by_glyph, axis=-2) / by_glyph.shape[-2]


def eval_letters(architecture: str, params: SensorParams, rng, per_glyph: int, count=1, out=None):
    """(idx, x): the glyph numbers, per_glyph of each glyph-major, and the array_inputs
    x (count, S, ...) of `count` evaluations drawn in one call, into out = (c_i, x) if given."""
    spec = MODELS[architecture].spec
    idx = np.arange(dataset.NUM_GLYPHS).repeat(per_glyph)
    c_i, x = out or (np.empty((count, idx.size, spec.rows, spec.cols)), None)
    if params.noise_frac:
        rng.standard_normal(out=c_i)
    dataset.noisy_letters(idx, params, rng, spec.rows, c_i)  # idx broadcast over count
    return idx, array_inputs(spec, c_i, params, x)


def evaluate(architecture: str, m: dict, idx, x, params: SensorParams, binarize: bool):
    """Score K matrix sets m of `architecture`, stacked, on K evaluations
    (idx, x) of eval_letters: (K accuracies, K per-glyph mean outputs, the
    outputs that must stay finite), each with a leading axis of K."""
    pred, outputs, checked = MODELS[architecture].score(m, x, params, binarize)
    return np.add.reduce(pred == idx, axis=-1) / len(idx), _mean_by_glyph(outputs), checked


# ---------------------------------------------------------------------------
# the model table and the training loop

# Each architecture's scoring on what the array reads (array_inputs), given a
# dict of its matrices.

def _fc_score(m, x, params, binarize):
    volts, _ = _fc_pass(m["weights"], x, params, binarize)
    return volts.argmax(axis=-1), volts, (volts,)


def _autoencoder_score(m, x, params, binarize):
    """Glyphs read by threshold-classifying the reconstruction; the codes
    phi are the shown outputs."""
    phi, c_rec = _reconstruct(m, x, params)[::2]  # cnl_rec freed before classifying
    return classify_series_bits(c_rec, params)[0], phi, (phi, c_rec)


def _cnn_score(m, x, params, binarize):
    logits, _ = cnn_logits(m, x, params)
    return logits.argmax(axis=-1), logits, (logits,)


@dataclass(frozen=True)
class Model:
    """What the training loop and the evaluator know of one architecture.

    `matrices` maps each matrix name to its shape, in initialization order; the first is the
    one programmed into the array, and a checkpoint's beta is its divisor in programmed_weights.
    step and score take the dict m of matrices by name and x = array_inputs(spec, c_i, params),
    what the array reads of the images c_i[..., B, R, R], with any leading axes every matrix
    shares; all three functions keep those axes, each slice bit for bit its unstacked call.
    `step(m, x, c_i, labels, params, binarize)` gives out, what `loss(out, labels)` reads for
    the mean loss (a float unstacked), and the summed gradients in matrix order; `score(m, x,
    params, binarize)` the predicted glyphs, the outputs shown per glyph and the outputs that
    must stay finite. Only a model that `binarizes` may train and program its first matrix as signs.
    """

    spec: ArrayTopology  # the array the network runs on
    learning_rate: float
    epochs: int
    matrices: dict
    step: Callable
    loss: Callable
    score: Callable
    binarizes: bool = False


# The paper's alpha and epoch counts for the classifier and the autoencoder;
# the CNN rate is a repo calibration.
MODELS = {
    "fc_classifier": Model(build_fc_array(3, 3, 4), 10.0, 350, {"weights": (4, 9)},
                           fc_step, cross_entropy, _fc_score, binarizes=True),
    "autoencoder": Model(build_fc_array(3, 3, 4), 4e-4, 40, {"encoder": (4, 9), "decoder": (9, 4)},
                         autoencoder_step, mean_square, _autoencoder_score),
    "cnn_classifier": Model(build_conv_array(5, 5, 3), 1.0, 60, {"kernel": (1, 9), "head": (4, 9)},
                            cnn_step, cross_entropy, _cnn_score),
}
ARCHITECTURES = tuple(MODELS)
_CHECKPOINT_KEYS = (*field_keys(Checkpoint, ""), *field_keys(SensorParams, "sensor."))


def train(architecture: str, config: TrainConfig,
          params: SensorParams = SensorParams()) -> TrainHistory:
    """Train one architecture with the analog array in the forward path.

    Per epoch: draw S noisy letters at `params`, the ones the checkpoint records, step through
    the array to what the loss reads and the summed gradients, update every matrix by
    M -= (alpha/S) * sum_p dL/dM, then `evaluate` at the same params on a separate stream. Only
    the FC classifier may train binarized weights, with a straight-through estimator; binarize
    elsewhere raises ValueError before any draw. Chunks of epochs, as many as CHUNK_FLOATS
    holds, draw their batches and evaluations in one call each, in the RNG order of per-epoch
    draws (the evaluations' images and array_inputs into two arrays made once per run, which no
    returned value aliases). Step k writes its out and matrices in place, at k of the chunk's
    (count, ...) and (count, M, N) stacks; one call of the model's loss and one of evaluate
    score them as they are, letting NaN and inf through. One test of the chunk's losses,
    stepped matrices and eval outputs finds the first epoch with a non-finite value (finite but
    huge weights are not caught; the learning-rate bound prevents them): the run stops there,
    sets `diverged_at` to it and keeps the history and checkpoint of the epochs before it. A
    step's exception propagates at once, before its chunk is scored.
    """
    model = MODELS[architecture]
    if config.binarize and not model.binarizes:
        raise ValueError(f"binarize: {architecture} trains no binarized weights")
    rng = np.random.default_rng(config.seed)
    erng = np.random.default_rng(config.seed + EVAL_SEED_OFFSET)
    mats = {name: rng.uniform(-1.0, 1.0, shape) for name, shape in model.matrices.items()}
    lr = config.learning_rate / config.batch_size
    spec, history = model.spec, TrainHistory()
    evals = dataset.NUM_GLYPHS * config.eval_per_glyph
    per_letter = array_inputs(spec, np.ones((1, spec.rows, spec.cols)), params)[0]
    chunk = max(1, CHUNK_FLOATS // (max(config.batch_size, evals) * per_letter.size))
    e_out = [np.empty((min(chunk, config.epochs), evals) + shape)
             for shape in ((spec.rows, spec.cols), per_letter.shape)]
    for start in range(0, config.epochs, chunk):
        count = min(chunk, config.epochs - start)
        idx, c_i = dataset.letter_batches(count, config.batch_size, params, rng, spec.rows)
        x, labels = array_inputs(spec, c_i, params), dataset.LABELS[idx]
        e_idx, e_x = eval_letters(architecture, params, erng, config.eval_per_glyph, count,
                                  out=[a[:count] for a in e_out])
        stepped = mats
        stack = {name: np.empty((count,) + shape) for name, shape in model.matrices.items()}
        with np.errstate(all="ignore"):  # NaN and inf flow on to the one test below
            for k in range(count):
                out, grads = model.step(stepped, x[k], c_i[k], labels[k], params, config.binarize)
                outs = outs if k else np.empty((count,) + out.shape)  # shaped by step 0
                outs[k] = out
                stepped = {name: np.subtract(m, lr * g, out=stack[name][k])
                           for (name, m), g in zip(stepped.items(), grads)}
            losses = model.loss(outs, labels)
            accuracy, mean_outputs, checked = evaluate(
                architecture, stack, e_idx, e_x, params, config.binarize)
        finite = np.logical_and.reduce([np.isfinite(c).reshape(count, -1).all(1)
                                        for c in (losses, *stack.values(), *checked)])
        good = count if finite.all() else int(finite.argmin())  # epochs before the first bad
        history.loss += losses[:good].tolist()
        history.accuracy += accuracy[:good].tolist()
        history.mean_outputs += list(mean_outputs[:good])
        mats = {name: s[good - 1].copy() for name, s in stack.items()} if good else mats
        if good < count:
            history.diverged_at = start + good + 1
            break
    if history.epochs_run:  # one checkpoint per run, of the last good epoch's matrices
        beta = programmed_weights(next(iter(mats.values())))[1]
        history.checkpoint = Checkpoint(architecture, config.seed, history.epochs_run,
                                        beta, config.binarize, params, mats)
    return history


# ---------------------------------------------------------------------------
# checkpoint and history serialization

def checkpoint_text(ckpt: Checkpoint) -> str:
    """A checkpoint's file text: the header lines, then each matrix block by name."""
    lines = ["capmac-checkpoint v1"]
    header = {**field_texts(ckpt, ""), **field_texts(ckpt.params, "sensor.")}
    lines += [f"{key}: {text}" for key, text in header.items()]
    for name in sorted(ckpt.matrices):
        mat = np.atleast_2d(np.asarray(ckpt.matrices[name], dtype=float))
        lines.append(f"matrix {name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def load_checkpoint(path) -> Checkpoint:
    """Read a file of checkpoint_text: header lines up to the first `matrix ` line,
    read by read_settings, then matrix blocks only. Raises ValueError beginning
    with the path for a byte that is not UTF-8; a wrong first line; a blank,
    `:`-less, unknown or repeated header line; a malformed or repeated matrix
    block; a missing or unparseable field; or what Checkpoint or SensorParams
    refuses."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not lines or lines[0] != "capmac-checkpoint v1":
        raise ValueError(f"{path}: not a capmac checkpoint")
    i = next((n for n, line in enumerate(lines) if line.startswith("matrix ")), len(lines))
    fields = read_settings([(f"{path}: line {n}", lines[n - 1]) for n in range(2, i + 1)],
                           ":", _CHECKPOINT_KEYS)
    matrices = {}
    while i < len(lines):
        line = lines[i]
        i += 1
        try:
            word, name, rows, cols = line.split()
            rows, cols = int(rows), int(cols)
            mat = np.array([row.split() for row in lines[i:i + rows]], dtype=float)
            if word != "matrix" or mat.shape != (rows, cols):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: malformed matrix block {line!r}") from None
        if name in matrices:
            raise ValueError(f"{path}: line {i}: matrix {name} is given twice")
        matrices[name] = mat
        i += rows
    for key in _CHECKPOINT_KEYS:
        if key not in fields:
            raise ValueError(f"{path}: missing checkpoint field {key!r}")
    return parse_fields(Checkpoint, fields, "", str(path), matrices=matrices,
                        params=parse_fields(SensorParams, fields, "sensor.", str(path)))


def history_columns() -> list[str]:
    return ["epoch", "loss", "accuracy"] + [
        f"u{m + 1}_{glyph.value}" for glyph in dataset.GLYPH_ORDER for m in range(4)]


def history_text(history: TrainHistory) -> str:
    """Per-epoch CSV: loss, accuracy and the per-class mean outputs."""
    lines = [",".join(history_columns())]
    for epoch, (loss, acc, mo) in enumerate(
            zip(history.loss, history.accuracy, history.mean_outputs), 1):
        lines.append(",".join([str(epoch), repr(loss), repr(acc),
                               *map(repr, mo.ravel().tolist())]))
    return "\n".join(lines) + "\n"
