"""The three letter networks and their hardware-in-the-loop training loops.

The analog array only ever sees weight voltages inside [-1, 1]: each epoch
the latent weights are divided by beta = max |v| before programming, and the
digital domain multiplies the array outputs back by beta. Training therefore
optimizes the latent weights directly while the hardware stays in range.

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
from dataclasses import dataclass, field

import numpy as np

from . import dataset
from .arrays import gather_windows
from .device import SensorParams, mac, series_capacitance
from .weights import WeightBank, binarize_weights, normalize_weights

ARCHITECTURES = ("fc_classifier", "autoencoder", "cnn_classifier")

# Offset separating the evaluation stream from the training stream so the
# eval set size never perturbs the training data sequence.
EVAL_SEED_OFFSET = 1_000_003

LOG_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# activations and losses

def softmax(u):
    """Row-wise softmax with max subtraction for stability."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("softmax input must be finite")
    shifted = u - u.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out) if out.ndim == 0 else out


def cross_entropy(p, y):
    """-sum(y log p) with the log argument floored at 1e-12."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(-np.sum(y * np.log(np.maximum(p, LOG_FLOOR))))


# ---------------------------------------------------------------------------
# specs and configs

@dataclass(frozen=True)
class NetworkSpec:
    """Which architecture runs on which array geometry."""

    architecture: str
    rows: int
    cols: int
    outputs: int = 4
    kernel: int = 0
    activations: tuple = ()


def fc_spec() -> NetworkSpec:
    return NetworkSpec("fc_classifier", 3, 3, 4, 0, ("softmax",))


def autoencoder_spec() -> NetworkSpec:
    return NetworkSpec("autoencoder", 3, 3, 4, 0, ("sigmoid", "sigmoid"))


def cnn_spec() -> NetworkSpec:
    return NetworkSpec("cnn_classifier", 5, 5, 4, 3, ("sigmoid", "softmax"))


def spec_for(architecture: str) -> NetworkSpec:
    if architecture == "fc_classifier":
        return fc_spec()
    if architecture == "autoencoder":
        return autoencoder_spec()
    if architecture == "cnn_classifier":
        return cnn_spec()
    raise ValueError(f"unknown architecture: {architecture!r}")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 20
    learning_rate: float = 10.0
    epochs: int = 350
    noise_frac: float = 0.2
    seed: int = 0
    binarize: bool = False
    eval_per_glyph: int = 25

    def __post_init__(self):
        for name in ("batch_size", "learning_rate", "epochs", "noise_frac", "seed",
                     "eval_per_glyph"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.noise_frac < 0:
            raise ValueError("noise_frac must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.eval_per_glyph < 1:
            raise ValueError("eval_per_glyph must be >= 1")


def default_config(architecture: str, **overrides) -> TrainConfig:
    """Per-architecture defaults: the paper's alpha and epoch counts for the
    classifier and autoencoder; the CNN rate is a repo calibration."""
    base = {
        "fc_classifier": dict(learning_rate=10.0, epochs=350),
        "autoencoder": dict(learning_rate=4e-4, epochs=40),
        "cnn_classifier": dict(learning_rate=1.0, epochs=60),
    }[architecture]
    base.update(overrides)
    return TrainConfig(**base)


@dataclass
class Checkpoint:
    architecture: str
    seed: int
    epoch: int
    beta: float
    binarize: bool
    params: SensorParams
    matrices: dict

    def matrix(self, name: str) -> np.ndarray:
        return self.matrices[name]


@dataclass
class TrainHistory:
    """Per-epoch records plus the final weights."""

    architecture: str
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
    of) the last good epoch."""

    def __init__(self, epoch: int, history: TrainHistory):
        super().__init__(f"training diverged at epoch {epoch}: non-finite "
                         "loss, gradient, weight or output")
        self.epoch = epoch
        self.history = history


# ---------------------------------------------------------------------------
# shared plumbing

def _effective_params(config: TrainConfig, params: SensorParams) -> SensorParams:
    # TrainConfig.noise_frac is authoritative during training and evaluation.
    return dataclasses.replace(params, noise_frac=config.noise_frac)


def programmed_weights(v: np.ndarray, binarize: bool = False):
    """Latent weights -> (voltages programmed into the array, digital rescale
    beta): signs with beta = 1 when binarized, else v / max|v| with beta =
    max|v|."""
    bank = WeightBank(v)
    if binarize:
        return binarize_weights(bank).v, 1.0
    bank = normalize_weights(bank)
    return bank.v, bank.beta


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
# forward passes: each takes series capacitances (windows for the CNN) and
# returns every value its batch loss needs

def _fc_pass(v, cs, params, binarize):
    """(U, beta): array output voltages and the digital rescale."""
    prog, beta = programmed_weights(v, binarize)
    return mac(cs, prog, params.c0), beta


def _autoencoder_pass(v_enc, w_dec, cs, params):
    """(codes phi, normalized reconstruction, series and induced caps)."""
    _, c_l, span = encoder_caps(params)
    c0 = params.c0
    phi = sigmoid(_conditioned(cs, v_enc, params))
    cnl_rec = sigmoid(phi @ w_dec.T)
    c_rec = cnl_rec * span + c_l
    ci_rec = c_rec * c0 / (c0 - c_rec)
    return phi, cnl_rec, c_rec, ci_rec


def _cnn_pass(kernel, head, win, params):
    """(logits, sigmoid features h) from the conv windows' series caps."""
    h = sigmoid(_conditioned(win, kernel.reshape(1, -1), params)[..., 0])
    return h @ head.T, h


def fc_output_volts(v: np.ndarray, c_i_flat: np.ndarray, params: SensorParams,
                    binarize: bool = False) -> np.ndarray:
    """Array output voltages U_m for a batch, using the programmed weights."""
    return _fc_pass(v, series_capacitance(c_i_flat, params.c0), params, binarize)[0]


def autoencoder_forward(v_enc: np.ndarray, w_dec: np.ndarray,
                        c_i_flat: np.ndarray, params: SensorParams):
    """(codes phi, reconstructed series caps, reconstructed induced caps)."""
    phi, _, c_rec, ci_rec = _autoencoder_pass(
        v_enc, w_dec, series_capacitance(c_i_flat, params.c0), params)
    return phi, c_rec, ci_rec


def cnn_logits(kernel: np.ndarray, head: np.ndarray, c_i: np.ndarray,
               params: SensorParams):
    """(logits, sigmoid features h) for a batch of induced-capacitance images."""
    return _cnn_pass(kernel, head, gather_windows(series_capacitance(c_i, params.c0)),
                     params)


# ---------------------------------------------------------------------------
# batch losses (mean loss, summed gradients)

def _mean_cross_entropy(p, labels) -> float:
    return float(np.mean(-np.sum(labels * np.log(np.maximum(p, LOG_FLOOR)), axis=1)))


def fc_batch_loss(v: np.ndarray, c_i_flat: np.ndarray, labels: np.ndarray,
                  params: SensorParams, binarize: bool = False):
    """Mean cross-entropy of the FC classifier on a batch, plus the summed
    gradient with respect to the latent weights (straight-through when
    binarized)."""
    cs = series_capacitance(c_i_flat, params.c0)
    u, beta = _fc_pass(v, cs, params, binarize)
    p = softmax(u * beta)
    grad = (p - labels).T @ cs / (cs.shape[1] * params.c0)
    return _mean_cross_entropy(p, labels), grad, p


def autoencoder_batch_loss(v_enc: np.ndarray, w_dec: np.ndarray,
                           c_i_flat: np.ndarray, params: SensorParams):
    """Mean reconstruction MSE (in induced-capacitance units) and summed
    gradients for encoder voltages and decoder weights."""
    _, c_l, span = encoder_caps(params)
    c0 = params.c0
    cs = series_capacitance(c_i_flat, c0)
    phi, cnl_rec, c_rec, ci_rec = _autoencoder_pass(v_enc, w_dec, cs, params)
    if np.any(c_rec >= c0):
        raise AssertionError("reconstructed series capacitance reached c0")
    n = cs.shape[1]
    loss = float(np.mean((ci_rec - c_i_flat) ** 2))
    d_ci = 2.0 / n * (ci_rec - c_i_flat)
    d_z = d_ci * c0 ** 2 / (c0 - c_rec) ** 2 * span * cnl_rec * (1 - cnl_rec)
    grad_dec = d_z.T @ phi
    d_u = (d_z @ w_dec) * phi * (1 - phi)
    cnl = (cs - c_l) / span
    grad_enc = d_u.T @ cnl
    return loss, grad_enc, grad_dec, phi, ci_rec, c_rec


def cnn_batch_loss(kernel: np.ndarray, head: np.ndarray, c_i: np.ndarray,
                   labels: np.ndarray, params: SensorParams):
    """Mean cross-entropy of the conv classifier and summed gradients for
    the kernel voltages and the digital head."""
    _, c_l, span = encoder_caps(params)
    win = gather_windows(series_capacitance(c_i, params.c0))
    logits, h = _cnn_pass(kernel, head, win, params)
    p = softmax(logits)
    d_logit = p - labels
    grad_head = d_logit.T @ h
    d_u = (d_logit @ head) * h * (1 - h)
    win_cnl = (win - c_l) / span
    grad_k = np.einsum("sj,sjk->k", d_u, win_cnl)
    return _mean_cross_entropy(p, labels), grad_k, grad_head, h, p


# ---------------------------------------------------------------------------
# evaluation helpers

def classify_series_bits(c_rec_series: np.ndarray, params: SensorParams):
    """Threshold reconstructed series caps at (C_H + C_L)/2 and classify the
    bitmaps by Hamming distance to the canonical glyphs (ties -> lowest)."""
    c_h, c_l, _ = encoder_caps(params)
    bits = (c_rec_series >= (c_h + c_l) / 2).astype(int)
    pats = np.stack([im.grid.reshape(-1) for im in dataset.letter_patterns(3)])
    ham = (bits[:, None, :] != pats[None, :, :]).sum(axis=2)
    return ham.argmin(axis=1), bits


def _mean_by_glyph(values: np.ndarray, glyph_idx: np.ndarray) -> np.ndarray:
    return np.stack([values[glyph_idx == g].mean(axis=0)
                     for g in range(dataset.NUM_GLYPHS)])


# ---------------------------------------------------------------------------
# trainers

def _checkpoint(architecture, config, params, epoch, beta, matrices) -> Checkpoint:
    return Checkpoint(architecture=architecture, seed=config.seed, epoch=epoch,
                      beta=float(beta), binarize=config.binarize, params=params,
                      matrices={k: m.copy() for k, m in matrices.items()})


def _check_finite(epoch, history, loss, *arrays):
    if not (math.isfinite(loss) and all(np.isfinite(a).all() for a in arrays)):
        raise TrainingDiverged(epoch, history)


def train_fc_classifier(config: TrainConfig, params: SensorParams = SensorParams()
                        ) -> TrainHistory:
    """Train the 3x3 fully-connected classifier (optionally binarized with a
    straight-through estimator) with the analog array in the forward path.

    Per epoch: draw S noisy letters, program the normalized weights, read the
    four bank voltages, rescale digitally, softmax + cross-entropy, update
    the latent weights by V -= (alpha/S) * sum_p dL/dV.
    """
    p_eff = _effective_params(config, params)
    rng = np.random.default_rng(config.seed)
    erng = np.random.default_rng(config.seed + EVAL_SEED_OFFSET)
    v = rng.uniform(-1.0, 1.0, (4, 9))
    lr = config.learning_rate / config.batch_size
    history = TrainHistory(architecture="fc_classifier")
    for epoch in range(1, config.epochs + 1):
        batch = dataset.sample_batch(config.batch_size, p_eff, rng, resolution=3)
        c_i, labels, _ = dataset.batch_arrays(batch)
        loss, grad, _ = fc_batch_loss(v, c_i.reshape(len(batch), -1), labels,
                                      p_eff, binarize=config.binarize)
        v = v - lr * grad
        _check_finite(epoch, history, loss, grad, v)
        ebatch = dataset.balanced_batch(config.eval_per_glyph, p_eff, erng, resolution=3)
        ec_i, _, eidx = dataset.batch_arrays(ebatch)
        volts = fc_output_volts(v, ec_i.reshape(len(ebatch), -1), p_eff,
                                binarize=config.binarize)
        _check_finite(epoch, history, loss, volts)
        history.loss.append(loss)
        history.accuracy.append(float(np.mean(volts.argmax(axis=1) == eidx)))
        history.mean_outputs.append(_mean_by_glyph(volts, eidx))
        history.checkpoint = _checkpoint("fc_classifier", config, params, epoch,
                                         np.max(np.abs(v)) or 1.0, {"weights": v})
    return history


def train_autoencoder(config: TrainConfig, params: SensorParams = SensorParams()
                      ) -> TrainHistory:
    """Train the 4-code autoencoder: analog encoder dot products, digital
    (A - B)/C conditioning, sigmoid code, digital decoder, reconstruction
    back to induced capacitance, MSE loss, batch SGD on both weight sets.

    Per-epoch accuracy is the fraction of a fresh noisy eval batch whose
    reconstruction threshold-classifies to the correct glyph.
    """
    p_eff = _effective_params(config, params)
    rng = np.random.default_rng(config.seed)
    erng = np.random.default_rng(config.seed + EVAL_SEED_OFFSET)
    v_enc = rng.uniform(-1.0, 1.0, (4, 9))
    w_dec = rng.uniform(-1.0, 1.0, (9, 4))
    lr = config.learning_rate / config.batch_size
    history = TrainHistory(architecture="autoencoder")
    for epoch in range(1, config.epochs + 1):
        batch = dataset.sample_batch(config.batch_size, p_eff, rng, resolution=3)
        c_i, _, _ = dataset.batch_arrays(batch)
        loss, g_enc, g_dec, _, _, _ = autoencoder_batch_loss(
            v_enc, w_dec, c_i.reshape(len(batch), -1), p_eff)
        v_enc = v_enc - lr * g_enc
        w_dec = w_dec - lr * g_dec
        _check_finite(epoch, history, loss, g_enc, g_dec, v_enc, w_dec)
        ebatch = dataset.balanced_batch(config.eval_per_glyph, p_eff, erng, resolution=3)
        ec_i, _, eidx = dataset.batch_arrays(ebatch)
        phi, c_rec, _ = autoencoder_forward(v_enc, w_dec,
                                            ec_i.reshape(len(ebatch), -1), p_eff)
        _check_finite(epoch, history, loss, phi, c_rec)
        pred, _ = classify_series_bits(c_rec, p_eff)
        history.loss.append(loss)
        history.accuracy.append(float(np.mean(pred == eidx)))
        history.mean_outputs.append(_mean_by_glyph(phi, eidx))
        history.checkpoint = _checkpoint("autoencoder", config, params, epoch,
                                         np.max(np.abs(v_enc)) or 1.0,
                                         {"encoder": v_enc, "decoder": w_dec})
    return history


def train_cnn_classifier(config: TrainConfig, params: SensorParams = SensorParams()
                         ) -> TrainHistory:
    """Train the 5x5 convolutional classifier: in-array 3x3 kernel sweep,
    digital (A - B)/C conditioning and sigmoid on the 9 feature values, then
    a digital 9 -> 4 head and softmax."""
    p_eff = _effective_params(config, params)
    rng = np.random.default_rng(config.seed)
    erng = np.random.default_rng(config.seed + EVAL_SEED_OFFSET)
    kernel = rng.uniform(-1.0, 1.0, 9)
    head = rng.uniform(-1.0, 1.0, (4, 9))
    lr = config.learning_rate / config.batch_size
    history = TrainHistory(architecture="cnn_classifier")
    for epoch in range(1, config.epochs + 1):
        batch = dataset.sample_batch(config.batch_size, p_eff, rng, resolution=5)
        c_i, labels, _ = dataset.batch_arrays(batch)
        loss, g_k, g_head, _, _ = cnn_batch_loss(kernel, head, c_i, labels, p_eff)
        kernel = kernel - lr * g_k
        head = head - lr * g_head
        _check_finite(epoch, history, loss, g_k, g_head, kernel, head)
        ebatch = dataset.balanced_batch(config.eval_per_glyph, p_eff, erng, resolution=5)
        ec_i, _, eidx = dataset.batch_arrays(ebatch)
        logits, _ = cnn_logits(kernel, head, ec_i, p_eff)
        _check_finite(epoch, history, loss, logits)
        history.loss.append(loss)
        history.accuracy.append(float(np.mean(logits.argmax(axis=1) == eidx)))
        history.mean_outputs.append(_mean_by_glyph(logits, eidx))
        history.checkpoint = _checkpoint("cnn_classifier", config, params, epoch,
                                         np.max(np.abs(kernel)) or 1.0,
                                         {"kernel": kernel.reshape(1, -1), "head": head})
    return history


TRAINERS = {
    "fc_classifier": train_fc_classifier,
    "autoencoder": train_autoencoder,
    "cnn_classifier": train_cnn_classifier,
}


# ---------------------------------------------------------------------------
# checkpoint and history serialization

# The matrices each architecture's checkpoint holds, with their shapes.
CHECKPOINT_MATRICES = {
    "fc_classifier": {"weights": (4, 9)},
    "autoencoder": {"encoder": (4, 9), "decoder": (9, 4)},
    "cnn_classifier": {"kernel": (1, 9), "head": (4, 9)},
}


def save_checkpoint(ckpt: Checkpoint, path):
    lines = [
        "capmac-checkpoint v1",
        f"architecture: {ckpt.architecture}",
        f"seed: {ckpt.seed}",
        f"epoch: {ckpt.epoch}",
        f"beta: {ckpt.beta!r}",
        f"binarize: {str(ckpt.binarize).lower()}",
        f"sensor.c0: {ckpt.params.c0!r}",
        f"sensor.c_ih: {ckpt.params.c_ih!r}",
        f"sensor.c_il: {ckpt.params.c_il!r}",
        f"sensor.noise_frac: {ckpt.params.noise_frac!r}",
        f"sensor.noise_mode: {ckpt.params.noise_mode}",
    ]
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
    fields = {}
    matrices = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if line.startswith("matrix "):
            _, name, rows, cols = line.split()
            rows, cols = int(rows), int(cols)
            block = lines[i + 1:i + 1 + rows]
            matrices[name] = np.array([[float(x) for x in row.split()] for row in block])
            if matrices[name].shape != (rows, cols):
                raise ValueError(f"{path}: malformed matrix {name}")
            i += 1 + rows
        elif line.strip():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
            i += 1
        else:
            i += 1
    try:
        params = SensorParams(
            c0=float(fields["sensor.c0"]),
            c_ih=float(fields["sensor.c_ih"]),
            c_il=float(fields["sensor.c_il"]),
            noise_frac=float(fields["sensor.noise_frac"]),
            noise_mode=fields["sensor.noise_mode"],
        )
        ckpt = Checkpoint(
            architecture=fields["architecture"],
            seed=int(fields["seed"]),
            epoch=int(fields["epoch"]),
            beta=float(fields["beta"]),
            binarize=fields["binarize"] == "true",
            params=params,
            matrices=matrices,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing checkpoint field {exc}") from exc
    expected = CHECKPOINT_MATRICES.get(ckpt.architecture)
    if expected is None:
        raise ValueError(f"{path}: unknown architecture {ckpt.architecture!r}")
    if set(matrices) != set(expected):
        raise ValueError(f"{path}: matrices {sorted(matrices)} do not match "
                         f"architecture {ckpt.architecture}")
    for name, shape in expected.items():
        if matrices[name].shape != shape:
            raise ValueError(f"{path}: matrix {name} is {matrices[name].shape}, "
                             f"{ckpt.architecture} needs {shape}")
        if not np.all(np.isfinite(matrices[name])):
            raise ValueError(f"{path}: matrix {name} holds non-finite values")
    return ckpt


def history_columns() -> list[str]:
    cols = ["epoch", "loss", "accuracy"]
    for glyph in dataset.GLYPH_ORDER:
        for m in range(4):
            cols.append(f"u{m + 1}_{glyph.value}")
    return cols


def write_history_csv(history: TrainHistory, path):
    """Per-epoch CSV: loss, accuracy and the per-class mean outputs."""
    lines = [",".join(history_columns())]
    for i in range(history.epochs_run):
        row = [str(i + 1), repr(history.loss[i]), repr(history.accuracy[i])]
        mo = history.mean_outputs[i]
        for g in range(mo.shape[0]):
            for m in range(mo.shape[1]):
                row.append(repr(float(mo[g, m])))
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
