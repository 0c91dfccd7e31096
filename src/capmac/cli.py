"""Experiment runner: config-driven training, artifact emission and a
reproducibility manifest.

The CLI is a thin shell over the library; every run is reproducible by
calling the same functions with the same config. Exit codes: 0 success, 1
stdout closed early by its reader (`capmac eval ... | head`), 2 config/usage
error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, arrays, dataset, metrics, netlab
from .device import SensorParams, mac_phases, write_trace_csv
from .netlab import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, write_history_csv

EMIT_CHOICES = ("history", "waveform", "reconstruction", "schedule", "checkpoint")

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


@dataclass(frozen=True)
class ExperimentConfig:
    architecture: str
    train: TrainConfig
    sensor: SensorParams
    output_dir: Path
    emit: tuple = ()


# ---------------------------------------------------------------------------
# config parsing: flat `key = value` lines with dotted sections

_TRAIN_KEYS = netlab.field_keys(TrainConfig, "train.")
_SENSOR_KEYS = netlab.field_keys(SensorParams, "sensor.")
_TOP_KEYS = ("architecture", "output_dir", "emit")
_CONFIG_KEYS = (*_TRAIN_KEYS, *_SENSOR_KEYS, *_TOP_KEYS)


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines (# comments and blank lines allowed) into a
    raw dict by netlab.read_settings: each key known and given once."""
    numbered = enumerate((line.split("#", 1)[0] for line in text.splitlines()), 1)
    return netlab.read_settings([(f"line {n}", line) for n, line in numbered
                                 if line.strip()], "=", _CONFIG_KEYS)


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping of config keys into an ExperimentConfig."""
    architecture = raw.get("architecture", "fc_classifier")
    if architecture not in netlab.ARCHITECTURES:
        raise ValueError(f"architecture: {architecture!r} is not one of "
                         f"{', '.join(netlab.ARCHITECTURES)}")

    train = netlab.parse_fields(TrainConfig, raw, "train.", "train",
                                **vars(netlab.default_config(architecture)))
    sensor = netlab.parse_fields(SensorParams, raw, "sensor.", "sensor")
    if train.binarize and not netlab.MODELS[architecture].binarizes:
        raise ValueError(f"train.binarize: {architecture} trains no binarized weights")

    requested = [e.strip() for e in raw.get("emit", "").split(",") if e.strip()]
    for e in requested:
        if e not in EMIT_CHOICES:
            raise ValueError(f"emit: {e!r} is not one of {', '.join(EMIT_CHOICES)}")
    # A set, so every spelling of the same artifacts hashes alike.
    emit = tuple(e for e in EMIT_CHOICES if e in requested)
    if "reconstruction" in emit and architecture != "autoencoder":
        raise ValueError("emit: reconstruction artifacts need architecture = autoencoder")
    if "waveform" in emit and netlab.MODELS[architecture].spec.kernel:
        raise ValueError("emit: waveform capture covers the FC bank readout only")

    return ExperimentConfig(
        architecture=architecture,
        train=train,
        sensor=sensor,
        output_dir=Path(raw.get("output_dir", "runs/latest")),
        emit=emit,
    )


def canonical_config_lines(config: ExperimentConfig) -> list[str]:
    """The experiment's identity: every setting except output_dir, so the
    same experiment hashes alike wherever it is written."""
    pairs = {"architecture": config.architecture, "emit": ",".join(config.emit),
             **netlab.field_texts(config.train, "train."),
             **netlab.field_texts(config.sensor, "sensor.")}
    return [f"{k} = {pairs[k]}" for k in sorted(pairs)]


def config_hash(config: ExperimentConfig) -> str:
    blob = "\n".join(canonical_config_lines(config)).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# rendering

def render_ascii(bitmap) -> str:
    """Draw a 0/1 bitmap up to 16x16 as a '#'/'.' text block, '#' for 1.

    Deciding which pixels are on is the caller's: a reconstruction's bits
    come from `netlab.classify_series_bits`."""
    bits = np.asarray(bitmap)
    if (bits.ndim != 2 or max(bits.shape) > 16
            or not np.logical_and.reduce((bits == 0) | (bits == 1), axis=None)):
        raise ValueError("render_ascii draws 2-D 0/1 bitmaps up to 16x16")
    return "\n".join("".join("#" if v else "." for v in row) for row in bits)


def write_pgm(matrix, path, lo: float, hi: float):
    """8-bit ASCII PGM of a capacitance matrix scaled from [lo, hi]."""
    mat = np.asarray(matrix, dtype=float)
    gray = np.clip(np.rint(255 * (mat - lo) / (hi - lo)), 0, 255).astype(int)
    lines = ["P2", f"{mat.shape[1]} {mat.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in gray]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# artifacts

def capture_fc_traces(ckpt: Checkpoint, glyph: dataset.Glyph = dataset.Glyph.INV_Z):
    """Run one array cycle on the clean image of `glyph`: the (charge, volts)
    of every unit per phase, as device.mac_phases returns them.

    The bank is programmed with the checkpoint's first matrix, binarized only
    for a network that trains binarized weights."""
    model = netlab.MODELS[ckpt.architecture]
    if model.spec.kernel:
        raise ValueError("waveform/trace capture covers FC bank readout only")
    params = ckpt.params
    grid = dataset.GRIDS[model.spec.rows][dataset.GLYPH_ORDER.index(glyph)]
    c_i = dataset.encode_capacitive(grid[None], params)
    first = next(iter(model.matrices))
    weights = netlab.programmed_weights(ckpt.matrices[first],
                                        ckpt.binarize and model.binarizes)[0]
    cs = netlab.array_inputs(model.spec, c_i, params)[0]
    return mac_phases(cs, weights, params.c0)


def _json_text(report: dict) -> str:
    """The one JSON layout of capmac's reports: sorted keys, 2-space indent."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emit_reconstructions(ckpt: Checkpoint, outdir: Path) -> list[Path]:
    params = ckpt.params
    spec = netlab.MODELS[ckpt.architecture].spec
    written = []
    for glyph, grid in zip(dataset.GLYPH_ORDER, dataset.GRIDS[spec.rows]):
        c_i = dataset.encode_capacitive(grid[None], params)
        x = netlab.array_inputs(spec, c_i, params)
        *_, c_rec, ci_rec = netlab.autoencoder_forward(ckpt.matrices, x, params)
        _, bits = netlab.classify_series_bits(c_rec, params)
        txt = outdir / f"reconstruction_{glyph.value}.txt"
        txt.write_text(render_ascii(bits.reshape(grid.shape)) + "\n")
        pgm = outdir / f"reconstruction_{glyph.value}.pgm"
        write_pgm(ci_rec.reshape(grid.shape), pgm, lo=params.c_il, hi=params.c_ih)
        written += [txt, pgm]
    return written


def write_manifest(config: ExperimentConfig, artifacts: list, diverged_at: int | None,
                   path: Path):
    """Write the manifest: the software that produced the run (outside the
    config hash and digests), the experiment and each artifact's digest."""
    lines = [
        "capmac-manifest v1",
        f"tool_version: {__version__}",
        f"python: {platform.python_version()}",
        f"numpy: {np.__version__}",
        f"architecture: {config.architecture}",
        f"seed: {config.train.seed}",
        f"config_hash: {config_hash(config)}",
    ]
    if diverged_at is not None:
        lines.append(f"diverged_at_epoch: {diverged_at}")
    for name, digest in artifacts:
        lines.append(f"artifact: {name} sha256 {digest}")
    path.write_text("\n".join(lines) + "\n")


def run(config: ExperimentConfig) -> tuple[list[tuple[str, str]], int | None]:
    """Train per config, write the requested artifacts and the manifest, and
    return the artifacts' (name, sha256) pairs in the order written, with the
    epoch the run diverged at or None.

    A diverged run writes only its last-good state: the checkpoint, emitted
    or not, and history.csv if requested.
    """
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts = []

    def add(path: Path):
        artifacts.append((path.name, hashlib.sha256(path.read_bytes()).hexdigest()))

    history = netlab.train(config.architecture, config.train, config.sensor)
    emit, diverged_at = config.emit, history.diverged_at
    if diverged_at is not None:
        emit = ["history"] if "history" in emit and history.epochs_run else []
        if history.checkpoint is not None:
            emit.append("checkpoint")

    if "history" in emit:
        path = outdir / "history.csv"
        write_history_csv(history, path)
        add(path)
    if "checkpoint" in emit:
        path = outdir / "checkpoint.txt"
        save_checkpoint(history.checkpoint, path)
        add(path)
    if "waveform" in emit:
        rows = metrics.assemble_waveform(capture_fc_traces(history.checkpoint))
        path = outdir / "waveform.csv"
        metrics.write_waveform_csv(rows, path)
        add(path)
    if "schedule" in emit:
        path = outdir / "schedule.json"
        spec = netlab.MODELS[config.architecture].spec
        path.write_text(_json_text(metrics.schedule_report(spec)))
        add(path)
    if "reconstruction" in emit:
        for path in _emit_reconstructions(history.checkpoint, outdir):
            add(path)

    write_manifest(config, artifacts, diverged_at, outdir / "manifest.txt")
    return artifacts, diverged_at


# ---------------------------------------------------------------------------
# evaluation

def evaluate(ckpt: Checkpoint, seed: int = 0,
             per_glyph: int = TrainConfig.eval_per_glyph, letters: int = 8) -> dict:
    """Fresh-batch evaluation of a checkpoint at its recorded params.

    Reports the accuracy and per-class mean outputs of `netlab.evaluate`, of
    one matrix set, on the stream `seed`. At train.seed + EVAL_SEED_OFFSET and
    the run's train.eval_per_glyph (TrainConfig's is the default), these score
    the letters of the run's first epoch evaluation: a one-epoch run's history
    row. The autoencoder then reconstructs `letters` noisy letters from the
    same stream and reports per-letter MSE and classify_series_bits' bitmaps.
    """
    model = netlab.MODELS[ckpt.architecture]
    params = ckpt.params
    rng = np.random.default_rng(seed)
    idx, x = netlab.eval_letters(ckpt.architecture, params, rng, per_glyph)
    stack = {name: mat[None] for name, mat in ckpt.matrices.items()}
    acc, means, _ = netlab.evaluate(ckpt.architecture, stack, idx, x, params, ckpt.binarize)
    report = {"architecture": ckpt.architecture,
              "accuracy": float(acc[0]), "mean_outputs": means[0]}
    if ckpt.architecture == "autoencoder":
        sidx = rng.integers(0, dataset.NUM_GLYPHS, letters)
        s_ci = dataset.noisy_letters(sidx, params, rng, model.spec.rows)
        _, _, s_rec, s_ci_rec = netlab.autoencoder_forward(
            ckpt.matrices, netlab.array_inputs(model.spec, s_ci, params), params)
        spred, sbits = netlab.classify_series_bits(s_rec, params)
        mse = np.add.reduce((s_ci_rec - s_ci.reshape(letters, -1)) ** 2, axis=-1) / s_ci[0].size
        report["letters"] = [
            {
                "glyph": dataset.GLYPH_ORDER[g].value,
                "predicted": dataset.GLYPH_ORDER[pg].value,
                "mse": float(mse[i]),
                "bitmap": sbits[i].reshape(model.spec.rows, model.spec.cols),
            }
            for i, (g, pg) in enumerate(zip(sidx, spred))
        ]
        report["letters_correct"] = int(np.count_nonzero(spred == sidx))
    return report


def _print_report(report: dict):
    print(f"architecture: {report['architecture']}")
    print(f"accuracy: {report['accuracy']:.4f}")
    print("mean outputs per class (rows H,L,Y,InvZ):")
    for g, row in zip(dataset.GLYPH_ORDER, report["mean_outputs"]):
        print(f"  {g.value:5s} " + " ".join(f"{v:+.4f}" for v in row))
    if "letters" in report:
        print(f"reconstructed letters correct: {report['letters_correct']}"
              f"/{len(report['letters'])}")
        for i, entry in enumerate(report["letters"]):
            print(f"letter {i}: true={entry['glyph']} predicted={entry['predicted']} "
                  f"mse={entry['mse']:.1f}")
            print("\n".join("  " + line for line in
                            render_ascii(entry["bitmap"]).splitlines()))


# ---------------------------------------------------------------------------
# command-line front end

def _apply_overrides(raw: dict, args) -> dict:
    raw.update(netlab.read_settings([("--set", item) for item in args.set or []], "=",
                                    _CONFIG_KEYS))
    for key, value in (("architecture", args.arch), ("train.seed", args.seed),
                       ("train.epochs", args.epochs), ("output_dir", args.output_dir),
                       ("emit", args.emit)):
        if value not in (None, ""):  # an empty string flag keeps the config's value
            raw[key] = str(value)
    return raw


def _usage_error(message, kind: str = "usage") -> int:
    print(f"{kind} error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _cmd_train(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig") if args.config else ""
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(f"--config: {exc}", "config")
    try:
        config = build_config(_apply_overrides(parse_config_text(text), args))
    except ValueError as exc:
        return _usage_error(exc, "config")
    try:
        artifacts, diverged_at = run(config)
    except OSError as exc:  # run writes nothing outside output_dir
        return _usage_error(f"output_dir: {exc}", "config")
    if diverged_at is not None:
        print(f"training diverged at epoch {diverged_at}; last-good checkpoint "
              f"written to {config.output_dir}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"run complete: {len(artifacts)} artifacts in {config.output_dir}")
    for name, digest in artifacts:
        print(f"  {name} sha256 {digest[:16]}...")
    return EXIT_OK


def _cmd_eval(args) -> int:
    try:
        netlab.check_bound("seed", args.seed, "--seed")
        netlab.check_bound("eval_per_glyph", args.per_glyph, "--per-glyph")
        if not 1 <= args.letters <= dataset.MAX_DRAW:
            raise ValueError(f"--letters must be in [1, {dataset.MAX_DRAW}]")
        ckpt = load_checkpoint(args.checkpoint)
        overrides = netlab.read_settings([("--set", item) for item in args.set or []], "=",
                                         _SENSOR_KEYS)
        ckpt.params = netlab.parse_fields(SensorParams, overrides, "sensor.", "--set",
                                          **vars(ckpt.params))
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    report = evaluate(ckpt, seed=args.seed, per_glyph=args.per_glyph,
                      letters=args.letters)
    _print_report(report)
    return EXIT_OK


def _cmd_trace(args) -> int:
    try:
        ckpt = load_checkpoint(args.checkpoint)
        glyph = dataset.Glyph(args.glyph)
        phases = capture_fc_traces(ckpt, glyph)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    outdir = Path(args.out)
    rows = metrics.assemble_waveform(phases)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write_trace_csv(phases, outdir / "trace.csv")
        metrics.write_waveform_csv(rows, outdir / "waveform.csv")
    except OSError as exc:
        return _usage_error(f"--out: {exc}")
    print(f"traced {args.glyph}: outputs "
          + " ".join(f"{u:+.4f}" for u in metrics.waveform_final_outputs(rows)))
    print(f"charge energy: {metrics.charge_energy(phases):.6f} nJ")
    print(f"wrote {outdir / 'trace.csv'} and {outdir / 'waveform.csv'}")
    return EXIT_OK


def _cmd_schedule(args) -> int:
    try:
        report = metrics.schedule_report(arrays.build_conv_array(args.rows, args.cols,
                                                                 args.kernel))
    except ValueError as exc:  # the message begins with the flag's name
        return _usage_error(f"--{exc}")
    if not args.out:
        sys.stdout.write(_json_text(report))
        return EXIT_OK
    try:
        Path(args.out).write_text(_json_text(report))
    except OSError as exc:
        return _usage_error(f"--out: {exc}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    outdir = Path(args.out)
    params = SensorParams()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for r, grids in dataset.GRIDS.items():
            for glyph, grid in zip(dataset.GLYPH_ORDER, grids):
                stem = f"glyph_{glyph.value}_{r}"
                dataset.write_bitmap(outdir / f"{stem}.txt", grid)
                dataset.write_capacitance_csv(outdir / f"{stem}_capacitance.csv",
                                              dataset.encode_capacitive(grid, params))
    except OSError as exc:
        return _usage_error(f"--out: {exc}")
    print(f"wrote canonical glyph fixtures to {outdir}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `capmac` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="capmac",
        description="Capacitive in-sensor MAC array simulator and trainer")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network and emit artifacts")
    p_train.add_argument("--config", help="experiment config file (key = value lines)")
    p_train.add_argument("--arch", choices=netlab.ARCHITECTURES)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--output-dir", dest="output_dir")
    p_train.add_argument("--emit", help="comma list of " + ",".join(EMIT_CHOICES))
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override any config key")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on fresh batches")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--per-glyph", type=int, default=TrainConfig.eval_per_glyph)
    p_eval.add_argument("--letters", type=int, default=8,
                        help="random letters for autoencoder reconstruction")
    p_eval.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="sensor.* overrides")
    p_eval.set_defaults(func=_cmd_eval)

    p_trace = sub.add_parser("trace", help="capture a traced array cycle")
    p_trace.add_argument("--checkpoint", required=True)
    p_trace.add_argument("--glyph", default="invz",
                         choices=[g.value for g in dataset.GLYPH_ORDER])
    p_trace.add_argument("--out", default=".")
    p_trace.set_defaults(func=_cmd_trace)

    p_sched = sub.add_parser("schedule", help="dump a convolution schedule")
    cnn = netlab.MODELS["cnn_classifier"].spec
    p_sched.add_argument("--rows", type=int, default=cnn.rows)
    p_sched.add_argument("--cols", type=int, default=cnn.cols)
    p_sched.add_argument("--kernel", type=int, default=cnn.kernel)
    p_sched.add_argument("--out")
    p_sched.set_defaults(func=_cmd_schedule)

    p_fix = sub.add_parser("fixtures", help="dump the canonical glyph bitmaps")
    p_fix.add_argument("--out", default="fixtures")
    p_fix.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # recipe from Python's `signal` docs
        # Point stdout at devnull so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
