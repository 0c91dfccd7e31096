"""Experiment runner: config-driven training, artifact emission and a
reproducibility manifest.

The CLI is a thin shell over the library; every run is reproducible by
calling the same functions with the same config. Exit codes: 0 success,
2 config/usage error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, arrays, dataset, metrics, netlab
from .device import SensorParams
from .netlab import (Checkpoint, TrainConfig, TrainingDiverged, load_checkpoint,
                     save_checkpoint, spec_for, write_history_csv)

EMIT_CHOICES = ("history", "waveform", "reconstruction", "schedule", "checkpoint")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    architecture: str
    train: TrainConfig
    sensor: SensorParams
    output_dir: Path
    emit: tuple = ()


@dataclass
class RunManifest:
    tool_version: str
    architecture: str
    seed: int
    config_hash: str
    artifacts: list = field(default_factory=list)  # (name, sha256) pairs
    diverged_at: int | None = None


# ---------------------------------------------------------------------------
# config parsing: flat `key = value` lines with dotted sections

_TRAIN_KEYS = {
    "train.batch_size": int,
    "train.learning_rate": float,
    "train.epochs": int,
    "train.noise_frac": float,
    "train.seed": int,
    "train.binarize": None,  # bool, handled below
    "train.eval_per_glyph": int,
}
_SENSOR_KEYS = {
    "sensor.c0": float,
    "sensor.c_ih": float,
    "sensor.c_il": float,
    "sensor.noise_frac": float,
    "sensor.noise_mode": str,
}
_TOP_KEYS = ("architecture", "output_dir", "emit")


def _parse_bool(key, raw):
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines (# comments allowed) into a raw dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _section_kwargs(raw: dict, keys: dict) -> dict:
    """Parse the keys of one dotted section that `raw` sets into keyword
    arguments for the section's dataclass."""
    kwargs = {}
    for key, conv in keys.items():
        if key not in raw:
            continue
        name = key.split(".", 1)[1]
        if conv is None:
            kwargs[name] = _parse_bool(key, raw[key])
            continue
        try:
            kwargs[name] = conv(raw[key])
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {raw[key]!r}") from None
    return kwargs


def build_config(raw: dict) -> ExperimentConfig:
    """Validate a raw key/value mapping into an ExperimentConfig."""
    known = set(_TRAIN_KEYS) | set(_SENSOR_KEYS) | set(_TOP_KEYS)
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration key")

    architecture = raw.get("architecture", "fc_classifier")
    if architecture not in netlab.ARCHITECTURES:
        raise ConfigError(f"architecture: {architecture!r} is not one of "
                          f"{', '.join(netlab.ARCHITECTURES)}")

    try:
        train = netlab.default_config(architecture, **_section_kwargs(raw, _TRAIN_KEYS))
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from None
    try:
        sensor = SensorParams(**_section_kwargs(raw, _SENSOR_KEYS))
    except ValueError as exc:
        raise ConfigError(f"sensor: {exc}") from None

    emit = tuple(e for e in raw.get("emit", "").split(",") if e)
    for e in emit:
        if e not in EMIT_CHOICES:
            raise ConfigError(f"emit: {e!r} is not one of {', '.join(EMIT_CHOICES)}")
    if "reconstruction" in emit and architecture != "autoencoder":
        raise ConfigError("emit: reconstruction artifacts need architecture = autoencoder")
    if "waveform" in emit and architecture == "cnn_classifier":
        raise ConfigError("emit: waveform capture covers the FC bank readout only")

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
    t, s = config.train, config.sensor
    pairs = {
        "architecture": config.architecture,
        "emit": ",".join(config.emit),
        "train.batch_size": t.batch_size,
        "train.learning_rate": repr(t.learning_rate),
        "train.epochs": t.epochs,
        "train.noise_frac": repr(t.noise_frac),
        "train.seed": t.seed,
        "train.binarize": str(t.binarize).lower(),
        "train.eval_per_glyph": t.eval_per_glyph,
        "sensor.c0": repr(s.c0),
        "sensor.c_ih": repr(s.c_ih),
        "sensor.c_il": repr(s.c_il),
        "sensor.noise_frac": repr(s.noise_frac),
        "sensor.noise_mode": s.noise_mode,
    }
    return [f"{k} = {pairs[k]}" for k in sorted(pairs)]


def config_hash(config: ExperimentConfig) -> str:
    blob = "\n".join(canonical_config_lines(config)).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# rendering

def render_ascii(matrix, params: SensorParams | None = None,
                 threshold: float | None = None) -> str:
    """Threshold a bitmap or capacitance matrix into a '#'/'.' text block.

    Binary matrices threshold at 0.5. Any other matrix holds *induced*
    capacitances and thresholds at the induced value whose series
    capacitance is the midpoint (C_H + C_L)/2, i.e. mid*c0/(c0 - mid), so a
    pixel renders '#' exactly when `netlab.classify_series_bits` reads it as 1.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] > 16 or mat.shape[1] > 16:
        raise ValueError("render_ascii accepts 2-D matrices up to 16x16")
    if threshold is None:
        if np.all((mat == 0) | (mat == 1)):
            threshold = 0.5
        else:
            params = params or SensorParams()
            c_h, c_l, _ = netlab.encoder_caps(params)
            mid = (c_h + c_l) / 2
            threshold = mid * params.c0 / (params.c0 - mid)
    return "\n".join("".join("#" if v >= threshold else "." for v in row)
                     for row in mat)


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

def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _clean_image(glyph: dataset.Glyph, params: SensorParams, resolution: int = 3):
    pattern = {im.glyph: im for im in dataset.letter_patterns(resolution)}[glyph]
    return dataset.encode_capacitive(pattern, params).c_i


def _programmed_fc_weights(ckpt: Checkpoint) -> np.ndarray:
    name = {"fc_classifier": "weights", "autoencoder": "encoder"}.get(ckpt.architecture)
    if name is None:
        raise ConfigError("waveform/trace capture covers FC bank readout only")
    return netlab.programmed_weights(ckpt.matrix(name), ckpt.binarize)[0]


def capture_fc_traces(ckpt: Checkpoint, glyph: dataset.Glyph = dataset.Glyph.INV_Z):
    """Run one traced array cycle on the clean image of `glyph`."""
    params = ckpt.params
    topo = arrays.build_fc_array(3, 3, 4)
    image = _clean_image(glyph, params)
    traces: list = []
    outputs = arrays.fc_forward(topo, image, _programmed_fc_weights(ckpt), params,
                                traces=traces)
    return outputs, traces


def _emit_schedule(config: ExperimentConfig, path: Path):
    if config.architecture == "cnn_classifier":
        sched = arrays.schedule_conv(5, 5, 3)
        arrays.write_schedule_json(sched, path)
    else:
        topo = arrays.build_fc_array(3, 3, 4)
        data = {
            "type": "fc_banks",
            "rows": topo.rows,
            "cols": topo.cols,
            "banks": topo.banks,
            "wiring": {str(m): [[r, c] for r, c in coords]
                       for m, coords in topo.bank_wiring.items()},
        }
        import json
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _emit_reconstructions(ckpt: Checkpoint, outdir: Path) -> list[Path]:
    params = ckpt.params
    v_enc, w_dec = ckpt.matrix("encoder"), ckpt.matrix("decoder")
    written = []
    for im in dataset.letter_patterns(3):
        c_i = dataset.encode_capacitive(im, params).c_i.reshape(1, -1)
        _, _, ci_rec = netlab.autoencoder_forward(v_enc, w_dec, c_i, params)
        recon = ci_rec.reshape(3, 3)
        txt = outdir / f"reconstruction_{im.glyph.value}.txt"
        txt.write_text(render_ascii(recon, params) + "\n")
        pgm = outdir / f"reconstruction_{im.glyph.value}.pgm"
        write_pgm(recon, pgm, lo=params.c_il, hi=params.c_ih)
        written += [txt, pgm]
    return written


def write_manifest(manifest: RunManifest, path: Path):
    lines = [
        "capmac-manifest v1",
        f"tool_version: {manifest.tool_version}",
        f"architecture: {manifest.architecture}",
        f"seed: {manifest.seed}",
        f"config_hash: {manifest.config_hash}",
    ]
    if manifest.diverged_at is not None:
        lines.append(f"diverged_at_epoch: {manifest.diverged_at}")
    for name, digest in manifest.artifacts:
        lines.append(f"artifact: {name} sha256 {digest}")
    path.write_text("\n".join(lines) + "\n")


def run(config: ExperimentConfig) -> RunManifest:
    """Train per config, write the requested artifacts and the manifest.

    Raises TrainingDiverged after writing the last-good checkpoint and the
    manifest, so callers can map it to an exit status.
    """
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        tool_version=__version__,
        architecture=config.architecture,
        seed=config.train.seed,
        config_hash=config_hash(config),
    )

    def add(path: Path):
        manifest.artifacts.append((path.name, _sha256_file(path)))

    trainer = netlab.TRAINERS[config.architecture]
    try:
        history = trainer(config.train, config.sensor)
    except TrainingDiverged as exc:
        manifest.diverged_at = exc.epoch
        if exc.history.checkpoint is not None:
            ck = outdir / "checkpoint.txt"
            save_checkpoint(exc.history.checkpoint, ck)
            add(ck)
        if exc.history.epochs_run and "history" in config.emit:
            hp = outdir / "history.csv"
            write_history_csv(exc.history, hp)
            add(hp)
        write_manifest(manifest, outdir / "manifest.txt")
        raise

    if "history" in config.emit:
        path = outdir / "history.csv"
        write_history_csv(history, path)
        add(path)
    if "checkpoint" in config.emit:
        path = outdir / "checkpoint.txt"
        save_checkpoint(history.checkpoint, path)
        add(path)
    if "waveform" in config.emit:
        outputs, traces = capture_fc_traces(history.checkpoint)
        rows = metrics.assemble_waveform(traces, metrics.PhaseTiming())
        path = outdir / "waveform.csv"
        metrics.write_waveform_csv(rows, path)
        add(path)
    if "schedule" in config.emit:
        path = outdir / "schedule.json"
        _emit_schedule(config, path)
        add(path)
    if "reconstruction" in config.emit:
        for path in _emit_reconstructions(history.checkpoint, outdir):
            add(path)

    write_manifest(manifest, outdir / "manifest.txt")
    return manifest


# ---------------------------------------------------------------------------
# evaluation

def evaluate(ckpt: Checkpoint, seed: int = 0, per_glyph: int = 25,
             letters: int = 8) -> dict:
    """Fresh-batch evaluation of a checkpoint.

    Classifiers report accuracy and per-class mean outputs; the autoencoder
    additionally reconstructs `letters` random noisy letters and reports
    per-letter MSE and thresholded bitmaps.
    """
    params = ckpt.params
    rng = np.random.default_rng(seed)
    resolution = 5 if ckpt.architecture == "cnn_classifier" else 3
    batch = dataset.balanced_batch(per_glyph, params, rng, resolution=resolution)
    c_i, _, idx = dataset.batch_arrays(batch)
    flat = c_i.reshape(len(batch), -1)
    report = {"architecture": ckpt.architecture, "seed": seed}

    if ckpt.architecture == "fc_classifier":
        volts = netlab.fc_output_volts(ckpt.matrix("weights"), flat, params,
                                       binarize=ckpt.binarize)
        report["accuracy"] = float(np.mean(volts.argmax(axis=1) == idx))
        report["mean_outputs"] = netlab._mean_by_glyph(volts, idx)
    elif ckpt.architecture == "cnn_classifier":
        logits, _ = netlab.cnn_logits(ckpt.matrix("kernel"), ckpt.matrix("head"),
                                      c_i, params)
        report["accuracy"] = float(np.mean(logits.argmax(axis=1) == idx))
        report["mean_outputs"] = netlab._mean_by_glyph(logits, idx)
    elif ckpt.architecture == "autoencoder":
        v_enc, w_dec = ckpt.matrix("encoder"), ckpt.matrix("decoder")
        phi, c_rec, _ = netlab.autoencoder_forward(v_enc, w_dec, flat, params)
        pred, _ = netlab.classify_series_bits(c_rec, params)
        report["accuracy"] = float(np.mean(pred == idx))
        report["mean_outputs"] = netlab._mean_by_glyph(phi, idx)
        sample = dataset.sample_batch(letters, params, rng, resolution=3)
        sc_i, _, sidx = dataset.batch_arrays(sample)
        sflat = sc_i.reshape(letters, -1)
        _, s_rec, s_ci_rec = netlab.autoencoder_forward(v_enc, w_dec, sflat, params)
        spred, sbits = netlab.classify_series_bits(s_rec, params)
        report["letters"] = [
            {
                "glyph": dataset.GLYPH_ORDER[g].value,
                "predicted": dataset.GLYPH_ORDER[pg].value,
                "mse": float(np.mean((s_ci_rec[i] - sflat[i]) ** 2)),
                "bitmap": sbits[i].reshape(3, 3),
                "reconstruction": s_ci_rec[i].reshape(3, 3),
            }
            for i, (g, pg) in enumerate(zip(sidx, spred))
        ]
        report["letters_correct"] = int(np.sum(spred == sidx))
    else:
        raise ConfigError(f"architecture: cannot evaluate {ckpt.architecture!r}")
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

def _parse_set(items) -> dict:
    raw = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _apply_overrides(raw: dict, args) -> dict:
    raw.update(_parse_set(args.set))
    if args.arch:
        raw["architecture"] = args.arch
    if args.seed is not None:
        raw["train.seed"] = str(args.seed)
    if args.epochs is not None:
        raw["train.epochs"] = str(args.epochs)
    if args.output_dir:
        raw["output_dir"] = args.output_dir
    if args.emit:
        raw["emit"] = args.emit
    return raw


def _cmd_train(args) -> int:
    raw = {}
    if args.config:
        try:
            raw = parse_config_text(Path(args.config).read_text())
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        config = build_config(_apply_overrides(raw, args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        manifest = run(config)
    except TrainingDiverged as exc:
        print(f"training diverged at epoch {exc.epoch}; last-good checkpoint "
              f"written to {config.output_dir}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"run complete: {len(manifest.artifacts)} artifacts in {config.output_dir}")
    for name, digest in manifest.artifacts:
        print(f"  {name} sha256 {digest[:16]}...")
    return EXIT_OK


def _cmd_eval(args) -> int:
    try:
        for flag, value, least in (("--seed", args.seed, 0),
                                   ("--per-glyph", args.per_glyph, 1),
                                   ("--letters", args.letters, 1)):
            if value < least:
                raise ConfigError(f"{flag}: must be >= {least}, got {value}")
        ckpt = load_checkpoint(args.checkpoint)
        overrides = _parse_set(args.set)
        for key in overrides:
            if key not in _SENSOR_KEYS:
                raise ConfigError(f"{key}: eval overrides are sensor.* only")
        sensor = _section_kwargs(overrides, _SENSOR_KEYS)
        ckpt = dataclasses.replace(ckpt, params=dataclasses.replace(ckpt.params, **sensor))
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = evaluate(ckpt, seed=args.seed, per_glyph=args.per_glyph,
                      letters=args.letters)
    _print_report(report)
    return EXIT_OK


def _cmd_trace(args) -> int:
    try:
        ckpt = load_checkpoint(args.checkpoint)
        glyph = dataset.Glyph(args.glyph)
        outputs, traces = capture_fc_traces(ckpt, glyph)
    except (OSError, ValueError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    from .device import write_trace_csv
    flat = [rec for bank in traces for rec in bank]
    write_trace_csv(flat, outdir / "trace.csv")
    rows = metrics.assemble_waveform(traces, metrics.PhaseTiming())
    metrics.write_waveform_csv(rows, outdir / "waveform.csv")
    print(f"traced {args.glyph}: outputs " + " ".join(f"{u:+.4f}" for u in outputs))
    print(f"wrote {outdir / 'trace.csv'} and {outdir / 'waveform.csv'}")
    return EXIT_OK


def _cmd_schedule(args) -> int:
    try:
        sched = arrays.schedule_conv(args.rows, args.cols, args.kernel)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    data = arrays.schedule_to_dict(sched)
    if args.out:
        arrays.write_schedule_json(sched, args.out)
        print(f"wrote {args.out}")
    else:
        import json
        print(json.dumps(data, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    params = SensorParams()
    for resolution in (3, 5):
        for im in dataset.letter_patterns(resolution):
            stem = f"glyph_{im.glyph.value}_{resolution}"
            dataset.write_bitmap(outdir / f"{stem}.txt", im.grid)
            sample = dataset.encode_capacitive(im, params)
            dataset.write_capacitance_csv(outdir / f"{stem}_capacitance.csv",
                                          sample.c_i)
    print(f"wrote canonical glyph fixtures to {outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p_eval.add_argument("--per-glyph", type=int, default=25)
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
    p_sched.add_argument("--rows", type=int, default=5)
    p_sched.add_argument("--cols", type=int, default=5)
    p_sched.add_argument("--kernel", type=int, default=3)
    p_sched.add_argument("--out")
    p_sched.set_defaults(func=_cmd_schedule)

    p_fix = sub.add_parser("fixtures", help="dump the canonical glyph bitmaps")
    p_fix.add_argument("--out", default="fixtures")
    p_fix.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
