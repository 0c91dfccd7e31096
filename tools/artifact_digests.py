"""Print sha256 digests of the deterministic artifacts capmac produces.

Usage: python3 tools/artifact_digests.py

It trains each kind of network (FC with binarize off and on, autoencoder,
CNN) at seeds 0-4 with the paper-default epochs and prints the digest of
each history.csv, checkpoint.txt and schedule.json, of waveform.csv for the
kinds that trace, and of the reconstruction_*.txt and reconstruction_*.pgm
files of the autoencoder. On the seed-0 checkpoints it then runs
`capmac eval --per-glyph 250` at eval seeds 0-3, and `capmac trace` at every
glyph for the kinds that trace, and prints the digests of their stdout,
trace.csv and waveform.csv. Then it trains FC and the autoencoder at seed 0
at a noise level other than the default (sensor.noise_frac = 0.05) and
prints the digests of their history.csv and checkpoint.txt and of the stdout
of `capmac eval` at the evaluation stream's seed, 0 + EVAL_SEED_OFFSET.
It also trains FC and the autoencoder at seed 0 under the global noise
reference (sensor.noise_mode = global) and prints the digests of their
history.csv and checkpoint.txt. Last, it prints the digests of the stdout
of `capmac schedule` (at its defaults and at --rows 7 --cols 9) and of
every file `capmac fixtures` writes.
Run it on two checkouts and diff the outputs to check that a change leaves
every artifact byte-identical. It hashes each file as read back from disk,
never the digests a manifest lists: that read checks `cli.write_artifact`,
the one write path, end to end.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from capmac import cli, dataset, netlab  # noqa: E402

# (label, architecture, extra config overrides)
KINDS = (
    ("fc_classifier", "fc_classifier", ()),
    ("fc_classifier_binarized", "fc_classifier", ("--set", "train.binarize=true")),
    ("autoencoder", "autoencoder", ()),
    ("cnn_classifier", "cnn_classifier", ()),
)
TRACED = ("fc_classifier", "fc_classifier_binarized", "autoencoder")
SEEDS = range(5)
EVAL_SEEDS = range(4)
# (label, architecture) trained at a noise level other than the default.
NOISY = (("fc_classifier", "fc_classifier"), ("autoencoder", "autoencoder"))
NOISE_FRAC = "0.05"
# `capmac schedule` geometries: its defaults, then a non-square array.
SCHEDULES = ((), ("--rows", "7", "--cols", "9"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capmac(*argv: str) -> str:
    """stdout of `capmac argv`; any other exit than 0 is an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise SystemExit(f"capmac {' '.join(argv)} exited {code}")
    return out.getvalue()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        # Relative paths keep the printed paths, and so the stdout digests,
        # free of the temporary directory's name.
        os.chdir(tmp)
        for label, arch, extra in KINDS:
            emit = ["history", "checkpoint", "schedule"]
            if label in TRACED:
                emit.append("waveform")
            if arch == "autoencoder":
                emit.append("reconstruction")
            for seed in SEEDS:
                run = Path(f"{label}_{seed}")
                capmac("train", "--arch", arch, "--seed", str(seed), "--output-dir",
                       str(run), "--emit", ",".join(emit), *extra)
                # The manifest records the software versions, so it is left out.
                for path in sorted(run.iterdir()):
                    if path.name != "manifest.txt":
                        print(f"train {label} seed={seed} {path.name} "
                              f"{sha256(path.read_bytes())}")
        for label, _, _ in KINDS:
            ckpt = f"{label}_0/checkpoint.txt"
            for seed in EVAL_SEEDS:
                stdout = capmac("eval", ckpt, "--per-glyph", "250", "--seed", str(seed))
                print(f"eval {label} eval_seed={seed} stdout {sha256(stdout.encode())}")
        for label in TRACED:
            for glyph in dataset.GLYPH_ORDER:
                out = Path(f"trace_{label}_{glyph.value}")
                stdout = capmac("trace", "--checkpoint", f"{label}_0/checkpoint.txt",
                                "--glyph", glyph.value, "--out", str(out))
                print(f"trace {label} glyph={glyph.value} stdout "
                      f"{sha256(stdout.encode())}")
                for name in ("trace.csv", "waveform.csv"):
                    print(f"trace {label} glyph={glyph.value} {name} "
                          f"{sha256((out / name).read_bytes())}")
        for label, arch in NOISY:
            run = Path(f"{label}_noise{NOISE_FRAC}_0")
            capmac("train", "--arch", arch, "--seed", "0", "--output-dir", str(run),
                   "--emit", "history,checkpoint", "--set", f"sensor.noise_frac={NOISE_FRAC}")
            for name in ("history.csv", "checkpoint.txt"):
                print(f"train {label} noise={NOISE_FRAC} seed=0 {name} "
                      f"{sha256((run / name).read_bytes())}")
            # The evaluation stream of the seed-0 run: the letters of its
            # first epoch's evaluation, scored with its final weights.
            stdout = capmac("eval", str(run / "checkpoint.txt"),
                            "--seed", str(netlab.EVAL_SEED_OFFSET))
            print(f"eval {label} noise={NOISE_FRAC} eval_seed={netlab.EVAL_SEED_OFFSET} "
                  f"stdout {sha256(stdout.encode())}")
        for label, arch in NOISY:
            run = Path(f"{label}_global_0")
            capmac("train", "--arch", arch, "--seed", "0", "--output-dir", str(run),
                   "--emit", "history,checkpoint", "--set", "sensor.noise_mode=global")
            for name in ("history.csv", "checkpoint.txt"):
                print(f"train {label} noise_mode=global seed=0 {name} "
                      f"{sha256((run / name).read_bytes())}")
        for extra in SCHEDULES:
            stdout = capmac("schedule", *extra)
            print(f"schedule {' '.join(extra) or 'default'} stdout "
                  f"{sha256(stdout.encode())}")
        capmac("fixtures", "--out", "fixtures")
        for path in sorted(Path("fixtures").iterdir()):
            print(f"fixtures {path.name} {sha256(path.read_bytes())}")


if __name__ == "__main__":
    main()
