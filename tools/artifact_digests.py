"""Print sha256 digests of the deterministic artifacts capmac produces.

Usage: python3 tools/artifact_digests.py

It trains each kind of network (FC with binarize off and on, autoencoder,
CNN) at seeds 0-4 with the paper-default epochs and prints the digest of
each history.csv, checkpoint.txt and schedule.json, of waveform.csv for the
kinds that trace, and of the reconstruction_*.txt and reconstruction_*.pgm
files of the autoencoder. On the seed-0 checkpoints it then runs
`capmac eval --per-glyph 250` at eval seeds 0-3, and `capmac trace` at every
glyph for the kinds that trace, and prints the digests of their stdout,
trace.csv and waveform.csv.
Run it on two checkouts and diff the outputs to check that a change leaves
every artifact byte-identical.
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

from capmac import cli, dataset  # noqa: E402

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


if __name__ == "__main__":
    main()
