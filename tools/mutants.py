"""Mutation check: does the test suite catch a fixed list of source faults?

Usage: python3 tools/mutants.py [NAME ...]

Each mutant is one string replacement in one module of src/capmac: the
hand-written list MUTANTS, then one mutant per `raise` statement, derived from
the source's syntax tree, that replaces the statement by `pass`. For each
one (or only those named), the script copies src/, tests/, bench/, tools/
and pyproject.toml into a temporary directory, applies the replacement
there, runs `python -m pytest -x -q` in the copy and prints `killed` when a
test fails and `survived` when every test passes. tests/test_mutants.py is
left out of those runs: it checks that each mutant's text occurs once, so it
would fail on every mutated copy. The checkout is never modified.
A mutant whose original text no longer occurs exactly once is reported as
`stale`. The unmutated copy is tested first and must pass. The exit status is
0 only when every mutant was killed.

Each mutant costs up to one run of the test suite, so the whole list takes
about 15 minutes on a 2-core host; it is not part of the test suite itself.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "tools", "pyproject.toml")
# A mutant that makes the suite hang counts as killed after this many seconds.
TIMEOUT_S = 600

# (name, module under src/capmac, original text, mutated text)
MUTANTS = (
    ("gradient sign flipped", "netlab.py",
     "m - lr * g for", "m + lr * g for"),
    ("FC gradient divided by S", "netlab.py",
     "grad = (p - labels).T @ x / (x.shape[1] * params.c0)",
     "grad = (p - labels).T @ x / (x.shape[0] * x.shape[1] * params.c0)"),
    ("reconstruction classified on induced caps", "cli.py",
     "netlab.classify_series_bits(c_rec, params)", "netlab.classify_series_bits(ci_rec, params)"),
    ("naive sigmoid", "netlab.py",
     "out = np.where(z >= 0, 1.0, e) / (1.0 + e)",
     "out = 1.0 / (1.0 + np.exp(-z))"),
    ("interleaved glyph mean", "netlab.py",
     "values.reshape(dataset.NUM_GLYPHS, -1, values.shape[-1])",
     "values.reshape(-1, dataset.NUM_GLYPHS, values.shape[-1]).swapaxes(0, 1)"),
    ("FC score ignores binarize", "netlab.py",
     'volts, _ = _fc_pass(m["weights"], x, params, binarize)',
     'volts, _ = _fc_pass(m["weights"], x, params, False)'),
    ("array inputs scaled by 1+2e-16", "arrays.py",
     "cs = series_capacitance(c_i, params.c0)\n",
     "cs = series_capacitance(c_i, params.c0) * (1 + 2e-16)\n"),
    ("CHARGE phase raises CON", "device.py",
     '("charge", (0, 1, 0, 0))', '("charge", (0, 1, 1, 0))'),
    ("FC wiring written column-major", "metrics.py",
     "pixels = [[r, c] for r in range(topo.rows) for c in range(topo.cols)]",
     "pixels = [[r, c] for c in range(topo.cols) for r in range(topo.rows)]"),
    ("conv topology forgets its kernel", "arrays.py",
     "return ArrayTopology(rows, cols, rows - kernel + 1, kernel)",
     "return ArrayTopology(rows, cols, rows - kernel + 1)"),
    ("FC report counts one bank per row", "metrics.py",
     '"adc_count": topo.banks,\n            "step_count": 1,',
     '"adc_count": topo.rows,\n            "step_count": 1,'),
    ("ADC count one per row", "metrics.py",
     '"adc_count": topo.banks,\n            "step_count": steps,',
     '"adc_count": topo.rows,\n            "step_count": steps,'),
    ("latency ignores the step count", "metrics.py",
     '"latency_ns": len(PHASES) * DEFAULT_PHASE_NS * cycles,',
     '"latency_ns": len(PHASES) * DEFAULT_PHASE_NS,'),
    ("charge_energy reads the TRANSFER phase", "metrics.py",
     "abs(charge[1] * volts[1])", "abs(charge[2] * volts[2])"),
    ("finiteness check of gradients and weights dropped", "netlab.py",
     "            _check_finite(epoch, history, loss, *grads, *stepped.values())\n", ""),
    ("finiteness check of eval outputs dropped", "netlab.py",
     "            _check_finite(epoch, history, loss, *checked)\n", ""),
    ("checkpoint seed unbounded", "netlab.py",
     '        check_bound("seed", self.seed)\n', ""),
    ("checkpoint epoch unbounded", "netlab.py",
     '        check_bound("epochs", self.epoch, "epoch")\n', ""),
    ("checkpoint of the stepped, not the last good, matrices", "netlab.py",
     "            stepped = {name:", "            mats = stepped = {name:"),
    ("strict threshold in classify_series_bits", "netlab.py",
     "bits = (c_rec_series >= (c_h + c_l) / 2)", "bits = (c_rec_series > (c_h + c_l) / 2)"),
    ("noise clamp skipped", "device.py",
     "        np.maximum(out, NOISE_FLOOR_PF, out=out)\n", ""),
    ("letter table ignores noise_mode", "dataset.py",
     'np.full_like(clean, c_ih) if noise_mode == "global" else clean', "clean"),
    ("letter table at resolution 3 for every resolution", "dataset.py",
     "np.where(GRIDS[resolution] > 0, c_ih, c_il)", "np.where(GRIDS[3] > 0, c_ih, c_il)"),
    ("window index keyed without cols", "arrays.py",
     "_window_index(rows, cols, kernel)",
     "_window_index(rows, gather_windows.__dict__.setdefault((rows, kernel), cols), kernel)"),
    ("training and eval streams swapped", "netlab.py",
     "    rng = np.random.default_rng(config.seed)\n"
     "    erng = np.random.default_rng(config.seed + EVAL_SEED_OFFSET)\n",
     "    erng = np.random.default_rng(config.seed)\n"
     "    rng = np.random.default_rng(config.seed + EVAL_SEED_OFFSET)\n"),
    ("eval letters interleaved", "netlab.py",
     "idx = np.repeat(np.arange(dataset.NUM_GLYPHS), per_glyph)",
     "idx = np.tile(np.arange(dataset.NUM_GLYPHS), per_glyph)"),
    ("diverged run drops its checkpoint", "cli.py",
     "        if history.checkpoint is not None:\n"
     '            emit.append("checkpoint")\n', ""),
    ("training draws at SensorParams() instead of params", "netlab.py",
     "        c_i = dataset.noisy_letters(idx, params, rng, model.spec.rows)\n",
     "        c_i = dataset.noisy_letters(idx, SensorParams(), rng, model.spec.rows)\n"),
    ("emit items kept with their spaces", "cli.py",
     "e.strip() for e", "e for e"),
    ("--config byte-order mark kept", "cli.py",
     '"utf-8-sig"', '"utf-8"'),
)


def raise_mutants() -> list[tuple[str, str, str, str]]:
    """One mutant per `raise` statement under src/capmac, in the form of
    MUTANTS: the statement replaced by `pass`. The original text is the
    statement's lines, extended upward until it occurs once in its module."""
    found = []
    for path in sorted((ROOT / "src" / "capmac").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        raises = [n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Raise)]
        for node in sorted(raises, key=lambda n: n.lineno):
            first, last = node.lineno - 1, node.end_lineno
            # Column offsets count UTF-8 bytes.
            head = lines[first].encode()[:node.col_offset].decode()
            tail = lines[last - 1].encode()[node.end_col_offset:].decode()
            start = first
            while text.count("".join(lines[start:last])) != 1:
                start -= 1
            found.append((f"raise -> pass at {path.name}:{node.lineno}", path.name,
                          "".join(lines[start:last]),
                          "".join(lines[start:first]) + head + "pass" + tail))
    return found


def run_mutant(module: str | None = None, old: str = "", new: str = "") -> str:
    """Apply one mutant to a fresh copy of the checkout and run the tests
    there: 'killed', 'survived' or 'stale'. With no module the copy is tested
    unmutated."""
    with tempfile.TemporaryDirectory(prefix="capmac-mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, tmp / name)
        if module is not None:
            path = tmp / "src" / "capmac" / module
            text = path.read_text()
            if text.count(old) != 1:
                return "stale"
            path.write_text(text.replace(old, new))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--ignore", str(tmp / "tests" / "test_mutants.py")],
                cwd=tmp, env={**os.environ, "PYTHONPATH": str(tmp / "src")},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
        # pytest exits 1 when a test failed; other codes mean it could not run.
        if proc.returncode not in (0, 1):
            raise SystemExit(f"pytest exited {proc.returncode} for {module}")
        return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    everything = MUTANTS + tuple(raise_mutants())
    chosen = [m for m in everything if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in everything}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    # Without this, a copy that fails for another reason kills every mutant.
    if run_mutant() != "survived":
        raise SystemExit("the tests fail on the unmutated copy")
    results = []
    for name, module, old, new in chosen:
        t0 = time.perf_counter()
        result = run_mutant(module, old, new)
        results.append(result)
        print(f"{result:8s} {time.perf_counter() - t0:6.1f} s  {module}: {name}",
              flush=True)
    killed = results.count("killed")
    print(f"{killed}/{len(results)} mutants killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
