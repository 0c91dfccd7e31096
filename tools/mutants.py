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
about 16 minutes on a 2-core host; it is not part of the test suite itself.
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
     "np.subtract(m, lr * g,", "np.add(m, lr * g,"),
    ("FC gradient divided by S", "netlab.py",
     "grad = (p - labels).swapaxes(-1, -2) @ x / (x.shape[-1] * params.c0)",
     "grad = (p - labels).swapaxes(-1, -2) @ x / (x.shape[-2] * x.shape[-1] * params.c0)"),
    ("reconstruction classified on induced caps", "cli.py",
     "netlab.classify_series_bits(c_rec, params)", "netlab.classify_series_bits(ci_rec, params)"),
    ("naive sigmoid", "netlab.py",
     "    d = np.exp(np.negative(e, out=e), out=e) + 1.0\n"
     "    np.copyto(e, 1.0, where=pos)\n"
     "    e /= d\n",
     "    e = 1.0 / (1.0 + np.exp(-z))\n"),
    ("interleaved glyph mean", "netlab.py",
     "values.reshape(*values.shape[:-2], dataset.NUM_GLYPHS, -1, values.shape[-1])",
     "values.reshape(*values.shape[:-2], -1, dataset.NUM_GLYPHS, values.shape[-1])"
     ".swapaxes(-3, -2)"),
    ("FC score ignores binarize", "netlab.py",
     'volts, _ = _fc_pass(m["weights"], x, params, binarize)',
     'volts, _ = _fc_pass(m["weights"], x, params, False)'),
    ("array inputs scaled by 1+2e-16", "arrays.py",
     "c_i.reshape(c_i.shape[:-2] + (-1,)), params.c0, out)",
     "c_i.reshape(c_i.shape[:-2] + (-1,)), params.c0, out) * (1 + 2e-16)"),
    ("conv array inputs scaled by 1+2e-16", "arrays.py",
     "gather_windows(series_capacitance(c_i, params.c0),",
     "gather_windows(series_capacitance(c_i, params.c0) * (1 + 2e-16),"),
    ("CHARGE phase raises CON", "device.py",
     '("charge", (0, 1, 0, 0))', '("charge", (0, 1, 1, 0))'),
    ("FC wiring written column-major", "metrics.py",
     "pixels = [[r, c] for r in range(topo.rows) for c in range(topo.cols)]",
     "pixels = [[r, c] for c in range(topo.cols) for r in range(topo.rows)]"),
    ("conv topology forgets its kernel", "arrays.py",
     "return ArrayTopology(rows, cols, rows - kernel + 1, kernel)",
     "return ArrayTopology(rows, cols, rows - kernel + 1)"),
    ("ADC count one per row", "metrics.py",
     '"adc_count": topo.banks,', '"adc_count": topo.rows,'),
    ("latency ignores the step count", "metrics.py",
     '"latency_ns": len(PHASES) * DEFAULT_PHASE_NS * steps,',
     '"latency_ns": len(PHASES) * DEFAULT_PHASE_NS,'),
    ("charge_energy reads the TRANSFER phase", "metrics.py",
     "abs(charge[1] * volts[1])", "abs(charge[2] * volts[2])"),
    ("finiteness check of gradients and weights dropped", "netlab.py",
     "(losses, *stack.values(), *checked)", "(losses, *checked)"),
    ("finiteness check of eval outputs dropped", "netlab.py",
     "(losses, *stack.values(), *checked)", "(losses, *stack.values())"),
    ("finiteness check of the loss dropped", "netlab.py",
     "(losses, *stack.values(), *checked)", "(*stack.values(), *checked)"),
    ("divergence warns", "netlab.py",
     'with np.errstate(all="ignore"):', "with np.errstate():"),
    ("checkpoint seed unbounded", "netlab.py",
     '        check_bound("seed", self.seed)\n', ""),
    ("checkpoint epoch unbounded", "netlab.py",
     '        check_bound("epochs", self.epoch, "epoch")\n', ""),
    ("checkpoint of the stepped, not the last good, matrices", "netlab.py",
     "s[good - 1].copy() for name, s in stack.items()} if good else mats",
     "s[-1].copy() for name, s in stack.items()}"),
    ("the last bad epoch of a chunk taken instead of the first", "netlab.py",
     "good = count if finite.all() else int(finite.argmin())",
     "good = count if finite.all() else count - 1 - int(finite[::-1].argmin())"),
    ("each epoch scored with the previous epoch's matrices", "netlab.py",
     "architecture, stack, e_idx, e_x,",
     "architecture, {name: np.concatenate([mats[name][None], s[:-1]])\n"
     "                               for name, s in stack.items()}, e_idx, e_x,"),
    # Stacked only: an unstacked call has one slice, so only stacked calls see it.
    ("autoencoder loss averaged over every slice at once", "netlab.py",
     "np.add.reduce(err ** 2, axis=(-2, -1)) / (err.shape[-2] * err.shape[-1])",
     "np.add.reduce(err ** 2, axis=None) / err.size"),
    ("every epoch of a chunk scored on its first step's output", "netlab.py",
     "                outs[k] = out\n", "                outs[k] = outs[0] if k else out\n"),
    ("softmax without the max shift", "netlab.py",
     "np.exp(e := u - np.maximum.reduce(u, axis=-1, keepdims=True), out=e)",
     "np.exp(e := u - 0.0, out=e)"),
    # A run at doubled capacitances kills these; every test at SensorParams() misses them.
    ("FC gradient at a fixed c0 of 72 pF", "netlab.py",
     "x.shape[-1] * params.c0", "x.shape[-1] * 72.0"),
    ("autoencoder step at a fixed c0 of 72 pF", "netlab.py",
     "    c0 = params.c0\n", "    c0 = 72.0\n"),
    ("the final partial chunk dropped", "netlab.py",
     "for start in range(0, config.epochs, chunk):",
     "for start in range(0, config.epochs - config.epochs % chunk, chunk):"),
    ("strict threshold in classify_series_bits", "netlab.py",
     "bits = (c_rec_series >= (c_h + c_l) / 2)", "bits = (c_rec_series > (c_h + c_l) / 2)"),
    ("noise clamp skipped", "device.py",
     "        np.maximum(out, NOISE_FLOOR_PF, out=out)\n", ""),
    ("letter table ignores noise_mode", "dataset.py",
     'params.c_ih if params.noise_mode == "global" else clean', "clean"),
    ("letter table at resolution 3 for every resolution", "dataset.py",
     "encode_capacitive(GRIDS[resolution], params)", "encode_capacitive(GRIDS[3], params)"),
    ("window index keyed without cols", "arrays.py",
     "index = _window_index(*mat_batch.shape[-2:], kernel)",
     "rows, cols = mat_batch.shape[-2:]\n"
     "    index = _window_index(rows, gather_windows.__dict__.setdefault((rows, kernel), cols),"
     " kernel)"),
    ("training and eval streams swapped", "netlab.py",
     "    rng = np.random.default_rng(config.seed)\n"
     "    erng = np.random.default_rng(config.seed + EVAL_SEED_OFFSET)\n",
     "    erng = np.random.default_rng(config.seed)\n"
     "    rng = np.random.default_rng(config.seed + EVAL_SEED_OFFSET)\n"),
    ("eval letters interleaved", "netlab.py",
     "idx = np.arange(dataset.NUM_GLYPHS).repeat(per_glyph)",
     "idx = np.tile(np.arange(dataset.NUM_GLYPHS), per_glyph)"),
    ("later chunks reuse the first chunk's eval normals", "netlab.py",
     "    if params.noise_frac:\n        rng.standard_normal(out=c_i)\n",
     "    if params.noise_frac and (out is None or eval_letters.__dict__.setdefault(\n"
     "            id(c_i.base), c_i) is c_i):\n        rng.standard_normal(out=c_i)\n"),
    ("nearest-glyph table ties to the highest glyph", "netlab.py",
     "!= pats).sum(-1).argmin(-1)", "!= pats).sum(-1)[:, ::-1].argmin(-1) * -1 + 3"),
    ("trace rows stamped one phase late", "device.py",
     "{k * DEFAULT_PHASE_NS!r}", "{(k + 1) * DEFAULT_PHASE_NS!r}"),
    ("stacked CNN kernel gradient flattened", "netlab.py",
     '    grad_k = grad_k[..., None, :] if m["kernel"].ndim > 2 else grad_k\n', ""),
    ("TRANSFER volts written as q, not q/c0", "device.py",
     "v, q / c0, u_sum", "v, q, u_sum"),
    ("diverged run drops its checkpoint", "cli.py",
     "        if history.checkpoint is not None:\n"
     '            emit.append("checkpoint")\n', ""),
    ("diverged run exits 0", "cli.py",
     "if diverged_at is not None:\n        print(", "if False:\n        print("),
    ("non-finite score not recorded as divergence", "netlab.py",
     "history.diverged_at = start + good + 1", "pass"),
    ("diverged run trains on", "netlab.py",
     "            history.diverged_at = start + good + 1\n            break\n",
     "            history.diverged_at = start + good + 1\n"),
    ("training draws at SensorParams() instead of params", "netlab.py",
     "dataset.letter_batches(count, config.batch_size, params, rng, spec.rows)",
     "dataset.letter_batches(count, config.batch_size, SensorParams(), rng, spec.rows)"),
    ("emit items kept with their spaces", "cli.py",
     "e.strip() for e", "e for e"),
    ("--config byte-order mark kept", "cli.py",
     '"utf-8-sig"', '"utf-8"'),
    ("main maps only OSError refusals to exit 2", "cli.py",
     "except (ValueError, OSError) as exc:", "except OSError as exc:"),
    ("every refusal is a usage error", "cli.py",
     'kind = "config" if args.command == "train" else "usage"', 'kind = "usage"'),
    ("a refusal exits 1", "cli.py",
     "return EXIT_CONFIG", "return EXIT_CLOSED_STDOUT"),
    ("fc_forward takes values unchecked", "arrays.py",
     "    check_weight_volts(v)\n", ""),
    ("conv_forward takes values unchecked", "arrays.py",
     "    check_weight_volts(k)\n", ""),
    ("mac_phases takes values unchecked", "device.py",
     "        raise ValueError(\"capacitances must be positive\")\n    check_weight_volts(v)\n",
     "        pass\n"),
    ("zero c0 accepted", "device.py",
     "0 < (c0 := float(c0)) < math.inf", "0 <= (c0 := float(c0)) < math.inf"),
    ("zero capacitance accepted", "device.py",
     "float(np.minimum.reduce(cs, initial=np.inf)) > 0",
     "float(np.minimum.reduce(cs, initial=np.inf)) >= 0"),
    ("MAC-cycle guard misses overflow", "device.py",
     "\n            and 2 * float(np.maximum.reduce(cs, initial=0.0)) * len(cs) / min(c0, 1)"
     " < math.inf", ""),
    ("MAC-cycle guard without rounding headroom", "device.py",
     "and 2 * float(np.maximum.reduce(cs,", "and float(np.maximum.reduce(cs,"),
    ("series formula takes a zero c0", "device.py",
     "(c0f := float(c0)) > 0 and lo * c0f > 0", "(c0f := float(c0)) >= 0 and lo * c0f >= 0"),
    ("series formula takes a zero capacitance", "device.py",
     "lo * c0f > 0", "lo * c0f >= 0"),
    ("series guard misses overflow", "device.py",
     " and hi * c0f < math.inf", ""),
    # Boundary mutants: each refuses a value at the bound its message accepts.
    ("16x16 bitmap refused", "cli.py",
     "max(bits.shape) > 16", "max(bits.shape) >= 16"),
    ("eval --letters 1 refused", "netlab.py",
     "least <= value <= most", "least < value <= most"),
    ("eval --letters MAX_DRAW refused", "netlab.py",
     "least <= value <= most", "least <= value < most"),
    ("noisy_letters draw of MAX_DRAW refused", "dataset.py",
     "1 <= letters <= MAX_DRAW", "1 <= letters < MAX_DRAW"),
    ("c_ih at MAX_CAPACITANCE_RATIO * c0 refused", "device.py",
     "self.c_ih > MAX_CAPACITANCE_RATIO * self.c0",
     "self.c_ih >= MAX_CAPACITANCE_RATIO * self.c0"),
    # The manifest lists the digest of the bytes written, not of other bytes.
    ("artifact digest of other bytes than those written", "cli.py",
     "hashlib.sha256(data)", 'hashlib.sha256(data + b"\\n")'),
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
            # Loading hypothesis's failure-patch module at start-up emits its libcst
            # DeprecationWarning there, not in a failing test under filterwarnings("error"),
            # where it turned into an INTERNALERROR (exit 3).
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "-p", "hypothesis.extra._patching",
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
