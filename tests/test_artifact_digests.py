"""Byte identity of every deterministic artifact, checked against a golden file.

tests/golden/artifact_digests.txt holds the output of tools/artifact_digests.py
under a header naming the software that produced it. A change that alters an
artifact on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_artifact_digests.py > tests/golden/artifact_digests.txt

and says which lines changed and why.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.util
import io
import os
import platform
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "artifact_digests.txt"
# The header lines that decide the bytes; the others are recorded for reference.
COMPARED = ("# numpy ", "# blas ")
KERNEL = "# openblas kernel "


def openblas_kernel() -> str:
    """The kernel OpenBLAS picked for this CPU at load time, read from numpy's
    bundled library, or "unknown". np.show_config gives the build target instead."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def software_header() -> list[str]:
    """The header lines: Python, numpy, the BLAS numpy was built with and the
    OpenBLAS kernel it runs. Small matmuls round differently per kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# python {platform.python_version()}",
            f"# numpy {np.__version__}",
            f"# blas {blas['name']} {blas['version']}",
            KERNEL + openblas_kernel()]


def digest_lines() -> list[str]:
    """Run tools/artifact_digests.py in this process and return its lines."""
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "tools" / "artifact_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = io.StringIO()
    cwd = os.getcwd()
    try:  # the tool works inside a temporary directory it changes into
        with contextlib.redirect_stdout(out):
            tool.main()
    finally:
        os.chdir(cwd)
    return out.getvalue().splitlines()


def test_artifacts_match_golden_digests():
    golden = GOLDEN.read_text().splitlines()
    recorded = [line for line in golden if line.startswith(COMPARED)]
    installed = [line for line in software_header() if line.startswith(COMPARED)]
    assert recorded == installed, (
        f"the golden digests were made with {recorded} but {installed} is installed; "
        "artifacts need not be byte-identical across numpy or BLAS builds")
    kernels = (next((line[len(KERNEL):] for line in golden if line.startswith(KERNEL)),
                    "unknown"), openblas_kernel())
    expected = [line for line in golden if not line.startswith("#")]
    got = digest_lines()
    for n, (want, have) in enumerate(zip(expected, got), 1):
        assert have == want, (f"digest line {n} differs:\n  golden: {want}\n  now:    {have}\n"
                              "the golden digests were made under OpenBLAS kernel "
                              f"{kernels[0]}, this process runs {kernels[1]}")
    assert len(got) == len(expected), (f"{len(got)} digest lines, "
                                       f"the golden file has {len(expected)}")


if __name__ == "__main__":
    print("# Output of tools/artifact_digests.py; see tests/test_artifact_digests.py.")
    print("\n".join(software_header() + digest_lines()))
