"""Byte identity of every deterministic artifact, checked against a golden file.

tests/golden/artifact_digests.txt holds the output of tools/artifact_digests.py
under a header naming the software that produced it. A change that alters an
artifact on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_artifact_digests.py > tests/golden/artifact_digests.txt

and says which lines changed and why.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import platform
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "artifact_digests.txt"


def software_header() -> list[str]:
    """The header lines: Python, numpy and the BLAS numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# python {platform.python_version()}",
            f"# numpy {np.__version__}",
            f"# blas {blas['name']} {blas['version']}"]


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
    # Only numpy and its BLAS decide the bytes; Python is recorded for reference.
    recorded = [line for line in golden if line.startswith(("# numpy ", "# blas "))]
    installed = software_header()[1:]
    assert recorded == installed, (
        f"the golden digests were made with {recorded} but {installed} is installed; "
        "artifacts need not be byte-identical across numpy or BLAS builds")
    expected = [line for line in golden if not line.startswith("#")]
    got = digest_lines()
    for n, (want, have) in enumerate(zip(expected, got), 1):
        assert have == want, f"digest line {n} differs:\n  golden: {want}\n  now:    {have}"
    assert len(got) == len(expected), (f"{len(got)} digest lines, "
                                       f"the golden file has {len(expected)}")


if __name__ == "__main__":
    print("# Output of tools/artifact_digests.py; see tests/test_artifact_digests.py.")
    print("\n".join(software_header() + digest_lines()))
