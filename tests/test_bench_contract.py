"""The names bench/workloads.py calls in capmac still exist and still pass its
own output checks: one round of the readout and evaluate workloads, run in
process. A deleted or renamed name fails here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["readout", "evaluate"])
def test_one_round_passes_the_workload_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path / "setup")
    workload.setup()
    records = []
    for i, op in enumerate(workload.cycle()[0]):
        out = tmp_path / f"op{i:03d}"
        out.mkdir()
        records.append(workloads.Record(op, 0.0, 0.0, out, workload.run(op, out)))
    refs = {rec.op.key: rec for rec in records}
    workload.check(records, refs)
    assert records
    assert [rec.error for rec in records] == [None] * len(records)
