"""The names bench/workloads.py calls in capmac still exist and still pass its
own output checks: one round of the readout and evaluate workloads and two of
the train workload, run in process. A deleted or renamed name fails here, not
only in a benchmark run."""

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


def _run_round(workloads, workload, out: Path) -> list:
    """Run the ops of the workload's first round, each in a directory of its own."""
    records = []
    for i, op in enumerate(workload.cycle()[0]):
        op_out = out / f"op{i:03d}"
        op_out.mkdir(parents=True)
        records.append(workloads.Record(op, 0.0, 0.0, op_out, workload.run(op, op_out)))
    return records


@pytest.mark.parametrize("name", ["readout", "evaluate"])
def test_one_round_passes_the_workload_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path / "setup")
    workload.setup()
    records = _run_round(workloads, workload, tmp_path)
    refs = {rec.op.key: rec for rec in records}
    workload.check(records, refs)
    assert records
    assert [rec.error for rec in records] == [None] * len(records)


def test_train_round_replays_its_references(workloads, tmp_path):
    # The first round is the references, as the un-timed round before the
    # bench's loop; the second replays the same seeds and must match them.
    workload = workloads.WORKLOADS["train"](1, tmp_path / "setup")
    workload.setup()
    refs = _run_round(workloads, workload, tmp_path / "round0")
    records = refs + _run_round(workloads, workload, tmp_path / "round1")
    workload.check(records, {rec.op.key: rec for rec in refs})
    assert len(records) == 2 * len(workloads.TRAIN_RUNS)
    assert [rec.error for rec in records] == [None] * len(records)
