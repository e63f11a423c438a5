"""The library surface the benchmark in perfbench/ calls, run once in process.

One round of the `exact` and `sampling` workloads and every in-process
`cli` kind go through the benchmark's own op runner. A public name or
attribute the benchmark reads that goes missing, or an answer its
oracles reject, fails here before it fails a benchmark run. perfbench/
is only read: its modules are imported without writing bytecode, and
every input file goes to a temporary directory.
"""
import importlib
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _perfbench_modules():
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return [importlib.import_module(name) for name in ("core", "inproc", "inputs", "cli_ops")]
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write


def _tree(path: Path) -> dict[str, int]:
    """Every file and directory under `path` with its mtime, but the run
    records in out/, which only perfbench/run.py writes."""
    return {str(p.relative_to(path)): p.stat().st_mtime_ns for p in path.rglob("*")
            if p.relative_to(path).parts[0] != "out"}


@pytest.fixture(scope="module")
def perfbench():
    before = _tree(PERFBENCH)
    yield _perfbench_modules()
    assert _tree(PERFBENCH) == before, "the test wrote under perfbench/"


def test_one_round_of_every_workload_succeeds(perfbench, tmp_path):
    core, inproc, inputs, cli_ops = perfbench
    rounds = {
        "exact": inproc.exact_round(random.Random("exact:1"), tmp_path, inputs.write_fault_tables(tmp_path)),
        "sampling": inproc.sampling_round(random.Random("sampling:1")),
        "cli": [[op] for op in cli_ops.CliWorkload(ROOT, tmp_path).main_ops(random.Random("main:1"))],
    }
    tracer = core.Tracer(False)
    for name, groups in rounds.items():
        tally = core.Tally()
        for group in groups:
            for op in group:
                core.run_op(op, tally, tracer, None)
        assert tally.attempted > 0, name
        assert (tally.failed, tally.failures) == (0, {}), name
        assert tally.mismatches == [], name
