"""The shipped runs still produce the benchmark's recorded outputs.

``bench/reference.json`` holds the SHA-256 of each benchmark input's
canonical output at every pool seed. Pool member 0 is the shipped
config itself, so its digest pins the seeded results a user gets. Each
input's member 0 runs here serially, through the benchmark's own
``execute`` and ``summarize``; nothing is written under ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
NAME = "_msdoa_bench_workloads"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(NAME, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look their module up in sys.modules, and
    # no bytecode cache is written next to it.
    sys.modules[NAME] = module
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
        sys.dont_write_bytecode = write_bytecode
        yield module
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[NAME]


@pytest.mark.parametrize("name", ["table2_snr", "table1_2d", "table1_ideal_p"])
def test_pool_member_zero_matches_its_reference(workloads, name, tmp_path):
    inp = workloads.INPUTS[name]
    cfg = inp.load(workloads.pool_seed(0))
    raw = workloads.execute(inp, cfg, 1)
    digest = workloads.summarize(inp, cfg, raw, tmp_path).digest
    assert digest == workloads.load_reference()[name]["digests"][0]
