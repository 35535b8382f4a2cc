"""The benchmark's workloads in-process: every homotopy cycle entry and one
small instance of each other workload, through its pipeline and its check.
``bench/workloads.py`` is loaded from its file and not changed."""

import importlib.util
import sys
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
spec.loader.exec_module(workloads)
WORKLOADS = workloads.WORKLOADS


class NoTracer:
    """The tracer interface the pipelines call, with no spans."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


INSTANCES = ([("homotopy", i, sizes) for i, sizes in enumerate(WORKLOADS["homotopy"].cycle)]
             + [("transport", 0, {"n": 40, "k": 8}), ("flatnorm", 0, {"n": 8, "kind": "field"}),
                ("flatnorm", 1, {"n": 8, "kind": "staircase"}),
                ("flatnorm", 2, {"n": 8, "kind": "rectangle"}), ("approx", 0, {"count": 80})])


@pytest.mark.parametrize("name, i, sizes", INSTANCES,
                         ids=[f"{name}-{'-'.join(map(str, sizes.values()))}"
                              for name, _, sizes in INSTANCES])
def test_instance_runs_and_checks(name, i, sizes):
    wl = WORKLOADS[name]
    inp = wl.make(1, i, **sizes)
    ok, worst = wl.check(inp, wl.run(inp, NoTracer()))
    assert ok and worst <= 1.0
