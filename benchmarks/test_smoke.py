"""Smoke tests of the benchmark itself; not part of the package's test suite.

    python3 -m pytest -q benchmarks/test_smoke.py    # or
    python3 benchmarks/test_smoke.py

Each workload runs at a tiny size through the same code path as a real run,
untraced and traced, and must print every metric `BENCHMARK.json` names,
with its unit. The tracer must leave no wrapper behind, and the benchmark
must refuse to run where the program's sources are missing.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 300


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT)


def _check_workload(name: str, trace: int) -> None:
    proc = _run(["benchmarks/run.py", "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    table = lines[:-1]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and
                   line.split()[2] == m["unit"] for line in table), m["name"]


def test_every_workload_untraced():
    for w in SPEC["workloads"]:
        _check_workload(w["name"], 0)


def test_every_workload_traced():
    for w in SPEC["workloads"]:
        _check_workload(w["name"], 1)


def test_tracer_leaves_no_wrapper():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import graphkt
    import graphkt.cli  # noqa: F401  (loads every module the tracer patches)
    from tracer import Tracer, install

    modules = (graphkt.data, graphkt.graphs, graphkt.model, graphkt.engine,
               graphkt.train, graphkt.metrics, graphkt.model.GrktModel,
               graphkt.model.BatchCache, graphkt.engine.ParameterStore)
    before = [dict(vars(m)) for m in modules]
    callbacks = list(gc.callbacks)
    t = Tracer()
    install(t, graphkt)
    assert len(t.patched()) > 30
    assert graphkt.engine.matmul is not before[3]["matmul"]
    patches = t.patched()
    t.remove()
    Tracer.verify_removed(patches)
    for m, old in zip(modules, before):
        now = vars(m)
        assert set(now) == set(old), m
        assert all(now[k] is old[k] for k in old), m
    assert gc.callbacks == callbacks


def test_refuses_without_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run([*SPEC["command"][1:], "--workload", "desk", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=tmp)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for test in (test_tracer_leaves_no_wrapper, test_refuses_without_program,
                 test_every_workload_untraced, test_every_workload_traced):
        test()
        print(f"ok  {test.__name__}")
