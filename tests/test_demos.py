"""Each demo runs to completion: a demo that imports a deleted public name, or
fails on the way, exits nonzero or prints a traceback.  The benchmark's
tracer and BLAS baseline still find every isturm name they use, and one round
of each benchmark workload passes its own check."""
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isturm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_benchmark_names_resolve():
    # perfbench/tracing.py wraps each TARGETS (module, attribute) and
    # perfbench/blas1.py calls solve_on_grid by keyword; a name moved away
    # would break `perfbench/run.py --trace 1` only at run time
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    sd = isturm.spectral_data_from_json(isturm.spectral_data_to_json(
        isturm.ModelData(0).spectral_data(4))).truncated(4)
    md = isturm.ModelData(sd.m1)
    ctx = isturm.MainEquationContext(sd, md, 4)
    inspect.signature(isturm.solve_on_grid).bind(sd, md, 4, n_x=33, ctx=ctx)


def _load_bench(monkeypatch, name):
    """perfbench/<name>.py as module `name`, registered until the test ends."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_pass_their_checks(tmp_path, monkeypatch):
    # perfbench/workloads.py reads isturm's return values and CLI output, so a
    # dropped key would first show as a failed benchmark run: run each
    # workload's operations once at seed 0 and apply their own checks
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.chdir(tmp_path)
    _load_bench(monkeypatch, "oracle")
    problems = _load_bench(monkeypatch, "problems")
    workloads = _load_bench(monkeypatch, "workloads")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        params = problems.draw(workload, 0)
        for op in workloads.prepare(workload, params, tmp_path):
            got = op.check(op.call())
            assert got["ok"], (workload, op.name, got["why"])
