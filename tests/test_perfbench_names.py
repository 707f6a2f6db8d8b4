"""perfbench wraps refvae names where their callers look them up; each must still resolve."""
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(module)
    return module


def test_perfbench_patch_tables_resolve():
    tracing, workloads = _load("tracing"), _load("workloads")
    assert len(tracing.Tracer().patches()) == 37
    assert len(workloads.Probe().patches()) == 4
