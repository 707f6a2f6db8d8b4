"""perfbench wraps refvae names where their callers look them up, and op outputs'
backward closures: each name must still resolve, and the hooks it uses must keep working."""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from refvae import refcond
from refvae.tensor import Tensor, backward

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


def _conditioned_step(cfg, ref_cfg, params) -> dict[str, bytes]:
    """Leaf gradients of one conditioned decode's forward and backward, as bytes."""
    rng = np.random.default_rng(5)
    z = Tensor(rng.standard_normal((cfg.latent_channels, 3, 2, 2)).astype(np.float32))
    frame = rng.random((3, 4, 4)).astype(np.float32)
    for p in params.values():
        p.grad = None  # as training resets them
        assert p.grad is None
    x_hat = refcond.decode_conditioned_t(z, frame, cfg, ref_cfg, params)
    backward((x_hat * Tensor(rng.standard_normal(x_hat.shape).astype(np.float32))).sum())
    grads = {n: p.grad.tobytes() for n, p in params.items() if p.grad is not None}
    assert {"dec.head.w", "ref.embed0.in.w", "ref.blk0.wq"} <= grads.keys()  # not the encoder's
    return grads


def test_traced_backward_wrappers_run_and_keep_the_leaf_gradients(tiny_cfg, tiny_ref_cfg, tiny_params):
    tracer = _load("tracing").Tracer()
    plain = _conditioned_step(tiny_cfg, tiny_ref_cfg, tiny_params)
    with tracer.patched():  # replaces each fused op output's `_backward` with a timing wrapper
        traced = _conditioned_step(tiny_cfg, tiny_ref_cfg, tiny_params)
    assert traced == plain
    spans = {span[0] for span in tracer.spans}
    assert {f"ops.{op}.bwd" for op in ("conv3d", "upsample", "attention", "rope", "gelu")} <= spans
    assert _conditioned_step(tiny_cfg, tiny_ref_cfg, tiny_params) == plain  # the names are restored
