"""In-memory span tracing of refvae, installed from outside the package.

Spans come from wrapping public refvae functions where their callers look
them up: a module-level name such as `refvae.vae.conv3d_causal` is replaced
by a wrapper for the duration of a traced unit and restored afterwards.
The program's source is untouched.  For the ops with hand-written backward
kernels the wrapper also wraps the returned tensor's `_backward` closure,
so backward spans nest under the step's `tensor.backward` span.

Every span is kept in memory as [name, tag, parent, start, end, child_time]
with `parent` the index of the enclosing span (-1 for a root).  Self time is
a span's duration minus the time its direct children cover.
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from refvae import checkpoint, metrics, ops, refcond, tensor, training, vae
from refvae.tensor import Tensor

# fused ops: hand-written backward closures get their own `.bwd` span
FUSED = ("conv3d_causal", "upsample_nearest", "attention", "rope_apply", "silu", "gelu")

OP_SPANS = {
    "conv3d_causal": "ops.conv3d",
    "groupnorm": "ops.groupnorm",
    "rmsnorm": "ops.rmsnorm",
    "silu": "ops.silu",
    "gelu": "ops.gelu",
    "linear": "ops.linear",
    "patch_embed": "ops.patch_embed",
    "upsample_causal": "ops.upsample",
    "upsample_nearest": "ops.upsample",
    "attention": "ops.attention",
    "rope_apply": "ops.rope",
}

# (namespace the caller resolves the name in, attribute) -> span name
WRAPPED = [
    *((vae, a) for a in ("conv3d_causal", "groupnorm", "silu", "upsample_causal", "upsample_nearest")),
    *((refcond, a) for a in ("attention", "conv3d_causal", "gelu", "linear", "patch_embed",
                             "rmsnorm", "rope_apply", "silu", "upsample_nearest")),
    (training, "conv3d_causal"),
    (ops, "upsample_nearest"),  # inside upsample_causal
]
LAYER_SPANS = [
    (training, "backward", "tensor.backward"),
    (tensor, "build_tape", "tensor.build_tape"),
    (training, "encode_t", "vae.encode"),
    (metrics, "encode_t", "vae.encode"),
    (training, "decode_baseline_t", "vae.decode_base"),
    (metrics, "decode_baseline_t", "vae.decode_base"),
    (training, "init_vae_params", "vae.init_params"),
    (training, "decode_conditioned_t", "refcond.decode_cond"),
    (metrics, "decode_conditioned_t", "refcond.decode_cond"),
    (training, "init_ref_params", "refcond.init_params"),
    (refcond, "encode_reference", "refcond.encode_reference"),
    (refcond, "stage_forward", "refcond.stage_forward"),
    (training, "loss_recon", "training.loss"),
    (metrics, "clip_metrics", "metrics.clip_metrics"),
    (metrics, "ssim", "metrics.ssim"),
    (metrics, "temporal_consistency_proxy", "metrics.temporal_consistency"),
    (training, "realize", "synthdata.realize"),
    (metrics, "realize", "synthdata.realize"),
    (metrics, "encoder_fingerprint", "checkpoint.fingerprint"),
    (checkpoint, "encoder_fingerprint", "checkpoint.fingerprint"),
]


def shape_tag(shape) -> str:
    return "x".join(str(n) for n in shape)


def conv_flop(x, kernel, stride=(1, 1, 1)) -> int:
    """Multiply-adds x2 of one causal conv forward, from shapes alone."""
    _, t_in, h_in, w_in = x.shape
    cout, cin, kt, kh, kw = kernel.shape
    st, sh, sw = stride
    n_out = ((t_in - 1) // st + 1) * ((h_in - 1) // sh + 1) * ((w_in - 1) // sw + 1)
    return 2 * n_out * cout * cin * kt * kh * kw


class Tracer:
    """Span and counter store; `patched()` installs the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, tag, self.stack[-1] if self.stack else -1, perf_counter(), 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[4] = end
        self.stack.pop()
        if span[2] >= 0:
            self.spans[span[2]][5] += end - span[3]

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        idx = self.open(name, tag)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, name, tag_of=None, after=None, backward=False):
        def wrapper(*args, **kwargs):
            tag = tag_of(*args, **kwargs) if tag_of else None
            idx = self.open(name + ".fwd" if name.startswith("ops.") else name, tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, out)
            if backward and isinstance(out, Tensor) and out._backward is not None:
                out._backward = self._wrap_backward(out._backward, name + ".bwd", tag, args, kwargs)
            return out
        return wrapper

    def _wrap_backward(self, bw, name, tag, args, kwargs):
        def wrapper(g):
            idx = self.open(name, tag)
            try:
                bw(g)
            finally:
                self.close(idx)
            if name == "ops.conv3d.bwd":  # one forward's work per input that needs a gradient
                x, kernel = args[0], args[1]
                self.counts["ops.conv3d.flop"] += conv_flop(*args, **kwargs) * (
                    x.requires_grad + kernel.requires_grad)
        return wrapper

    def _conv_after(self, args, kwargs, out):
        self.counts["ops.conv3d.calls"] += 1
        self.counts["ops.conv3d.flop"] += conv_flop(*args, **kwargs)

    def _count_after(self, key):
        def after(args, kwargs, out):
            self.counts[key] += 1
        return after

    def _tape_after(self, args, kwargs, out):
        self.counts["tensor.tape_nodes"] += len(out)

    def _step(self, fn):
        def step(opt, base_lr):
            with self.span("training.optimizer"):
                return fn(opt, base_lr)
        return step

    def patches(self) -> list[tuple[object, str, object]]:
        out = []
        for mod, attr in WRAPPED:
            fn = getattr(mod, attr)
            name = OP_SPANS[attr]
            tag_of = (lambda x, *a, **k: shape_tag(x.shape)) if attr == "conv3d_causal" else None
            after = {"conv3d_causal": self._conv_after,
                     "rope_apply": self._count_after("ops.rope.calls")}.get(attr)
            out.append((mod, attr, self._wrap(fn, name, tag_of, after, backward=attr in FUSED)))
        for mod, attr, name in LAYER_SPANS:
            fn = getattr(mod, attr)
            tag_of = (lambda video, ref, s, *a, **k: f"s{s}") if attr == "stage_forward" else None
            after = {"build_tape": self._tape_after}.get(attr)
            if mod is training and attr == "encode_t":
                after = self._count_after("training.encodes")
            out.append((mod, attr, self._wrap(fn, name, tag_of, after)))
        out.append((training.AdamW, "step", self._step(training.AdamW.step)))
        return out

    @contextlib.contextmanager
    def patched(self):
        with patched(self.patches()):
            yield


@contextlib.contextmanager
def patched(table):
    """Set module/class attributes for the duration of the block, then restore them."""
    saved = []
    try:
        for owner, attr, new in table:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def self_times(spans) -> tuple[dict, dict]:
    """Summed self time by span name, and by (name, tag) for tagged spans."""
    by_name: dict[str, float] = defaultdict(float)
    by_tag: dict[tuple, float] = defaultdict(float)
    for name, tag, _, t0, t1, child in spans:
        own = (t1 - t0) - child
        by_name[name] += own
        if tag is not None:
            by_tag[(name, tag)] += own
    return by_name, by_tag
