#!/usr/bin/env python3
"""refvae benchmark: pretrain, finetune and swap_eval workloads.

One workload, one process:

    python3 perfbench/run.py --workload pretrain --seed 3 --seconds 32 --trace 0

prints every end-to-end metric with its unit (or, with --trace 1, every
per-layer metric), writes a results file under perfbench/results/, and
ends with one JSON line {"correct", "attempted", "failed", "metrics"}.

All workloads, each in its own process, then one traced run of each:

    python3 perfbench/run.py --repeats 3 --label mybranch

writes perfbench/results/bench-<label>.json, which perfbench/compare.py
diffs against another such file.  See perfbench/README.md for what each
workload and metric is for.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
# One BLAS thread: at 32x64 the GEMMs are too small for a second thread to
# pay (measured: same step time, twice the CPU), and one thread is steadier
# on a shared host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy loads BLAS

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np  # noqa: E402
    import refvae  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import refvae from {ROOT / 'src'}: {exc}")
if Path(refvae.__file__).resolve().parent.parent != (ROOT / "src").resolve():
    sys.exit(f"perfbench: refvae resolved to {refvae.__file__}, not this checkout's src/")

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_UNITS = 2  # determinism check needs two; a traced run needs one untraced and one traced

# -- environment ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "workload_seed": seed,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# -- one workload in this process ---------------------------------------------------


def _summarise(name: str, samples: list[float], out: dict) -> None:
    """p50, the sample count, and the highest percentile with ten samples beyond it."""
    if not samples:
        return
    out[f"{name}.p50"] = statistics.median(samples)
    out[f"{name}.n"] = len(samples)
    if len(samples) >= 20:
        q = int(100 * (1 - 10 / len(samples)))
        out[f"{name}.p{q}"] = statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(wl_name: str, setup_s: float, units: list, probe_lists: dict,
               attempted: int, failed: int) -> dict:
    steps = [(f, ms) for u in units for f, ms in u.intervals]
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "frames_per_s": sum(u.frames for u in units) / sum(u.wall_s for u in units),
        "failed_frac": failed / attempted,
    }
    long_units = [ms for f, ms in steps if f == workloads.FRAMES]
    _summarise("unit_ms_17f", long_units, out)
    if wl_name == "swap_eval":
        _summarise("clip_ms", long_units, out)
        _summarise("encode_ms", probe_lists["encode_ms"], out)
        _summarise("decode_cond_ms", probe_lists["decode_cond_ms"], out)
        out["delta_psnr_db"] = units[0].output
    else:
        _summarise("step_ms_5f", [ms for f, ms in steps if f == 5], out)
        _summarise("step_ms_17f", long_units, out)
        out["loss_final"] = units[0].output
    return out


def per_layer(wl_name: str, tracer, traced: list, untraced: list) -> dict:
    by_name, by_tag = tracing.self_times(tracer.spans)
    items = sum(u.items for u in traced)  # steps or clips
    wall = sum(u.wall_s for u in traced)
    out: dict[str, float] = {}
    for name, own in by_name.items():
        base, _, kind = name.rpartition(".")
        key = f"{base}.{kind}_ms" if kind in ("fwd", "bwd") else f"{name}_ms"
        out[key] = own * 1e3 / items
    for (name, tag), own in by_tag.items():
        base, _, kind = name.rpartition(".")
        key = f"{base}.{kind}_ms.{tag}" if kind in ("fwd", "bwd") else f"{name}_ms.{tag}"
        out[key] = own * 1e3 / items
    calls = {n: sum(1 for s in tracer.spans if s[0] == n) for n in ("checkpoint.save", "checkpoint.load")}
    for n, count in calls.items():
        out[f"{n}_ms"] = by_name.get(n, 0.0) * 1e3 / count if count else 0.0
    ckpt_calls = sum(u.extra["ckpt_calls"] for u in traced)
    out["checkpoint.bytes"] = sum(u.extra["ckpt_bytes"] for u in traced) / ckpt_calls if ckpt_calls else 0.0

    counts = tracer.counts
    conv_s = by_name.get("ops.conv3d.fwd", 0.0) + by_name.get("ops.conv3d.bwd", 0.0)
    out["ops.conv3d.calls"] = counts["ops.conv3d.calls"] / items
    out["ops.conv3d.gflop"] = counts["ops.conv3d.flop"] / 1e9 / items
    out["ops.conv3d.gflops_rate"] = counts["ops.conv3d.flop"] / 1e9 / conv_s if conv_s else 0.0
    out["ops.rope.calls"] = counts["ops.rope.calls"] / items
    out["tensor.tape_nodes"] = counts["tensor.tape_nodes"] / items
    if wl_name == "finetune":
        out["training.latent_cache_hit_ratio"] = 1.0 - counts["training.encodes"] / items
    forward = ("vae.encode", "vae.decode_base", "refcond.decode_cond")
    loops = {i for i, s in enumerate(tracer.spans) if s[0] == "training.loop"}
    out["training.forward_ms"] = sum(
        s[4] - s[3] for s in tracer.spans if s[0] in forward and s[2] in loops) * 1e3 / items

    spanned = sum(s[4] - s[3] for s in tracer.spans if s[2] < 0)
    out["trace.wall_ms"] = wall * 1e3 / items
    out["trace.unaccounted_ms"] = (wall - spanned) * 1e3 / items
    out["trace.spans"] = len(tracer.spans) / items
    t_traced = statistics.median(u.wall_s for u in traced)
    t_plain = statistics.median(u.wall_s for u in untraced)
    out["trace.overhead_pct"] = 100.0 * (t_traced - t_plain) / t_plain
    return out


def _guarded(name: str, checks) -> dict[str, bool]:
    """Run a group of output checks; one that raises fails as a whole instead of the run."""
    try:
        return checks()
    except Exception:
        workloads.report_failure(name)
        return {name: False}


def run_one(wl_name: str, seed: int, seconds: float, traced_run: bool) -> tuple[dict, dict, dict]:
    workdir = RESULTS / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(wl_name, workdir)
        probe = workloads.Probe()
        tracer = tracing.Tracer() if traced_run else None
        with tracing.patched(probe.patches()):
            t0 = time.perf_counter()
            state = wl.setup(seed)
            setup_times = [time.perf_counter() - t0]

            # one untimed unit on the reference seed: warms allocator and caches,
            # and its outputs are checked against the committed reference
            ref_wl = workloads.make(wl_name, workdir / "ref")
            ref_state = ref_wl.setup(workloads.REF_SEED)
            ref_unit = ref_wl.run(ref_state, probe)
            checks = _guarded("reference_outputs", lambda: workloads.match_reference(
                wl_name, ref_wl.outputs(ref_state, ref_unit)))

            units, flags = [], []
            probe_lists = {"encode_ms": [], "decode_cond_ms": []}
            t_begin = time.perf_counter()
            while len(units) < MIN_UNITS or \
                    time.perf_counter() - t_begin + units[-1].wall_s <= seconds:
                traced = traced_run and len(units) % 2 == 1
                probe.encode_ms.clear()
                probe.decode_cond_ms.clear()
                if traced:
                    with tracer.patched():
                        units.append(wl.run(state, probe, tracer.span))
                else:
                    units.append(wl.run(state, probe))
                    probe_lists["encode_ms"] += probe.encode_ms
                    probe_lists["decode_cond_ms"] += probe.decode_cond_ms
                flags.append(traced)
                # set-up again between units: its median then samples the whole
                # run, not one moment of a host whose speed drifts
                t0 = time.perf_counter()
                wl.setup(seed)
                setup_times.append(time.perf_counter() - t0)
            setup_s = IMPORT_S + statistics.median(setup_times)
            timed_s = time.perf_counter() - t_begin
            checks.update(_guarded("output_checks", lambda: wl.checks(state, units)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u.items for u in units) + len(checks)
    failed = sum(u.failed for u in units) + sum(not ok for ok in checks.values())
    plain = [u for u, t in zip(units, flags) if not t]
    result = {
        "workload": wl_name, "seed": seed, "seconds": seconds, "trace": int(traced_run),
        "env": environment(seed),
        "attempted": attempted, "failed": failed, "checks": checks,
        "timed_s": timed_s, "units": len(units),
        "unit_wall_s": [u.wall_s for u in units], "setup_repeats_s": setup_times,
        "import_s": IMPORT_S,
        "samples_ms": {"unit": [u.intervals for u in plain], **probe_lists},
        "end_to_end": end_to_end(wl_name, setup_s, plain, probe_lists, attempted, failed),
    }
    spans = {}
    if traced_run:
        traced = [u for u, t in zip(units, flags) if t]
        result["per_layer"] = per_layer(wl_name, tracer, traced, plain)
        spans = {"columns": ["name", "tag", "parent", "start_s", "end_s", "child_s"],
                 "spans": tracer.spans}
    return result, checks, spans


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def single(args) -> int:
    result, checks, spans = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
    if spans:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))

    if args.trace:
        listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        values = result["per_layer"]
    else:
        listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        values = result["end_to_end"]
        for name, (unit, _, _) in compare.EXTRA.items():
            if name in values:
                print(f"{args.workload:<10} {name:<34} {_fmt(values[name]):>14} {unit}")
    for name, unit in listed.items():
        print(f"{args.workload:<10} {name:<34} {_fmt(values.get(name, 0.0)):>14} {unit}")
    for name, ok in checks.items():
        print(f"{args.workload:<10} check {name:<28} {'ok' if ok else 'FAILED'}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in listed.items()},
    }))
    return 0


# -- every workload, each in its own process ------------------------------------------


def run_all(args) -> int:
    agg = {"label": args.label, "seconds": args.seconds, "env": environment(args.seed),
           "workloads": {}}
    for name in workloads.WORKLOADS:
        entry = agg["workloads"][name] = {"runs": [], "traced": None}
        for i in range(args.repeats + 1):
            seed, traced = (args.seed + i, 0) if i < args.repeats else (args.seed, 1)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"perfbench: {name} seed {seed} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            print(proc.stdout, end="")
            result = json.loads((RESULTS / f"{name}-seed{seed}-trace{traced}.json").read_text())
            if traced:
                entry["traced"] = result
            else:
                entry["runs"].append(result)
    out = RESULTS / f"bench-{args.label}.json"
    out.write_text(json.dumps(agg, indent=1))
    print_summary(agg)
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


def print_summary(agg: dict) -> None:
    spec = compare.bounds()
    print(f"\n{'workload':<10} {'metric':<26} {'median':>12} unit   (runs)")
    for name, entry in agg["workloads"].items():
        for metric, (unit, _, _) in spec.items():
            vals = [r["end_to_end"][metric] for r in entry["runs"] if metric in r["end_to_end"]]
            if vals:
                print(f"{name:<10} {metric:<26} {_fmt(statistics.median(vals)):>12} {unit}  ({len(vals)})")
        layers = (entry["traced"] or {}).get("per_layer", {})
        for metric in sorted(layers):
            print(f"{name:<10} {metric:<48} {_fmt(layers[metric]):>12}")


# -- committed reference outputs -------------------------------------------------------


def update_reference(names: list[str]) -> int:
    path = workloads.REFERENCE_FILE
    refs = json.loads(path.read_text()) if path.exists() else {}
    workdir = RESULTS / f"tmp-{os.getpid()}"
    try:
        for name in names:
            probe = workloads.Probe()
            wl = workloads.make(name, workdir)
            workdir.mkdir(parents=True, exist_ok=True)
            with tracing.patched(probe.patches()):
                state = wl.setup(workloads.REF_SEED)
                refs[name] = wl.outputs(state, wl.run(state, probe))
            print(f"{name}: reference outputs of seed {workloads.REF_SEED} updated")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1, help="untraced runs per workload (all)")
    parser.add_argument("--label", default="latest", help="results/bench-<label>.json (all)")
    parser.add_argument("--update-reference", action="store_true",
                        help=f"recompute the committed outputs of seed {workloads.REF_SEED}")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.repeats < 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --repeats >= 1")
    if args.update_reference:
        return update_reference(list(workloads.WORKLOADS) if args.workload == "all" else [args.workload])
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
