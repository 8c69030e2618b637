#!/usr/bin/env python3
"""hospgnn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-m80 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, with tracing
off. With ``--trace 1`` it reports per-layer metrics from spans recorded
by perfbench/spans.py, and writes the spans to
``.perfbench/spans-<workload>.jsonl``. Every metric is printed with its
unit; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# BLAS pinned to one thread before numpy first loads, as the test suite
# does: the numbers are single-core budgets, and one thread keeps
# reductions bit-stable so repeated cycles can be compared exactly
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import workloads as W  # noqa: E402  (after the BLAS pin, by intent)

# cold set-ups timed after each untraced cycle, so that set-up is
# sampled across the whole run, as the cycles are, and not in one burst
SETUPS_PER_CYCLE = 3
MIN_CYCLES = 3          # untraced: cycles even when --seconds is short
MIN_TRACE_CYCLES = 2    # traced runs alternate untraced and traced cycles



def declared_metrics():
    """(end-to-end, per-layer) metric units by name, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[section]}
                 for section in ("end_to_end", "per_layer"))


def import_program():
    """Import hospgnn from this checkout's src/ and nowhere else."""
    if not (SRC / "hospgnn" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program at {SRC}/hospgnn; run from "
                         "the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import hospgnn

    if not Path(hospgnn.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: imported hospgnn from "
                         f"{hospgnn.__file__}, not from {SRC}")
    return hospgnn


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload, seed, trace):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS), "commit": git_commit(),
    }


def time_setup(seed, split_dir):
    """Wall and reference-scaled seconds of one cold set-up, in a fresh
    interpreter."""
    before = W.reference_s()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
         str(split_dir), str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    wall = float(done.stdout.strip().splitlines()[-1])
    return wall, W.ref_scaled(wall, before, W.reference_s())


def untraced_run(spec, cfg, splits, params, workdir, seconds):
    """The end-to-end metrics, with tracing off."""
    runner = W.Runner(spec, cfg, splits, params, workdir)
    cycles, setup_all = [], []
    start = perf_counter()
    while len(cycles) < MIN_CYCLES or perf_counter() - start < seconds:
        c = runner.cycle()
        if c is None and runner.failed == runner.attempted:
            break   # nothing works; stop instead of spinning
        if c is not None:
            cycles.append(c)
        setup_all += [time_setup(cfg.seed, workdir)
                      for _ in range(SETUPS_PER_CYCLE)]
    if not cycles:
        return runner, {}, []
    # reference-scaled seconds (workloads.SampleClock) for the metrics,
    # wall seconds for the notes
    setup_wall, setup_s = zip(*setup_all)
    calls = {kind: [t * 1e3 for c in cycles for t in getattr(c.calls, kind)]
             for kind in ("scaled", "seconds")}
    rates = {kind: [spec.sample_episodes / t for c in cycles
                    for t in getattr(c.samples, kind)]
             for kind in ("scaled", "seconds")}
    metrics = {
        "setup_s": statistics.median(setup_s),
        "episodes_per_s": statistics.median(rates["scaled"]),
        "eval_call_ms_p50": W.quantile(calls["scaled"], 50),
        "eval_call_ms_p75": W.quantile(calls["scaled"], 75),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sample = (f"segments of {spec.eval_every} iterations x "
              f"{spec.batch_episodes} taped episodes and their validation"
              if spec.trains else "evaluate() calls")
    notes = [
        f"setup_s: median of {len(setup_s)} cold set-ups; wall median "
        f"{statistics.median(setup_wall):.4f} s",
        f"episodes_per_s: median of {len(rates['scaled'])} {sample}, "
        f"{cycles[0].episodes} episodes in each of {len(cycles)} cycles; "
        f"wall median {statistics.median(rates['seconds']):.4f} 1/s",
        f"eval_call_ms_*: {len(calls['scaled'])} evaluate() calls of "
        f"{spec.episodes_per_call} episodes, {spec.workers} worker(s); "
        f"p90 {W.quantile(calls['scaled'], 90):.4f} ms (not bounded; see "
        f"README); wall p50 {W.quantile(calls['seconds'], 50):.4f} ms, "
        f"p90 {W.quantile(calls['seconds'], 90):.4f} ms",
        *(f"reference task on {n} thread(s): median "
          f"{statistics.median(times) * 1e3:.4f} ms wall over {len(times)} "
          f"runs, {W.REF_S[n] * 1e3:g} ms by definition"
          for n, times in sorted(W.REF_TIMES.items())),
        f"heldout_acc {runner.heldout_acc!r} (not bounded; see README)",
    ]
    return runner, metrics, notes


def traced_run(spec, cfg, splits, params, workdir, seconds, tracer, names):
    """Per-layer metrics: untraced and traced cycles alternate, and every
    traced cycle must reproduce the untraced results exactly."""
    runner = W.Runner(spec, cfg, splits, params, workdir)
    plain, traced = [], []
    start = perf_counter()
    while (len(plain) + len(traced) < MIN_TRACE_CYCLES
           or perf_counter() - start < seconds):
        if len(traced) < len(plain):
            with tracer:
                c = runner.cycle()
            traced.append(c)
        else:
            c = runner.cycle()
            plain.append(c)
        if c is None:
            break
    if None in plain or None in traced:
        return runner, {}, []
    metrics = tracer.layer_metrics(names)
    plain_eps = statistics.median(c.episodes_per_s for c in plain)
    traced_eps = statistics.median(c.episodes_per_s for c in traced)
    metrics["heldout_acc"] = runner.heldout_acc
    metrics["trace.overhead_pct"] = 100.0 * (plain_eps / traced_eps - 1.0)
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced cycles; "
        f"episodes/s traced {traced_eps:.4f}, untraced {plain_eps:.4f}",
        f"{len(tracer.spans)} spans",
        f"tensor.backward.accum_ms excludes the VJP timer's own cost: "
        f"{tracer.vjp_timer_s * 1e6:.3f} us per call, {tracer.vjp_calls} "
        "calls",
    ]
    return runner, metrics, notes


def write_spans(path, env, metrics, tracer):
    from spans import Span

    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "metrics": metrics,
                             "columns": list(Span.COLUMNS)}) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps(s.as_row()) + "\n")
    os.replace(tmp, path)


def run(workload, seed, seconds, trace, spec=None):
    """Run one workload; return the result object run.py prints."""
    hospgnn = import_program()
    end_to_end, per_layer = declared_metrics()
    spec = spec or W.WORKLOADS[workload]
    env = environment(workload, seed, trace)
    print("env " + json.dumps(env), flush=True)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        W.write_splits(seed, workdir)
        cfg = W.train_config(spec, seed)
        params = None
        if not spec.trains:
            init = hospgnn.Checkpoint(
                arrays=hospgnn.init_params(cfg.model, seed=seed)
                .copy_arrays(),
                iteration=0, val_accuracy=0.0, config=cfg)
            params, same = W.checkpoint_roundtrip(init, workdir / "init.npz")
            if not same:
                raise SystemExit("benchmark: checkpoint round trip changed "
                                 "the parameters")
        if trace:
            from spans import Tracer

            tracer = Tracer()
            with tracer:
                splits = W.load_splits(workdir)
            runner, metrics, notes = traced_run(
                spec, cfg, splits, params, workdir, seconds, tracer,
                per_layer)
            restored = tracer.rebinding_undone()
            units = per_layer
        else:
            runner, metrics, notes = untraced_run(
                spec, cfg, W.load_splits(workdir), params, workdir, seconds)
            restored = True
            units = end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = list(runner.problems)
    if not restored:
        problems.append("tracing left a rebound name behind")
    if runner.failed:
        problems.append(f"{runner.failed} of {runner.attempted} "
                        "operations failed")
    if set(metrics) != set(units):
        problems.append("metrics missing: "
                        + ", ".join(sorted(set(units) - set(metrics))))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for problem in dict.fromkeys(problems):
        print(f"INCORRECT: {problem}")
    if trace and metrics:
        write_spans(OUT / f"spans-{workload}.jsonl", env, metrics, tracer)
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
