"""The benchmark's workloads and the loops that run them.

Every workload uses the acceptance-criterion-5 model (no encoder, hidden
32, metric hidden 32, three layers, standardised vertices, self term,
float64) on splits from ``synth_benchmark(20, 8, 8, per_class=30,
dim=16, sep=6, seed)``. A run repeats one *cycle* until its time is up.
Every cycle of a run does exactly the same work from the same seed, so
each one must reproduce the first cycle's results bit for bit.

* Training cycle: ``train()`` for a fixed number of iterations (no
  target accuracy), then ``save_checkpoint`` / ``load_checkpoint`` /
  ``restore`` of the best checkpoint and a fixed set of ``evaluate()``
  calls on the test split.
* Evaluation cycle: a fixed set of untaped ``evaluate()`` calls on the
  test split with parameters from ``init_params`` at the seed, restored
  through the same checkpoint round trip once before timing.

This module imports neither numpy nor hospgnn at load time, so the
set-up probe can time both imports.
"""

from __future__ import annotations

import gc
import math
import mmap
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass, replace
from time import perf_counter

# offset of the held-out evaluate() seeds from the workload seed
HELDOUT_SEED = 0x7E57
# the reference task (see reference_s), and its nominal wall time by
# thread count: about what it takes on the 2-core baseline VM
REF_LOOP = 20000
REF_SMALL_CALLS = 200
REF_FRESH_BYTES = 1 << 20
REF_PARALLEL_PASSES = 2
REF_S = {1: 0.006, 2: 0.02}
_REF_ARRAYS = {}
_REF_READY = set()
REF_TIMES = {}     # thread count -> every reference time, in s
# the data and model every workload shares
CLASSES = (20, 8, 8)    # train, validation, test
PER_CLASS = 30
DIM = 16
HIDDEN = 32


@dataclass(frozen=True)
class Workload:
    """Episode shape and loop sizes; why each exists is in BENCHMARK.json."""

    name: str
    n_way: int
    k_shot: int
    n_query: int
    calls: int              # evaluate() calls per cycle
    episodes_per_call: int
    workers: int = 1        # evaluate() worker threads
    label_fraction: float = 1.0
    iterations: int = 0     # train() iterations per cycle; 0: no training
    batch_episodes: int = 1
    eval_every: int = 1     # in-loop validation inside train()
    eval_episodes: int = 1

    @property
    def trains(self):
        return self.iterations > 0

    @property
    def sample_episodes(self):
        """Episodes in one timed sample: a training segment (eval_every
        taped iterations and the validation that ends them) or one
        evaluate() call."""
        if self.trains:
            return self.eval_every * self.batch_episodes
        return self.episodes_per_call


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-m80",
        n_way=5, k_shot=1, n_query=15,
        iterations=10, batch_episodes=2, eval_every=2, eval_episodes=2,
        calls=16, episodes_per_call=1,
    ),
    Workload(
        name="train-m16-semi",
        n_way=2, k_shot=5, n_query=3, label_fraction=0.4,
        iterations=50, batch_episodes=4, eval_every=5, eval_episodes=5,
        calls=20, episodes_per_call=5,
    ),
    Workload(
        name="eval-m160",
        n_way=8, k_shot=5, n_query=15,
        calls=16, episodes_per_call=2, workers=2,
    ),
)}


def tiny(spec):
    """A seconds-long version of a workload, for the benchmark's tests."""
    return replace(
        spec, n_query=min(spec.n_query, 2), k_shot=min(spec.k_shot, 2),
        n_way=min(spec.n_way, 3),
        iterations=min(spec.iterations, 2), batch_episodes=1, eval_every=1,
        eval_episodes=2, calls=2, episodes_per_call=2,
    )


def model_config():
    from hospgnn import ModelConfig

    return ModelConfig(
        feature_dim=DIM, layers=3, hidden_dim=HIDDEN, use_encoder=False,
        metric_hidden=HIDDEN, standardize_vertex=True, aggregate_self=True,
        dtype="float64",
    )


def train_config(spec, seed):
    from hospgnn import TrainConfig

    return TrainConfig(
        model=model_config(),
        n_way=spec.n_way, k_shot=spec.k_shot, n_query=spec.n_query,
        label_fraction=spec.label_fraction, structure_weight=1e-5,
        learning_rate=3e-3, batch_episodes=spec.batch_episodes,
        total_iterations=spec.iterations, eval_every=spec.eval_every,
        eval_episodes=spec.eval_episodes, target_accuracy=None, seed=seed,
    )


def write_splits(seed, directory):
    """Write the HOSPEMB train/validation/test files for a seed."""
    import hospgnn

    splits = hospgnn.synth_benchmark(*CLASSES, per_class=PER_CLASS, dim=DIM,
                                     sep=6.0, seed=seed)
    for ds in splits:
        hospgnn.write_dataset(ds, directory / f"{ds.split}.emb")


def load_splits(directory):
    import hospgnn

    return tuple(hospgnn.load_dataset(directory / f"{split}.emb", split)
                 for split in ("train", "validation", "test"))


def checkpoint_roundtrip(ckpt, path):
    """Save, load and restore a checkpoint; check the arrays survive."""
    import hospgnn
    import numpy as np

    hospgnn.save_checkpoint(ckpt, path)
    params = hospgnn.load_checkpoint(path).restore()
    same = all(np.array_equal(params.t(name).data, arr)
               for name, arr in ckpt.arrays.items())
    return params, same


def _ref_array(rows, scale=1.0):
    """A fixed (rows, 32) array for the reference task, made on first use."""
    import numpy as np

    if rows not in _REF_ARRAYS:
        _REF_ARRAYS[rows] = (np.random.default_rng(rows)
                             .standard_normal((rows, 32)) * scale)
    return _REF_ARRAYS[rows]


def _serial_task():
    import numpy as np

    small = _ref_array(16, 0.1)
    pairs = _ref_array(6400)   # an M = 80 pair array
    square = small.T @ small
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    y = small
    for _ in range(REF_SMALL_CALLS):
        y = np.tanh(y @ square) + small
    np.maximum(pairs * 0.5 + 0.25, 0.0).sum()
    (pairs @ square).sum()
    fresh = mmap.mmap(-1, REF_FRESH_BYTES)
    for offset in range(0, REF_FRESH_BYTES, mmap.PAGESIZE):
        fresh[offset] = 1
    fresh.close()


def _parallel_task():
    import numpy as np

    small = _ref_array(16, 0.1)
    pairs = _ref_array(25600)   # an M = 160 pair array
    square = small.T @ small
    for _ in range(REF_PARALLEL_PASSES):
        np.maximum(pairs * 0.5 + 0.25, 0.0).sum()
        (pairs @ square).sum()


def reference_s(threads=1):
    """Wall seconds of one run of the reference task on ``threads``
    threads at once.

    The task is fixed work that never calls hospgnn, and it loads the
    host the way a timed sample does. On one thread it does a little of
    each kind of work an episode does: a Python loop, small-array numpy
    calls, an elementwise pass and a matrix product over an M = 80 pair
    array, and first writes to freshly mapped memory, as a growing tape
    makes. On more threads, each thread makes two elementwise passes and
    two matrix products over an M = 160 pair array, work numpy runs
    outside the GIL, as it runs most of a ``workers=2`` evaluate() at
    M = 160: mostly serial Python work on two threads would speed up, not
    slow down, when another tenant takes one of the cores. See
    :class:`SampleClock`.
    """
    task = _serial_task if threads == 1 else _parallel_task
    if task not in _REF_READY:   # the first run makes the arrays
        task()
        _REF_READY.add(task)
    others = [threading.Thread(target=task) for _ in range(threads - 1)]
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for t in others:
            t.start()
        task()
        for t in others:
            t.join()
        seconds = perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    REF_TIMES.setdefault(threads, []).append(seconds)
    return seconds


def ref_scaled(wall, ref_before, ref_after, threads=1):
    """Wall seconds in reference-scaled seconds, from the reference
    times on ``threads`` threads measured just before and just after."""
    return wall * REF_S[threads] / (0.5 * (ref_before + ref_after))


class SampleClock:
    """Times consecutive samples of work in reference-scaled seconds.

    The host's speed steps by up to 2x for seconds to minutes at a time
    (other tenants share its cores), which moves every wall time with it.
    So the clock runs the reference task before the first sample and
    after each one, on as many threads as a sample keeps busy, and
    scales each sample's wall time by REF_S over the mean of the two
    reference times beside it: a reference-scaled second is a wall
    second on a host that runs the reference task in REF_S. The
    reference runs between samples, never inside one.
    """

    def __init__(self, threads=1):
        self.threads = threads
        self.seconds = []   # wall seconds of each sample
        self.scaled = []    # the same, in reference-scaled seconds
        self._ref = reference_s(threads)
        self._start = perf_counter()

    def lap(self, *_):
        """End the current sample and start the next one."""
        wall = perf_counter() - self._start
        ref = reference_s(self.threads)
        self.seconds.append(wall)
        self.scaled.append(ref_scaled(wall, self._ref, ref, self.threads))
        self._ref = ref
        self._start = perf_counter()


@dataclass
class Cycle:
    outcome: tuple     # every result that must repeat exactly
    losses: tuple      # batch losses at each in-loop validation
    accs: tuple        # accuracy of each evaluate() call
    episodes: int      # taped episodes (training) or evaluated episodes
    calls: SampleClock     # the timed evaluate() calls
    samples: SampleClock   # training segments, or the calls again
    roundtrip_ok: bool = True   # checkpoint arrays survived save/load

    @property
    def episodes_per_s(self):
        """Episodes per reference-scaled second of the whole cycle."""
        return self.episodes / sum(self.samples.scaled)

    def valid(self):
        return (self.roundtrip_ok
                and all(math.isfinite(x) for x in self.losses)
                and all(0.0 <= a <= 1.0 for a in self.accs))


def _eval_calls(ds, params, cfg, spec, seed):
    import hospgnn

    results = []
    clock = SampleClock(threads=spec.workers)
    for i in range(spec.calls):
        results.append(hospgnn.evaluate(
            ds, params, cfg, spec.episodes_per_call,
            seed=seed + HELDOUT_SEED + i, workers=spec.workers))
        clock.lap()
    return clock, tuple(results)


def run_cycle(spec, cfg, splits, params, workdir):
    """One cycle of the workload; params is used only by evaluation."""
    import hospgnn

    ds_train, ds_val, ds_test = splits
    if not spec.trains:
        calls, results = _eval_calls(ds_test, params, cfg, spec, cfg.seed)
        return Cycle(outcome=results, losses=(),
                     accs=tuple(acc for acc, _ in results),
                     episodes=spec.calls * spec.episodes_per_call,
                     calls=calls, samples=calls)
    # train() calls log after every validation, so the laps cut its run
    # into segments of eval_every iterations each
    segments = SampleClock()
    best, rows = hospgnn.train(ds_train, ds_val, cfg, log=segments.lap)
    # free the tapes train() leaves to the cyclic collector now, so a
    # collection of them does not land inside a timed evaluate() call
    gc.collect()
    restored, same = checkpoint_roundtrip(best, workdir / "best.npz")
    calls, results = _eval_calls(ds_test, restored, cfg, spec, cfg.seed)
    rows = tuple((r.iteration, r.loss, r.val_accuracy, r.val_ci)
                 for r in rows)
    return Cycle(
        outcome=(rows, best.iteration, best.val_accuracy, results),
        losses=tuple(r[1] for r in rows),
        accs=tuple(r[2] for r in rows) + tuple(acc for acc, _ in results),
        episodes=spec.iterations * spec.batch_episodes,
        calls=calls, samples=segments, roundtrip_ok=same)


class Runner:
    """Repeats cycles and checks each against the first one's results."""

    def __init__(self, spec, cfg, splits, params, workdir):
        self.spec = spec
        self.cfg = cfg
        self.splits = splits
        self.params = params
        self.workdir = workdir
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def cycle(self):
        """Run one cycle; return it, or None if it failed.

        A cycle attempts its train iterations and its evaluate() calls;
        if it fails, all of them count as failed.
        """
        attempts = self.spec.iterations + self.spec.calls
        self.attempted += attempts
        try:
            c = run_cycle(self.spec, self.cfg, self.splits, self.params,
                          self.workdir)
        except Exception:  # a failed cycle is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += attempts
            return None
        finally:
            # each cycle starts from the heap a fresh process would have;
            # otherwise tapes leaked by one train() call add to the next
            gc.collect()
        if not c.valid():
            self.failed += attempts
            self.problems.append("non-finite loss, accuracy outside [0, 1] "
                                 "or checkpoint round trip changed arrays")
            return None
        if self.reference is None:
            self.reference = c
        elif c.outcome != self.reference.outcome:
            self.problems.append("a cycle's results differ from the first "
                                 "cycle of the same seed")
        return c

    @property
    def heldout_acc(self):
        """Mean test accuracy over the first cycle's held-out calls."""
        accs = self.reference.accs[-self.spec.calls:]
        return statistics.fmean(accs)


def quantile(values, q):
    """The q-th percentile of the values (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
