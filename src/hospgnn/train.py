"""Episodic training loop, evaluation protocol, and ablation sweeps."""

from __future__ import annotations

import atexit
import json
import os
import threading
import zipfile
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import tensor as T
from . import losses
from .data import make_rng, sample_episode, stack_episodes
from .errors import ConfigError, DataError, NumericError, require_count
from .graph import parse_variant
from .model import ModelConfig, ModelParams, config_hash, forward, init_params

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# rng stream tags so training and evaluation never share draws with
# each other or with parameter init (model.STREAM_INIT)
_STREAM_TRAIN = 0xB1
_STREAM_EVAL = 0xC2


@dataclass(frozen=True)
class TrainConfig:
    """Everything one run needs besides the datasets."""

    model: ModelConfig
    n_way: int = 5
    k_shot: int = 1
    n_query: int = 15
    label_fraction: float = 1.0
    structure_weight: float = 1e-5
    learning_rate: float = 5e-4
    weight_decay: float = 1e-6
    batch_episodes: int = 40
    total_iterations: int = 1000
    eval_every: int = 100
    eval_episodes: int = 50
    target_accuracy: float = None
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_way", 2), ("k_shot", 1), ("n_query", 1),
                            ("batch_episodes", 1), ("total_iterations", 0),
                            ("eval_every", 1), ("eval_episodes", 1),
                            ("seed", 0)):
            require_count(name, getattr(self, name), least)
        if not (0.0 < self.label_fraction <= 1.0):
            raise ConfigError(
                f"label_fraction must be in (0, 1], got {self.label_fraction}"
            )
        if not 0 <= self.structure_weight < np.inf:
            raise ConfigError("structure_weight must be finite and >= 0")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and positive")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError("weight_decay must be finite and >= 0")
        if (self.target_accuracy is not None
                and not 0 <= self.target_accuracy <= 1):
            raise ConfigError(
                f"target_accuracy must be in [0, 1], got {self.target_accuracy}")

    def to_dict(self):
        out = asdict(self)
        out["model"] = self.model.to_dict()
        return out

    @staticmethod
    def from_dict(d):
        d = dict(d)
        d["model"] = ModelConfig.from_dict(d["model"])
        return TrainConfig(**d)

    def fingerprint(self):
        tree = self.to_dict()
        return config_hash({"model": tree.pop("model"), "extra": tree})


class Adam:
    """Adam with decoupled weight decay, over all parameters as one flat
    vector in ``ModelParams`` order.

    Decay multiplies each parameter by (1 - lr*decay) before the moment
    update, so a step with all-zero gradients shrinks parameters by
    exactly that factor and does nothing else. Every operation is
    elementwise, so the flat update equals a per-tensor one bitwise.
    """

    def __init__(self, params: ModelParams, learning_rate, weight_decay=0.0):
        self.params = params
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        tensors = params.values()
        self.bounds = np.cumsum([0] + [p.size for p in tensors])
        dtype = np.result_type(*(p.data for p in tensors))
        self.first = np.zeros(self.bounds[-1], dtype=dtype)
        self.second = np.zeros(self.bounds[-1], dtype=dtype)

    def name_at(self, index):
        """The parameter that holds entry ``index`` of the flat vector."""
        k = int(np.searchsorted(self.bounds, index, side="right")) - 1
        return self.params.names()[k]

    def step(self, grads):
        """One update from the flat vector ``grads``."""
        self.step_count += 1
        b1, b2 = ADAM_BETAS
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        lr = self.learning_rate
        tensors = self.params.values()
        theta = np.concatenate([p.data.reshape(-1) for p in tensors])
        if self.weight_decay:
            theta *= 1.0 - lr * self.weight_decay
        m, v = self.first, self.second
        m *= b1
        m += (1.0 - b1) * grads
        v *= b2
        v += (1.0 - b2) * grads * grads
        theta -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        for p, lo, hi in zip(tensors, self.bounds[:-1], self.bounds[1:]):
            p.data[...] = theta[lo:hi].reshape(p.shape)


@dataclass
class Checkpoint:
    """Parameter snapshot plus enough context to resume or audit."""

    arrays: dict
    iteration: int
    val_accuracy: float
    config: TrainConfig

    def restore(self):
        params = init_params(self.config.model, seed=self.config.seed)
        params.load_arrays(self.arrays)
        return params


CHECKPOINT_VERSION = 2


def save_checkpoint(ckpt: Checkpoint, path):
    """Write ``ckpt`` to ``path`` as an ``.npz`` whose ``__meta__`` is
    strict JSON: a NaN ``val_accuracy`` (no validation ran) is null."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "iteration": ckpt.iteration,
        "val_accuracy": (None if np.isnan(ckpt.val_accuracy)
                         else ckpt.val_accuracy),
        "config": ckpt.config.to_dict(),
        "config_hash": ckpt.config.fingerprint(),
    }
    payload = {f"param/{name}": arr for name, arr in ckpt.arrays.items()}
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True, allow_nan=False).encode(),
        dtype=np.uint8
    )
    np.savez(path, **payload)


def load_checkpoint(path):
    """The checkpoint ``save_checkpoint`` wrote to ``path``. A file that
    is not one (not an ``.npz``, a ``.npy`` array, truncated, without
    ``__meta__``, or with metadata that is unreadable or lacks a field)
    raises DataError naming the path. A null ``val_accuracy`` reads back
    as NaN."""
    try:
        # opened here: numpy leaves its own handle open when it rejects a file
        with open(path, "rb") as fh, np.load(fh) as archive:
            meta = json.loads(bytes(archive["__meta__"]).decode())
            arrays = {
                key[len("param/"):]: archive[key]
                for key in archive.files
                if key.startswith("param/")
            }
    except FileNotFoundError:
        raise
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: not a readable checkpoint ({exc})") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        ckpt = Checkpoint(arrays=arrays, iteration=meta["iteration"],
                          val_accuracy=(float("nan")
                                        if meta["val_accuracy"] is None
                                        else meta["val_accuracy"]),
                          config=TrainConfig.from_dict(meta["config"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint metadata ({exc!r})") from exc
    if meta.get("config_hash") != ckpt.config.fingerprint():
        raise DataError(f"{path}: config hash mismatch, file corrupt or edited")
    return ckpt


def _resolve_workers(workers):
    """``workers``, or the cores this process may run on when None."""
    if workers is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:   # no affinity call on this platform
            return os.cpu_count() or 1
    return require_count("workers", workers)


def episode_groups(episodes):
    """Same-shape episodes, in order, stacked (``stack_episodes``) into
    groups that each run as one forward pass: as many episodes as fit
    their ``T.pair_rows`` into one ``T.BLOCK_ROWS`` block, and at least
    one. Small episodes spend their time on each op's dispatch and tape
    bookkeeping, which a group pays once for all its episodes; the cap
    keeps a group's per-pair arrays (its pair rows and scores, its
    (M, M, C) edges) about one block's pairs, and large episodes run one
    at a time. A group of one is the episode itself, without the leading
    axis, so it runs exactly the unbatched arithmetic."""
    size = max(1, T.BLOCK_ROWS // T.pair_rows(episodes[0].m))
    chunks = [episodes[i:i + size] for i in range(0, len(episodes), size)]
    return [stack_episodes(c) if len(c) > 1 else c[0] for c in chunks]


def _sample_groups(ds, cfg, count, rng):
    """``count`` episodes of ``cfg``'s shape drawn from ``rng``, in
    ``episode_groups``."""
    return episode_groups([
        sample_episode(ds, cfg.n_way, cfg.k_shot, cfg.n_query,
                       cfg.label_fraction, rng)
        for _ in range(count)])


def _share_accuracies(groups, params):
    """The accuracies of each group in order, and the exception the
    first failing group raised (None if none did); groups after it are
    not run."""
    accs = []
    for group in groups:
        try:
            accs.append(losses.accuracy(forward(group, params), group))
        except Exception as exc:
            return accs, exc
    return accs, None


def _share_gradients(groups, params, structure_weight, scale):
    """For each group in order, one tape: the gradients of ``scale``
    times its ``losses.report_losses`` total, as one flat vector
    (``ModelParams.flat_grads``), and that scaled loss; and the exception
    as ``_share_accuracies`` gives it. Every group's vector is held until
    the share returns."""
    out = []
    for group in groups:
        params.zero_grads()
        try:
            with T.Tape() as tape:
                graph = forward(group, params)
                total, _ = losses.report_losses(graph, group, structure_weight)
                loss = T.mul(T.tensor_sum(total), scale)
                tape.backward(loss)
        except Exception as exc:
            return out, exc
        # this group's activations go before its gradient vector and the
        # next group's forward are allocated
        del tape, graph
        out.append((params.flat_grads(), float(loss.data)))
    return out, None


def _serve(conn, inherited):
    """A worker's loop: receive (share tag, model config, parameter
    arrays, groups, further arguments), reply with what the share
    function the tag names gives, until the parent closes its end of
    the pipe (or dies). An array sent as None is the one this worker
    last received under that name. ``inherited`` are the parent's ends
    of every worker's pipe, this one's included, which the fork
    copied."""
    import signal

    # an interrupt reaches the whole process group; the parent handles it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # with no copy of a parent end left in any worker, each worker sees
    # end of file once the parent closes its end or dies
    for end in inherited:
        end.close()
    held = {}
    while True:
        try:
            tag, config, arrays, groups, args = conn.recv()
        except EOFError:
            return
        held = {name: held[name] if arr is None else arr
                for name, arr in arrays.items()}
        params = ModelParams(config, {
            name: T.Tensor(arr, requires_grad=True)
            for name, arr in held.items()})
        conn.send(globals()[tag](groups, params, *args))


class _Workers:
    """The worker processes that run shares of the episode groups of
    ``evaluate`` and of every ``train`` step, shared by every call in the
    process and closed at interpreter exit.

    The start method is ``fork``, asked for by name (Python 3.14 makes
    ``forkserver`` the default on Linux). A forked worker runs the
    ``hospgnn`` the parent imported, from the parent's ``src/``, with
    BLAS already loaded under the parent's thread pin, so every group
    runs the arithmetic the parent would run, bit for bit. It starts at
    once, re-imports no ``__main__`` (a caller's script needs no main
    guard) and needs no resource-tracker process. It also inherits the
    parent's grown heap: a ``spawn`` worker starts from a fresh one, and
    at M = 160 it faults in about 1800 fresh pages per share, every
    share, where a forked worker faults in almost none, so spawned
    workers gave back much of the speed-up (figures in CHANGES.md).
    The cost: forking a process that runs other threads can deadlock
    the child on a lock one of them held, and Python 3.12 and later
    warn (DeprecationWarning) when such a process forks, which a test
    run with warnings as errors may report as a failure; as ``workers``
    defaults to the usable cores, a default call with two or more
    groups may fork. hospgnn runs no threads of its own, and importing
    it before numpy pins BLAS to one thread (the package sets the thread
    variables a caller has not); a caller that loaded numpy first is not
    covered, and its BLAS may run threads of its own. The workers start
    only in the first call that needs them, from the calling thread; a
    caller that runs threads should make that call before it starts
    them, or pass ``workers=1``, which neither forks nor waits for
    another thread's call. ``multiprocessing`` is imported then too.
    """

    def __init__(self):
        self.lock = threading.Lock()   # one call's exchange at a time
        self.procs = []
        self.conns = []   # the parent's end of each worker's pipe
        self.held = []    # the value of each array each worker holds

    def start(self, count):
        """The pipes of the first ``count`` workers, started as needed;
        if one has died, every worker is replaced."""
        if not all(proc.is_alive() for proc in self.procs):
            self.close(terminate=True)
        if len(self.procs) < count:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            while len(self.procs) < count:
                here, there = ctx.Pipe()
                proc = ctx.Process(target=_serve,
                                   args=(there, self.conns + [here]),
                                   name="hospgnn-worker", daemon=True)
                proc.start()
                there.close()
                self.procs.append(proc)
                self.conns.append(here)
                self.held.append({})
            # registered after the exit hook multiprocessing registers
            # when it starts its first process, so this one runs first
            # and the workers leave on end of file, not terminated
            atexit.unregister(self.close)
            atexit.register(self.close)
        return self.conns[:count]

    def close(self, terminate=False):
        """Stop every worker: close its pipe and wait for it to leave, or
        ``terminate`` it first when it may be mid-share."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            if terminate:
                proc.terminate()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.procs, self.conns, self.held = [], [], []

    def run(self, tag, groups, params, workers, *args):
        """What the share function named ``tag`` gives each group, in
        group order: the one way a batch of groups runs. The groups are
        cut into ``shares = min(workers, len(groups))`` shares,
        ``groups[k::shares]``; the caller runs share 0 while worker k
        runs share k. With one share the caller runs every group, and
        neither takes the lock nor touches a worker. Only the name is
        sent; each side looks it up in this module at call time. A
        parameter array goes to a worker only when its dtype, shape or
        bytes differ from those the worker was last sent, and as None
        otherwise; a started or replaced worker holds none. Every group
        runs the same arithmetic on either side, so what comes back does
        not depend on ``workers``. The lowest-index failing group's
        exception is raised, as one share would raise it. Every reply is
        read before that; on any other failure or an interrupt the
        workers are closed, so no reply outlives its call."""
        share = globals()[tag]
        shares = min(workers, len(groups))
        if shares == 1:
            results = [share(groups, params, *args)]
        else:
            with self.lock:
                values = {name: (p.dtype, p.shape, p.data.tobytes())
                          for name, p in params.tensors.items()}
                try:
                    conns = self.start(shares - 1)
                    for k, conn in enumerate(conns, 1):
                        held = self.held[k - 1]
                        arrays = {name: None if held.get(name) == value
                                  else params.t(name).data
                                  for name, value in values.items()}
                        conn.send((tag, params.config, arrays,
                                   groups[k::shares], args))
                        self.held[k - 1] = values
                    results = [share(groups[::shares], params, *args)]
                    for conn in conns:
                        try:
                            results.append(conn.recv())
                        except (EOFError, ConnectionError):
                            raise RuntimeError("a worker process exited "
                                               "mid-share") from None
                except BaseException:
                    self.close(terminate=True)
                    raise
        failed = [(len(done) * shares + k, exc)
                  for k, (done, exc) in enumerate(results) if exc is not None]
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        return [results[i % shares][0][i // shares] for i in range(len(groups))]


_WORKERS = _Workers()


def evaluate(ds, params, cfg, episodes, seed=None, workers=None):
    """Mean query accuracy and 95% confidence half-width over episodes.

    Episodes are sampled up front from one stream and run in
    ``episode_groups``, through ``_Workers.run``: with ``workers`` w (by
    default the usable cores) the groups run in min(w, groups) shares,
    this process running share 0 and persistent worker processes the
    others, and the accuracies come back in group order. So the result
    and any error are the same for every ``workers``. Mean and
    half-width are taken over the per-episode accuracies.
    """
    require_count("episodes", episodes)
    workers = _resolve_workers(workers)
    rng = make_rng(cfg.seed if seed is None else seed, _STREAM_EVAL)
    accs = _WORKERS.run("_share_accuracies",
                        _sample_groups(ds, cfg, episodes, rng), params,
                        workers)
    accs = np.concatenate([np.atleast_1d(a) for a in accs])
    mean = float(accs.mean())
    half = 0.0
    if accs.size > 1:
        half = float(1.96 * accs.std(ddof=1) / np.sqrt(accs.size))
    return mean, half


def evaluate_test(ds_test, best, cfg, workers=None):
    """Score a run's best checkpoint on the test split, with episodes
    drawn from seed + 0x7E57 (validation after iteration k: seed + k)."""
    return evaluate(ds_test, best.restore(), cfg, cfg.eval_episodes,
                    seed=cfg.seed + 0x7E57, workers=workers)


@dataclass
class MetricsRow:
    iteration: int
    loss: float
    val_accuracy: float
    val_ci: float


def train(ds_train, ds_val, cfg: TrainConfig, workers=None, log=None):
    """Run the episodic loop; return the best checkpoint and the metrics.

    Per iteration: sample a batch of episodes, average their total-loss
    gradients, take one Adam step. The batch runs in ``episode_groups``,
    one tape each, through ``_Workers.run`` as in ``evaluate``. Each
    group's flat gradient vector and loss come back on their own, held
    here until they are added in group order, so the step is bitwise
    the same for every ``workers``. Every eval_every iterations the
    model is scored on validation episodes and the best snapshot kept.
    A non-finite loss or parameter gradient aborts before the Adam step
    rather than skipping the batch; skipping hides gradient bugs, and a
    step would spread the NaN into every parameter. Each process runs
    BLAS on one thread when hospgnn was imported before numpy; a caller
    that loaded numpy first is not covered, and its BLAS threads compete
    with the workers for the cores.
    """
    workers = _resolve_workers(workers)
    params = init_params(cfg.model, seed=cfg.seed)
    opt = Adam(params, cfg.learning_rate, cfg.weight_decay)
    train_rng = make_rng(cfg.seed, _STREAM_TRAIN)
    metrics = []

    def snapshot(iteration, val_accuracy):
        return Checkpoint(arrays=params.copy_arrays(), iteration=iteration,
                          val_accuracy=val_accuracy, config=cfg)

    best = snapshot(0, -1.0)

    scale = 1.0 / cfg.batch_episodes
    for iteration in range(1, cfg.total_iterations + 1):
        groups = _sample_groups(ds_train, cfg, cfg.batch_episodes, train_rng)
        (grads, batch_loss), *rest = _WORKERS.run(
            "_share_gradients", groups, params, workers,
            cfg.structure_weight, scale)
        for group_grads, loss in rest:
            grads += group_grads
            batch_loss += loss
        if not np.isfinite(batch_loss):
            raise NumericError(
                f"non-finite loss {batch_loss} at iteration {iteration}"
            )
        finite = np.isfinite(grads)
        if not finite.all():
            raise NumericError(
                f"non-finite gradient of {opt.name_at(np.argmin(finite))} "
                f"at iteration {iteration}"
            )
        opt.step(grads)

        if iteration % cfg.eval_every == 0 or iteration == cfg.total_iterations:
            val_acc, val_ci = evaluate(
                ds_val, params, cfg, cfg.eval_episodes,
                seed=cfg.seed + iteration, workers=workers,
            )
            row = MetricsRow(iteration, batch_loss, val_acc, val_ci)
            metrics.append(row)
            if log is not None:
                log(row)
            if val_acc > best.val_accuracy:
                best = snapshot(iteration, val_acc)
            if cfg.target_accuracy is not None and val_acc >= cfg.target_accuracy:
                break
    if best.val_accuracy < 0:
        best = snapshot(cfg.total_iterations, float("nan"))
    return best, metrics


# the value grid each ablation axis sweeps unless told otherwise; its
# keys are the axes
DEFAULT_AXIS_VALUES = {
    "variant": ["d", "s", "r", "rd", "rs", "full"],
    "layers": [1, 2, 3],
    "structure_weight": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
    "label_fraction": [0.2, 0.4, 1.0],
}
ABLATION_AXES = tuple(DEFAULT_AXIS_VALUES)


def apply_axis(cfg: TrainConfig, axis, value):
    """The value as an ablation row spells it, and the config of the run
    that sets ``axis`` to it; a value the axis cannot take is a ConfigError."""
    if axis not in ABLATION_AXES:
        raise ConfigError(f"unknown ablation axis {axis!r}, have {ABLATION_AXES}")
    try:
        value = {"variant": str, "layers": int}.get(axis, float)(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad {axis} value {value!r}") from None
    if axis == "variant":
        cfg = replace(cfg, model=replace(cfg.model, channels=parse_variant(value)))
    elif axis == "layers":
        cfg = replace(cfg, model=replace(cfg.model, layers=value))
    else:
        cfg = replace(cfg, **{axis: value})
    return str(value), cfg


@dataclass
class AblationRow:
    axis: str
    value: str
    accuracy: float
    ci: float
    best_iteration: int


def run_ablation(ds_train, ds_val, ds_test, base_cfg, axis, values,
                 workers=None, log=None):
    """Train and score one configuration per value of the chosen axis.

    Every run shares the base seed, so rows differ only in the swept
    setting. Every config is built before the first run, so a bad value
    fails before any training. Scores come from the test split using the
    best validation checkpoint of each run.
    """
    runs = [apply_axis(base_cfg, axis, value) for value in values]
    rows = []
    for value, cfg in runs:
        best, _ = train(ds_train, ds_val, cfg, workers=workers)
        acc, ci = evaluate_test(ds_test, best, cfg, workers)
        row = AblationRow(
            axis=axis,
            value=value,
            accuracy=acc,
            ci=ci,
            best_iteration=best.iteration,
        )
        rows.append(row)
        if log is not None:
            log(row)
    return rows
