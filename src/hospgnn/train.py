"""Episodic training loop, evaluation protocol, and ablation sweeps."""

from __future__ import annotations

import json
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import tensor as T
from . import losses
from .data import make_rng, sample_episode, stack_episodes
from .errors import ConfigError, DataError, NumericError
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
        if self.n_way < 2 or self.k_shot < 1 or self.n_query < 1:
            raise ConfigError("episode sizes must be positive (n_way >= 2)")
        if not (0.0 < self.label_fraction <= 1.0):
            raise ConfigError(
                f"label_fraction must be in (0, 1], got {self.label_fraction}"
            )
        if self.structure_weight < 0:
            raise ConfigError("structure_weight must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.batch_episodes < 1:
            raise ConfigError("batch_episodes must be >= 1")
        if self.total_iterations < 0:
            raise ConfigError("total_iterations must be >= 0")
        if self.eval_every < 1 or self.eval_episodes < 1:
            raise ConfigError("eval_every and eval_episodes must be >= 1")

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
        return config_hash(self.model, extra={
            k: v for k, v in self.to_dict().items() if k != "model"
        })


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

    def flat_grads(self):
        """Every parameter's gradient in one flat vector, zeros where a
        parameter has none."""
        return np.concatenate([
            (np.zeros(p.size, self.first.dtype) if p.grad is None
             else p.grad.reshape(-1)) for p in self.params.values()])

    def name_at(self, index):
        """The parameter that holds entry ``index`` of the flat vector."""
        k = int(np.searchsorted(self.bounds, index, side="right")) - 1
        return self.params.names()[k]

    def step(self, grads=None):
        """One update from the flat ``grads`` (``flat_grads`` when
        None)."""
        if grads is None:
            grads = self.flat_grads()
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
    meta = {
        "version": CHECKPOINT_VERSION,
        "iteration": ckpt.iteration,
        "val_accuracy": ckpt.val_accuracy,
        "config": ckpt.config.to_dict(),
        "config_hash": ckpt.config.fingerprint(),
    }
    payload = {f"param/{name}": arr for name, arr in ckpt.arrays.items()}
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    np.savez(path, **payload)


def load_checkpoint(path):
    """The checkpoint ``save_checkpoint`` wrote to ``path``. A file that
    is not one (not an ``.npz``, a ``.npy`` array, truncated, without
    ``__meta__``, or with metadata that is unreadable or lacks a field)
    raises DataError naming the path."""
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
                          val_accuracy=meta["val_accuracy"],
                          config=TrainConfig.from_dict(meta["config"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint metadata ({exc!r})") from exc
    if meta.get("config_hash") != ckpt.config.fingerprint():
        raise DataError(f"{path}: config hash mismatch, file corrupt or edited")
    return ckpt


def _require_workers(workers):
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def episode_groups(episodes):
    """Same-shape episodes, in order, stacked (``stack_episodes``) into
    groups that each run as one forward pass: as many episodes as fit
    their ``T.pair_rows`` into one ``T.mlp_scores`` row block, and at
    least one. So a group's activations stay about one block's, and
    large episodes run one at a time. A group of one is the episode
    itself, without the leading axis, so it runs exactly the unbatched
    arithmetic."""
    size = max(1, T.BLOCK_ROWS // T.pair_rows(episodes[0].m))
    chunks = [episodes[i:i + size] for i in range(0, len(episodes), size)]
    return [stack_episodes(c) if len(c) > 1 else c[0] for c in chunks]


def evaluate(ds, params, cfg, episodes, seed=None, workers=1):
    """Mean query accuracy and 95% confidence half-width over episodes.

    Episodes are sampled up front from one stream and run in
    ``episode_groups``, which the workers (at least one) share, so the
    result does not depend on the worker count. Mean and half-width are
    taken over the per-episode accuracies.
    """
    if episodes < 1:
        raise ConfigError("need at least one evaluation episode")
    _require_workers(workers)
    rng = make_rng(cfg.seed if seed is None else seed, _STREAM_EVAL)
    eps = [
        sample_episode(ds, cfg.n_way, cfg.k_shot, cfg.n_query,
                       cfg.label_fraction, rng)
        for _ in range(episodes)
    ]

    def run(group):
        graph = forward(group, params)
        return losses.accuracy(graph, group)

    groups = episode_groups(eps)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            accs = list(pool.map(run, groups))
    else:
        accs = [run(group) for group in groups]
    accs = np.concatenate([np.atleast_1d(a) for a in accs])
    mean = float(accs.mean())
    half = 0.0
    if accs.size > 1:
        half = float(1.96 * accs.std(ddof=1) / np.sqrt(accs.size))
    return mean, half


def evaluate_test(ds_test, best, cfg, workers=1):
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


def train(ds_train, ds_val, cfg: TrainConfig, workers=1, log=None):
    """Run the episodic loop; return the best checkpoint and the metrics.

    Per iteration: sample a batch of episodes, average their total-loss
    gradients, take one Adam step. The batch runs in ``episode_groups``,
    one tape each. Every eval_every iterations the model is scored on
    validation episodes and the best snapshot kept. A non-finite loss or
    parameter gradient aborts before the Adam step rather than skipping
    the batch; skipping hides gradient bugs, and a step would spread the
    NaN into every parameter.
    """
    _require_workers(workers)
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
        episodes = [
            sample_episode(ds_train, cfg.n_way, cfg.k_shot, cfg.n_query,
                           cfg.label_fraction, train_rng)
            for _ in range(cfg.batch_episodes)
        ]
        params.zero_grads()
        batch_loss = 0.0
        for group in episode_groups(episodes):
            with T.Tape() as tape:
                graph = forward(group, params)
                ce = losses.episodic_ce(graph, group)
                ml = losses.manifold_loss(graph)
                total = losses.total_loss(ce, ml, cfg.structure_weight)
                contribution = T.mul(T.tensor_sum(total), scale)
                tape.backward(contribution)
            batch_loss += float(contribution.data)
        if not np.isfinite(batch_loss):
            raise NumericError(
                f"non-finite loss {batch_loss} at iteration {iteration}"
            )
        grads = opt.flat_grads()
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


ABLATION_AXES = ("variant", "layers", "structure_weight", "label_fraction")


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
                 workers=1, log=None):
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
