"""Episodic training loop, evaluation protocol, and ablation sweeps."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import tensor as T
from . import losses
from .data import make_rng, sample_episode
from .errors import ConfigError, DataError, NumericError
from .graph import parse_variant
from .model import ModelConfig, ModelParams, config_hash, forward, init_params

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# rng stream tags so training, evaluation, and init never share draws
_STREAM_INIT = 0xA0
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
    """Adam with decoupled weight decay.

    Decay multiplies each parameter by (1 - lr*decay) before the moment
    update, so a step with all-zero gradients shrinks parameters by
    exactly that factor and does nothing else.
    """

    def __init__(self, params: ModelParams, learning_rate, weight_decay=0.0):
        self.params = params
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self.first = {
            name: np.zeros_like(p.data) for name, p in params.tensors.items()
        }
        self.second = {
            name: np.zeros_like(p.data) for name, p in params.tensors.items()
        }

    def step(self):
        self.step_count += 1
        b1, b2 = ADAM_BETAS
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        lr = self.learning_rate
        for name, p in self.params.tensors.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            m = self.first[name]
            v = self.second[name]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


@dataclass
class Checkpoint:
    """Parameter snapshot plus enough context to resume or audit."""

    arrays: dict
    iteration: int
    val_accuracy: float
    config: TrainConfig
    rng_state: dict = None

    def restore(self):
        params = init_params(self.config.model, seed=self.config.seed)
        params.load_arrays(self.arrays)
        return params


CHECKPOINT_VERSION = 1


def save_checkpoint(ckpt: Checkpoint, path):
    meta = {
        "version": CHECKPOINT_VERSION,
        "iteration": ckpt.iteration,
        "val_accuracy": ckpt.val_accuracy,
        "config": ckpt.config.to_dict(),
        "config_hash": ckpt.config.fingerprint(),
        "rng_state": ckpt.rng_state,
    }
    payload = {f"param/{name}": arr for name, arr in ckpt.arrays.items()}
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    np.savez(path, **payload)


def load_checkpoint(path):
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise DataError(
                f"{path}: unsupported checkpoint version {meta.get('version')}"
            )
        arrays = {
            key[len("param/"):]: archive[key]
            for key in archive.files
            if key.startswith("param/")
        }
    cfg = TrainConfig.from_dict(meta["config"])
    if meta.get("config_hash") != cfg.fingerprint():
        raise DataError(f"{path}: config hash mismatch, file corrupt or edited")
    return Checkpoint(
        arrays=arrays,
        iteration=meta["iteration"],
        val_accuracy=meta["val_accuracy"],
        config=cfg,
        rng_state=meta.get("rng_state"),
    )


def evaluate(ds, params, cfg, episodes, seed=None, workers=1):
    """Mean query accuracy and 95% confidence half-width over episodes.

    Episodes are sampled up front from one stream so the result does not
    depend on the worker count.
    """
    if episodes < 1:
        raise ConfigError("need at least one evaluation episode")
    readout = params.config.resolved_readout()
    rng = make_rng(cfg.seed if seed is None else seed, _STREAM_EVAL)
    eps = [
        sample_episode(ds, cfg.n_way, cfg.k_shot, cfg.n_query,
                       cfg.label_fraction, rng)
        for _ in range(episodes)
    ]

    def run(ep):
        graph = forward(ep, params)
        return losses.accuracy(graph, ep, channel=readout)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            accs = list(pool.map(run, eps))
    else:
        accs = [run(ep) for ep in eps]
    accs = np.asarray(accs)
    mean = float(accs.mean())
    half = 0.0
    if accs.size > 1:
        half = float(1.96 * accs.std(ddof=1) / np.sqrt(accs.size))
    return mean, half


@dataclass
class MetricsRow:
    iteration: int
    loss: float
    val_accuracy: float
    val_ci: float


def train(ds_train, ds_val, cfg: TrainConfig, workers=1, log=None):
    """Run the episodic loop; return the best checkpoint and the metrics.

    Per iteration: sample a batch of episodes, average their total-loss
    gradients, take one Adam step. Every eval_every iterations the model
    is scored on validation episodes and the best snapshot kept. A NaN
    loss aborts immediately rather than skipping the batch; skipping
    hides gradient bugs.
    """
    params = init_params(cfg.model, seed=cfg.seed)
    readout = cfg.model.resolved_readout()
    opt = Adam(params, cfg.learning_rate, cfg.weight_decay)
    train_rng = make_rng(cfg.seed, _STREAM_TRAIN)
    metrics = []
    best = Checkpoint(
        arrays=params.copy_arrays(),
        iteration=0,
        val_accuracy=-1.0,
        config=cfg,
    )

    scale = 1.0 / cfg.batch_episodes
    for iteration in range(1, cfg.total_iterations + 1):
        episodes = [
            sample_episode(ds_train, cfg.n_way, cfg.k_shot, cfg.n_query,
                           cfg.label_fraction, train_rng)
            for _ in range(cfg.batch_episodes)
        ]
        params.zero_grads()
        batch_loss = 0.0
        for ep in episodes:
            with T.Tape() as tape:
                graph = forward(ep, params)
                ce = losses.episodic_ce(graph, ep, channel=readout)
                ml = losses.manifold_loss(graph)
                total = losses.total_loss(ce, ml, cfg.structure_weight)
                contribution = T.mul(total, scale)
                tape.backward(contribution)
            batch_loss += float(contribution.data)
        if not np.isfinite(batch_loss):
            raise NumericError(
                f"non-finite loss {batch_loss} at iteration {iteration}"
            )
        opt.step()

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
                best = Checkpoint(
                    arrays=params.copy_arrays(),
                    iteration=iteration,
                    val_accuracy=val_acc,
                    config=cfg,
                    rng_state=train_rng.bit_generator.state,
                )
            if cfg.target_accuracy is not None and val_acc >= cfg.target_accuracy:
                break
    if best.val_accuracy < 0:
        best = Checkpoint(
            arrays=params.copy_arrays(),
            iteration=cfg.total_iterations,
            val_accuracy=float("nan"),
            config=cfg,
            rng_state=train_rng.bit_generator.state,
        )
    return best, metrics


ABLATION_AXES = ("variant", "layers", "structure_weight", "label_fraction")


def _apply_axis(cfg: TrainConfig, axis, value):
    if axis == "variant":
        channels = parse_variant(value)
        readout = cfg.model.readout_channel
        if readout != "auto" and readout not in channels:
            readout = "auto"
        return replace(
            cfg, model=replace(cfg.model, channels=channels, readout_channel=readout)
        )
    if axis == "layers":
        return replace(cfg, model=replace(cfg.model, layers=int(value)))
    if axis == "structure_weight":
        return replace(cfg, structure_weight=float(value))
    if axis == "label_fraction":
        return replace(cfg, label_fraction=float(value))
    raise ConfigError(f"unknown ablation axis {axis!r}, have {ABLATION_AXES}")


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
    setting. Scores come from the test split using the best validation
    checkpoint of each run.
    """
    rows = []
    for value in values:
        cfg = _apply_axis(base_cfg, axis, value)
        best, _ = train(ds_train, ds_val, cfg, workers=workers)
        params = best.restore()
        acc, ci = evaluate(
            ds_test, params, cfg, cfg.eval_episodes,
            seed=cfg.seed + 0x7E57, workers=workers,
        )
        row = AblationRow(
            axis=axis,
            value=str(value),
            accuracy=acc,
            ci=ci,
            best_iteration=best.iteration,
        )
        rows.append(row)
        if log is not None:
            log(row)
    return rows
