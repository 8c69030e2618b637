"""Layered co-evolution of vertex features and edge channels.

One layer does two things, in order: every vertex re-embeds itself from
channel-weighted neighborhood aggregates, then every edge channel is
rescaled by a learned affinity of the fresh features and re-normalized
so each pair's channels sum to one.

Parameters are a flat name-to-tensor mapping. Names are stable and
ordered, which makes checkpoints, the optimizer, and gradient checks
straightforward; layer nets for disabled channels are never created.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .data import make_rng
from .errors import ConfigError, NumericError, ShapeError
from .graph import (
    CHANNEL_ORDER,
    DENOM_EPS,
    FULL_CHANNELS,
    init_edges,
    init_relative_channel,
    pairwise_distances,
    relative_features,
)

STANDARDIZE_EPS = 1e-5

# metric scores live in [SCORE_EPS, 1 - SCORE_EPS]; bounds the logit
# range the edge update can express at about +-16
SCORE_EPS = 1e-7


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs.

    ``metric_input`` selects what the per-layer affinity nets consume:
    ``distance`` feeds the scalar pair distance, ``absdiff`` feeds the
    per-dimension absolute difference vector.

    ``aggregate_normalize`` selects the weights used when a vertex pools
    its neighbors. ``channel`` scales each pair's channel triple to sum
    to one, so every neighbor contributes total weight one and the pool
    is dominated by the episode mean as the graph grows. ``neighbor``
    makes each channel row-stochastic instead, turning the pool into a
    weighted average that can concentrate on few vertices; it is the
    variant that keeps class structure intact deep in the network, and
    large-graph configurations generally need it to train.

    ``aggregate_self`` appends the vertex's own current feature to the
    pooled channel features before the vertex net. Without it a vertex
    is rebuilt purely from its pooled neighborhood. The first update
    pools over the label-blind initial edges (see ``forward``), whose
    label-channel rows are flat for every vertex, so those aggregates
    are the same episode mean for all of them, and only the relative
    channel, when enabled, tells vertices apart; the self term keeps
    each vertex's identity through the update. Off by default; the
    large-episode training configurations enable it.
    """

    feature_dim: int
    layers: int = 3
    hidden_dim: int = 32
    use_encoder: bool = True
    encoder_dim: int = 32
    metric_hidden: int = 96
    metric_input: str = "distance"
    metric_init: str = "xavier"
    metric_bandwidth: float = 0.5
    channels: tuple = FULL_CHANNELS
    leaky_slope: float = 0.01
    standardize_vertex: bool = False
    aggregate_normalize: str = "channel"
    aggregate_self: bool = False
    readout_channel: str = "similar"
    dtype: str = "float64"

    def __post_init__(self):
        if self.feature_dim < 1 or self.hidden_dim < 1 or self.metric_hidden < 1:
            raise ConfigError("dimensions must be positive")
        if self.layers < 1:
            raise ConfigError(f"need at least one layer, got {self.layers}")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ConfigError(
                f"leaky_slope must be in [0, 1], got {self.leaky_slope}"
            )
        if self.metric_input not in ("distance", "absdiff"):
            raise ConfigError(f"unknown metric_input {self.metric_input!r}")
        if self.aggregate_normalize not in ("channel", "neighbor"):
            raise ConfigError(
                f"unknown aggregate_normalize {self.aggregate_normalize!r}"
            )
        if self.metric_init not in ("xavier", "kernel"):
            raise ConfigError(f"unknown metric_init {self.metric_init!r}")
        if self.metric_bandwidth <= 0.0:
            raise ConfigError(
                f"metric_bandwidth must be positive, got {self.metric_bandwidth}"
            )
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"unknown dtype {self.dtype!r}")
        chans = tuple(self.channels)
        if not chans or any(c not in CHANNEL_ORDER for c in chans):
            raise ConfigError(f"bad channel set {self.channels!r}")
        if tuple(c for c in CHANNEL_ORDER if c in chans) != chans:
            raise ConfigError(f"channels must follow order {CHANNEL_ORDER}")
        object.__setattr__(self, "channels", chans)
        if self.readout_channel not in CHANNEL_ORDER + ("auto",):
            raise ConfigError(f"unknown readout_channel {self.readout_channel!r}")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    @property
    def embed_dim(self):
        return self.encoder_dim if self.use_encoder else self.feature_dim

    def layer_in_dim(self, layer):
        return self.embed_dim if layer == 0 else self.hidden_dim

    def metric_in_dim(self, layer):
        if self.metric_input == "distance":
            return 1
        return self.hidden_dim

    @property
    def needs_relative_net(self):
        return "relative" in self.channels

    @property
    def needs_pair_net(self):
        return "similar" in self.channels or "dissimilar" in self.channels

    def resolved_readout(self):
        """The channel predictions actually read. ``auto`` prefers the
        similarity channel, then relative, then dissimilar."""
        if self.readout_channel != "auto":
            if self.readout_channel not in self.channels:
                raise ConfigError(
                    f"readout channel {self.readout_channel!r} is disabled "
                    f"(enabled: {self.channels})"
                )
            return self.readout_channel
        for ch in ("similar", "relative", "dissimilar"):
            if ch in self.channels:
                return ch
        raise ConfigError("no channels enabled")

    def to_dict(self):
        out = asdict(self)
        out["channels"] = list(self.channels)
        return out

    @staticmethod
    def from_dict(d):
        d = dict(d)
        d["channels"] = tuple(d.get("channels", FULL_CHANNELS))
        return ModelConfig(**d)


@dataclass
class ModelParams:
    """All trainable tensors, keyed by stable dotted names."""

    config: ModelConfig
    tensors: dict

    def names(self):
        return list(self.tensors)

    def t(self, name):
        return self.tensors[name]

    def values(self):
        return list(self.tensors.values())

    def zero_grads(self):
        for p in self.tensors.values():
            p.grad = None

    def count(self):
        return sum(p.size for p in self.tensors.values())

    def copy_arrays(self):
        return {name: p.data.copy() for name, p in self.tensors.items()}

    def load_arrays(self, arrays):
        for name, p in self.tensors.items():
            src = np.asarray(arrays[name])
            if src.shape != p.shape:
                raise ShapeError(
                    f"parameter {name}: stored shape {src.shape} != {p.shape}"
                )
            p.data = src.astype(p.dtype, copy=True)


def _xavier(rng, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


def init_params(config, seed=0):
    """Fresh parameters: uniform Xavier weights, zero biases, unit
    standardization gain. Creation order is fixed so a seed pins every
    value."""
    rng = make_rng(seed, 0xA0)
    dtype = config.np_dtype
    tensors = {}

    def linear(prefix, fan_in, fan_out):
        tensors[f"{prefix}.w"] = T.Tensor(
            _xavier(rng, fan_in, fan_out, dtype), requires_grad=True
        )
        tensors[f"{prefix}.b"] = T.Tensor(
            np.zeros(fan_out, dtype=dtype), requires_grad=True
        )

    if config.use_encoder:
        linear("encoder", config.feature_dim, config.encoder_dim)

    n_ch = len(config.channels) + (1 if config.aggregate_self else 0)
    for l in range(config.layers):
        d_in = config.layer_in_dim(l)
        linear(f"layer{l}.vertex", n_ch * d_in, config.hidden_dim)
        if config.standardize_vertex:
            tensors[f"layer{l}.vertex.gain"] = T.Tensor(
                np.ones(config.hidden_dim, dtype=dtype), requires_grad=True
            )
            tensors[f"layer{l}.vertex.shift"] = T.Tensor(
                np.zeros(config.hidden_dim, dtype=dtype), requires_grad=True
            )
        m_in = config.metric_in_dim(l)
        if config.needs_relative_net:
            linear(f"layer{l}.relnet.0", m_in, config.metric_hidden)
            linear(f"layer{l}.relnet.1", config.metric_hidden, config.metric_hidden)
            linear(f"layer{l}.relnet.2", config.metric_hidden, 1)
        if config.needs_pair_net:
            linear(f"layer{l}.pairnet.0", m_in, config.metric_hidden)
            linear(f"layer{l}.pairnet.1", config.metric_hidden, config.metric_hidden)
            linear(f"layer{l}.pairnet.2", config.metric_hidden, 1)
    params = ModelParams(config=config, tensors=tensors)
    if config.metric_init == "kernel":
        _kernel_seed_metric_nets(params, rng)
    return params


def _kernel_seed_metric_nets(params, rng):
    """Reshape every affinity net into a soft distance kernel.

    Plain Xavier starts the nets nearly constant in their input, which
    leaves initial edges uninformative and forces training to discover
    "small distance means strong affinity" from scratch. This overwrite
    makes each net compute roughly sigmoid(bandwidth * (d0 - mean(input)))
    at the start: hidden layers average their input through positive
    weights that keep leaky units in the linear region, and the head
    applies the negative slope. The pivot d0 sits at the typical pair
    distance of standardized features, so scores straddle one half
    instead of pinning to a sigmoid tail. Small noise breaks unit
    symmetry. The net remains a free function of its input; only the
    starting point changes.
    """
    cfg = params.config
    dtype = cfg.np_dtype
    alpha = cfg.metric_bandwidth
    if cfg.metric_input == "distance":
        pivot = float(np.sqrt(2.0 * cfg.hidden_dim))
    else:
        pivot = 1.13
    for l in range(cfg.layers):
        for net in ("relnet", "pairnet"):
            prefix = f"layer{l}.{net}"
            if f"{prefix}.0.w" not in params.tensors:
                continue
            d_in, h = params.t(f"{prefix}.0.w").shape
            noise = 0.02
            params.t(f"{prefix}.0.w").data = (
                np.ones((d_in, h)) / d_in
                + noise * rng.standard_normal((d_in, h))
            ).astype(dtype)
            params.t(f"{prefix}.0.b").data = (
                noise * rng.standard_normal(h)).astype(dtype)
            params.t(f"{prefix}.1.w").data = (
                np.ones((h, h)) / h
                + noise * rng.standard_normal((h, h))
            ).astype(dtype)
            params.t(f"{prefix}.1.b").data = (
                noise * rng.standard_normal(h)).astype(dtype)
            params.t(f"{prefix}.2.w").data = (
                -alpha / h * np.ones((h, 1))
                + noise / h * rng.standard_normal((h, 1))
            ).astype(dtype)
            params.t(f"{prefix}.2.b").data = np.array(
                [alpha * pivot], dtype=dtype)


def _linear(params, prefix, x):
    return T.add(T.matmul(x, params.t(f"{prefix}.w")), params.t(f"{prefix}.b"))


def embed(episode, params):
    """Initial vertex features: the episode's raw vectors, optionally
    passed through the one-layer trainable encoder."""
    cfg = params.config
    feats = T.Tensor(np.asarray(episode.features, dtype=cfg.np_dtype))
    if not cfg.use_encoder:
        return feats
    return T.leaky_relu(_linear(params, "encoder", feats), cfg.leaky_slope)


def metric_net_input(feats, mode):
    """Pair inputs for an affinity net, flattened to (M*M, in_dim)."""
    m, d = feats.shape
    if mode == "distance":
        dist = pairwise_distances(feats)
        return T.reshape(dist, (m * m, 1))
    left = T.reshape(feats, (m, 1, d))
    right = T.reshape(feats, (1, m, d))
    diff = T.sub(left, right)
    return T.reshape(T.absval(diff), (m * m, d))


def metric_scores(params, prefix, feats):
    """Affinity of every vertex pair under one metric net, as (M, M)
    values at least SCORE_EPS away from 0 and 1.

    The margin matters: a raw sigmoid rounds to exactly 1.0 once its
    input passes ~37, and a channel scaled by the complement of a fully
    saturated score row loses its entire affinity mass to rounding. The
    affine squeeze keeps both the score and its complement positive
    while moving mid-range values by less than SCORE_EPS.
    """
    cfg = params.config
    m = feats.shape[0]
    x = metric_net_input(feats, cfg.metric_input)
    h = T.leaky_relu(_linear(params, f"{prefix}.0", x), cfg.leaky_slope)
    h = T.leaky_relu(_linear(params, f"{prefix}.1", h), cfg.leaky_slope)
    out = T.sigmoid(_linear(params, f"{prefix}.2", h))
    out = T.add(SCORE_EPS, T.mul(1.0 - 2.0 * SCORE_EPS, out))
    return T.reshape(out, (m, m))


def channel_normalize(edges):
    """Scale each pair's channel values to sum to one.

    Strict contract: a pair whose channels sum below the guard is a
    numeric error. The forward path uses the zero-preserving variant
    below because ablations with a single label channel legitimately
    produce all-zero pairs at initialization.
    """
    sums = T.tensor_sum(edges, axis=2, keepdims=True)
    if np.any(sums.data < DENOM_EPS):
        i, j, _ = np.unravel_index(
            int(np.argmin(sums.data)), sums.data.shape
        )
        raise NumericError(
            f"channel sum below {DENOM_EPS} at pair ({i}, {j})"
        )
    return T.div(edges, sums)


def normalize_channels_guarded(edges):
    """Channel normalization that maps all-zero pairs to all-zero output
    instead of failing; exact on every pair the strict version accepts."""
    sums = T.tensor_sum(edges, axis=2, keepdims=True)
    dead = sums.data < DENOM_EPS
    if not np.any(dead):
        return T.div(edges, sums)
    dtype = edges.dtype
    keep = T.Tensor((~dead).astype(dtype))
    safe = T.add(sums, T.Tensor(dead.astype(dtype)))
    return T.div(T.mul(edges, keep), safe)


def _require_mass(mass, channels, what):
    """Raise when any entry of an (M, 1, C) per-row, per-channel mass is
    below the guard, naming the row and the channel of the smallest."""
    if np.any(mass.data < DENOM_EPS):
        i, _, c = np.unravel_index(int(np.argmin(mass.data)), mass.shape)
        raise NumericError(f"{what} on row {i}, channel {channels[c]!r}")


def _row_mass(edges, channels, what):
    """Each row's total weight in each channel of an (M, M, C) edge
    tensor, as (M, 1, C); an empty row is a numeric error."""
    mass = T.tensor_sum(edges, axis=1, keepdims=True)
    _require_mass(mass, channels, what)
    return mass


def channel_affinities(channels, rel_scores, pair_scores):
    """The (M, M, C) affinity each enabled channel is rescaled by.

    The relative channel takes the relative-net scores, the similar
    channel the pair-net scores, and the dissimilar channel their
    complement. This is the one place that maps a channel to its
    affinity: the edge update and the structure loss both read it.
    """
    parts = []
    for ch in channels:
        if ch == "relative":
            parts.append(rel_scores)
        elif ch == "similar":
            parts.append(pair_scores)
        else:
            parts.append(T.sub(1.0, pair_scores))
    return T.stack_last(parts)


def vertex_update(u_prev, v_prev, e_prev, params, layer):
    """Re-embed every vertex from its channel-weighted aggregates.

    The relative channel aggregates difference features, the label
    channels aggregate the vertex features themselves. Aggregates are
    concatenated in channel order and mapped through the vertex net.
    The (M, M, C) weights are computed once for all channels: the
    pair-normalized edge values, or under ``neighbor`` normalization the
    edges divided by their per-channel row mass, so each channel is
    row-stochastic; a row with no mass in some channel is a numeric
    error naming the row and the channel.

    ``e_prev`` is the edge tensor to pool over: ``forward`` passes the
    label-blind initial edges to layer 0, so visible labels cannot
    become a feature offset only labelled supports carry (see
    ``forward``), and the previous layer's edges afterwards.
    """
    cfg = params.config
    if cfg.aggregate_normalize == "channel":
        weights = normalize_channels_guarded(e_prev)
    else:
        mass = _row_mass(e_prev, cfg.channels,
                         "vertex aggregation: zero row mass")
        weights = T.div(e_prev, mass)
    parts = [
        T.matmul(T.take_last(weights, idx),
                 v_prev if ch == "relative" else u_prev)
        for idx, ch in enumerate(cfg.channels)
    ]
    if cfg.aggregate_self:
        parts.append(u_prev)
    x = T.concat(parts, axis=1)
    out = _linear(params, f"layer{layer}.vertex", x)
    if cfg.standardize_vertex:
        mean = T.tensor_mean(out, axis=0, keepdims=True)
        centered = T.sub(out, mean)
        var = T.tensor_mean(T.mul(centered, centered), axis=0, keepdims=True)
        out = T.div(centered, T.sqrt(T.add(var, STANDARDIZE_EPS)))
        out = T.add(
            T.mul(out, params.t(f"layer{layer}.vertex.gain")),
            params.t(f"layer{layer}.vertex.shift"),
        )
    u_next = T.leaky_relu(out, cfg.leaky_slope)
    return u_next, relative_features(u_next)


def edge_update(u_l, v_l, e_prev, params, layer, rel_scores=None, pair_scores=None):
    """Evolve every enabled channel, then re-normalize pairs.

    One pass over the (M, M, C) tensor: old values are scaled by the
    fresh channel affinities (``channel_affinities``), then divided by
    their row's affinity-weighted mean, so a uniformly-scored row is
    left unchanged. Row mass and mean are (M, 1, C); a row with no mass,
    or with vanishing affinity mass, in some channel is a numeric error
    naming the row and the channel.

    Affinity matrices may be passed in (stub networks in tests, reuse by
    the structure loss); by default they are computed from this layer's
    features. Returns the retained affinities with the new edge tensor.
    """
    cfg = params.config
    if rel_scores is None and cfg.needs_relative_net:
        rel_scores = metric_scores(params, f"layer{layer}.relnet", v_l)
    if pair_scores is None and cfg.needs_pair_net:
        pair_scores = metric_scores(params, f"layer{layer}.pairnet", u_l)
    row_mass = _row_mass(e_prev, cfg.channels, "edge update: zero total weight")
    scaled = T.mul(channel_affinities(cfg.channels, rel_scores, pair_scores),
                   e_prev)
    mean_score = T.div(T.tensor_sum(scaled, axis=1, keepdims=True), row_mass)
    _require_mass(mean_score, cfg.channels,
                  "edge update: vanishing affinity mass")
    rescaled = T.div(scaled, mean_score)
    return rel_scores, pair_scores, normalize_channels_guarded(rescaled)


@dataclass
class EpisodeGraph:
    """Everything the forward pass produced, level by level.

    Index 0 of ``vertex_feats``/``diff_feats``/``edges`` is the initial
    graph; index l is the state after layer l. The affinity lists have
    one entry per layer (entry l-1 belongs to layer l) and are reused by
    the structure-preservation loss.
    """

    channels: tuple
    vertex_feats: list
    diff_feats: list
    edges: list
    rel_affinities: list
    pair_affinities: list

    @property
    def num_layers(self):
        return len(self.edges) - 1

    @property
    def m(self):
        return self.edges[0].shape[0]


def forward(episode, params):
    """Run the whole model on one episode, retaining every level.

    The first vertex update aggregates over the label-blind initial
    edges (label channels 0.5 on every pair, relative channel as is);
    every later vertex update, every edge update and the readout use
    the labelled edges. Pooled over the labelled initial edges, a
    visible support would average its own class into its similar
    aggregate and the other classes into its dissimilar one, while a
    query pools the whole episode into both. The difference is a
    feature offset only labelled supports carry; it grows with the
    number of visible classmates and moves supports away from their
    queries, so more visible labels would cost accuracy. Labels still
    reach the first edge update, which rescales the labelled edges by
    affinities of the fresh features, and from there every later layer.
    """
    cfg = params.config
    u0 = embed(episode, params)
    v0 = relative_features(u0)
    rel0 = init_relative_channel(v0) if "relative" in cfg.channels else None
    e0 = init_edges(episode, cfg.channels, rel_channel=rel0, dtype=cfg.np_dtype)
    blind0 = init_edges(episode, cfg.channels, rel_channel=rel0,
                        dtype=cfg.np_dtype, labels=False)
    us, vs, es = [u0], [v0], [e0]
    rel_affs, pair_affs = [], []
    for layer in range(cfg.layers):
        pool = blind0 if layer == 0 else es[-1]
        u_l, v_l = vertex_update(us[-1], vs[-1], pool, params, layer)
        rel_s, pair_s, e_l = edge_update(u_l, v_l, es[-1], params, layer)
        us.append(u_l)
        vs.append(v_l)
        es.append(e_l)
        rel_affs.append(rel_s)
        pair_affs.append(pair_s)
    return EpisodeGraph(
        channels=cfg.channels,
        vertex_feats=us,
        diff_feats=vs,
        edges=es,
        rel_affinities=rel_affs,
        pair_affinities=pair_affs,
    )


def config_hash(model_config, extra=None):
    """Stable short fingerprint of a config dict tree."""
    payload = {"model": model_config.to_dict()}
    if extra:
        payload["extra"] = extra
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
