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
from dataclasses import dataclass, asdict, field

import numpy as np

from . import tensor as T
from .data import make_rng
from .errors import ConfigError, DataError, require_count
from .graph import (
    CHANNEL_ORDER,
    DENOM_EPS,
    FULL_CHANNELS,
    channel_sources,
    init_edges,
    init_relative_channel,
    relative_features,
)

STANDARDIZE_EPS = 1e-5

# metric scores live in [SCORE_EPS, 1 - SCORE_EPS]; bounds the logit
# range the edge update can express at about +-16
SCORE_EPS = 1e-7

# rng stream tag of parameter init; train.py has the train and eval tags
STREAM_INIT = 0xA0

# the allowed values of each enumerated ModelConfig field; the command
# line offers the same tuples as its choices
FIELD_CHOICES = {
    "metric_input": ("distance", "absdiff"),
    "dtype": ("float64", "float32"),
}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs.

    ``metric_input`` selects what the per-layer affinity nets consume:
    ``distance`` feeds the scalar pair distance, ``absdiff`` feeds the
    per-dimension absolute difference vector.

    ``aggregate_self`` appends the vertex's own current feature to the
    pooled channel features before the vertex net. Without it a vertex
    is rebuilt purely from its pooled neighborhood. The first update
    pools over the label-blind initial edges (see ``forward``), whose
    label-channel rows are flat for every vertex, so those aggregates
    are the same episode mean for all of them, and only the relative
    channel, when enabled, tells vertices apart; the self term keeps
    each vertex's identity through the update. Off by default; the
    large-episode training configurations enable it.

    ``standardize_vertex`` standardises each vertex-net output column
    over the episode, then applies a learned gain and shift; the shift
    is the net's bias, as a separate one would cancel.
    """

    feature_dim: int
    layers: int = 3
    hidden_dim: int = 32
    use_encoder: bool = True
    encoder_dim: int = 32
    metric_hidden: int = 96
    metric_input: str = "distance"
    channels: tuple = FULL_CHANNELS
    leaky_slope: float = 0.01
    standardize_vertex: bool = False
    aggregate_self: bool = False
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("feature_dim", "layers", "hidden_dim", "encoder_dim",
                     "metric_hidden"):
            require_count(name, getattr(self, name))
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ConfigError(
                f"leaky_slope must be in [0, 1], got {self.leaky_slope}"
            )
        for name, allowed in FIELD_CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        chans = tuple(self.channels)
        if not chans or any(c not in CHANNEL_ORDER for c in chans):
            raise ConfigError(f"bad channel set {self.channels!r}")
        if tuple(c for c in CHANNEL_ORDER if c in chans) != chans:
            raise ConfigError(f"channels must follow order {CHANNEL_ORDER}")
        object.__setattr__(self, "channels", chans)

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

    def to_dict(self):
        out = asdict(self)
        out["channels"] = list(self.channels)
        return out

    @staticmethod
    def from_dict(d):
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

    def flat_grads(self):
        """Every parameter's gradient in one flat vector, in ``names``
        order, zeros where a parameter has none."""
        return np.concatenate([
            np.zeros(p.size, p.dtype) if p.grad is None else p.grad.reshape(-1)
            for p in self.tensors.values()])

    def count(self):
        return sum(p.size for p in self.tensors.values())

    def copy_arrays(self):
        return {name: p.data.copy() for name, p in self.tensors.items()}

    def load_arrays(self, arrays):
        """Copy stored arrays in; a data error names a missing or
        wrong-shape parameter."""
        for name, p in self.tensors.items():
            if name not in arrays:
                raise DataError(f"parameter {name}: not stored")
            src = np.asarray(arrays[name])
            if src.shape != p.shape:
                raise DataError(
                    f"parameter {name}: stored shape {src.shape} != {p.shape}"
                )
            p.data = src.astype(p.dtype, copy=True)


def _xavier(rng, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


def init_params(config, seed=0):
    """Fresh parameters: uniform Xavier weights, zero biases (none for a
    standardised vertex net), unit standardization gain. Creation order
    is fixed so a seed pins every value."""
    rng = make_rng(seed, STREAM_INIT)
    dtype = config.np_dtype
    tensors = {}

    def fill(name, value, size):
        tensors[name] = T.Tensor(np.full(size, value, dtype=dtype),
                                 requires_grad=True)

    def linear(prefix, fan_in, fan_out, bias=True):
        tensors[f"{prefix}.w"] = T.Tensor(
            _xavier(rng, fan_in, fan_out, dtype), requires_grad=True
        )
        if bias:
            fill(f"{prefix}.b", 0.0, fan_out)

    if config.use_encoder:
        linear("encoder", config.feature_dim, config.encoder_dim)

    n_ch = len(config.channels) + (1 if config.aggregate_self else 0)
    for l in range(config.layers):
        d_in = config.layer_in_dim(l)
        linear(f"layer{l}.vertex", n_ch * d_in, config.hidden_dim,
               bias=not config.standardize_vertex)
        if config.standardize_vertex:
            fill(f"layer{l}.vertex.gain", 1.0, config.hidden_dim)
            fill(f"layer{l}.vertex.shift", 0.0, config.hidden_dim)
        m_in = config.metric_in_dim(l)
        if config.needs_relative_net:
            linear(f"layer{l}.relnet.0", m_in, config.metric_hidden)
            linear(f"layer{l}.relnet.1", config.metric_hidden, config.metric_hidden)
            linear(f"layer{l}.relnet.2", config.metric_hidden, 1)
        if config.needs_pair_net:
            linear(f"layer{l}.pairnet.0", m_in, config.metric_hidden)
            linear(f"layer{l}.pairnet.1", config.metric_hidden, config.metric_hidden)
            linear(f"layer{l}.pairnet.2", config.metric_hidden, 1)
    return ModelParams(config=config, tensors=tensors)


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


def metric_scores(params, prefix, feats):
    """Affinity of every vertex pair under one metric net, as (..., M, M)
    values at least SCORE_EPS away from 0 and 1.

    Both net inputs are symmetric in (i, j) and zero on the diagonal:
    the pair distance (``T.pair_distances``) or the per-dimension
    absolute difference (``T.pair_absdiff``). So the net runs once per
    unordered pair, on the M(M - 1)/2 strict-upper pairs plus one zero
    row for the whole diagonal, as one tape node (``T.mlp_scores``), and
    the scores are spread back symmetrically; the output is exactly
    symmetric. Distances come from each episode's Gram product (explicit
    row differences for near pairs only) and run on a table of the net's
    linear pieces; absolute differences run the block kernel. Episodes of
    every size, stacked or not, take these same paths.

    The margin matters: a raw sigmoid rounds to exactly 1.0 once its
    input passes ~37, and a channel scaled by the complement of a fully
    saturated score row loses its entire affinity mass to rounding. The
    affine squeeze keeps both the score and its complement positive
    while moving mid-range values by less than SCORE_EPS.
    """
    cfg = params.config
    if cfg.metric_input == "distance":
        x = T.pair_distances(feats)
    else:
        x = T.pair_absdiff(feats)
    weights = [params.t(f"{prefix}.{k}.{w}") for k in range(3) for w in "wb"]
    scores = T.mlp_scores(x, *weights, slope=cfg.leaky_slope,
                          margin=SCORE_EPS)
    return T.symmetric_from_pairs(scores, feats.shape[-2])


def channel_normalize(edges):
    """Scale each pair's channel values to sum to one.

    A pair whose channels sum below DENOM_EPS maps to all zeros instead:
    ablations with a single label channel start with all-zero pairs.
    """
    return T.normalize_last(edges, DENOM_EPS)


def vertex_update(u_prev, v_prev, e_prev, params, layer):
    """Re-embed every vertex from its channel-weighted aggregates.

    The relative channel aggregates difference features, the label
    channels aggregate the vertex features themselves. Aggregates are
    concatenated in channel order (``T.pool_channels``), followed by the
    self term when enabled, and mapped through the vertex net (under
    ``standardize_vertex``, bias-free and then standardised).

    The (M, M, C) ``e_prev`` values are the pooling weights as they
    are; callers pass pair-normalised edges. ``forward`` passes the
    label-blind initial edges to layer 0, so visible labels cannot
    become a feature offset only labelled supports carry, and the
    previous layer's edges afterwards.
    """
    cfg = params.config
    sources = [v_prev if ch == "relative" else u_prev for ch in cfg.channels]
    x = T.pool_channels(e_prev, sources,
                        tail=u_prev if cfg.aggregate_self else None)
    prefix = f"layer{layer}.vertex"
    if cfg.standardize_vertex:
        out = T.standardize(T.matmul(x, params.t(f"{prefix}.w")),
                            params.t(f"{prefix}.gain"),
                            params.t(f"{prefix}.shift"), STANDARDIZE_EPS)
    else:
        out = _linear(params, prefix, x)
    u_next = T.leaky_relu(out, cfg.leaky_slope)
    return u_next, relative_features(u_next)


def edge_update(u_l, v_l, e_prev, params, layer, rel_scores=None,
                pair_scores=None):
    """Evolve every enabled channel, then re-normalize pairs.

    One node (``T.evolve_edges``): old values are scaled by the fresh
    channel affinities (``channel_sources`` of the scores), then divided
    by their row's affinity-weighted mean, so a uniformly-scored row is
    left unchanged, and each pair is scaled to sum to one over the
    channels (zeros where the channels sum below DENOM_EPS). A row with
    no mass, or with vanishing affinity mass, in some channel is a
    numeric error naming the row and the channel.

    The new edges are a channel-last (..., M, M, C) view of a
    channel-first buffer, so the next layer reads each channel as one
    contiguous (M, M) plane.

    Score matrices may be passed in (stub networks in tests, full and
    possibly asymmetric); by default they are computed from this layer's
    features. Returns the two score matrices (None for a net the
    channels do not use) with the new edge tensor.
    """
    cfg = params.config
    if rel_scores is None and cfg.needs_relative_net:
        rel_scores = metric_scores(params, f"layer{layer}.relnet", v_l)
    if pair_scores is None and cfg.needs_pair_net:
        pair_scores = metric_scores(params, f"layer{layer}.pairnet", u_l)
    sources, complement = channel_sources(cfg.channels, rel_scores,
                                          pair_scores)
    edges = T.evolve_edges(sources, e_prev, complement, cfg.channels,
                           DENOM_EPS)
    return rel_scores, pair_scores, edges


@dataclass
class EpisodeGraph:
    """Everything the forward pass produced, level by level.

    Index 0 of ``vertex_feats``/``diff_feats``/``edges`` is the initial
    graph; index l is the state after layer l. The edges of every layer
    are channel-last (..., M, M, C) views of channel-first buffers.
    ``scores`` has one entry per layer (entry l-1 belongs to layer l):
    the (relative, pair) score matrices that layer's edge update read,
    None for a net the channels do not use; the structure-preservation
    loss builds the layer's affinity stack from them.
    """

    channels: tuple
    vertex_feats: list
    diff_feats: list
    edges: list
    scores: list = field(default_factory=list)

    @property
    def num_layers(self):
        return len(self.edges) - 1

    @property
    def m(self):
        return self.edges[0].shape[-2]


def forward(episode, params):
    """Run the whole model on one episode, retaining every level. A
    stacked episode (``data.stack_episodes``) runs as one pass, every
    tensor carrying its leading episode axis.

    The first vertex update aggregates over the label-blind initial
    edges (label channels 0.5 on every pair, relative channel as is),
    pair-normalised here; every later vertex update, every edge update
    and the readout use the labelled edges, which each edge update
    returns pair-normalised. Pooled over the labelled initial edges, a
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
    blind0 = channel_normalize(init_edges(
        episode, cfg.channels, rel_channel=rel0, dtype=cfg.np_dtype,
        labels=False))
    us, vs, es, scores = [u0], [v0], [e0], []
    for layer in range(cfg.layers):
        pool = blind0 if layer == 0 else es[-1]
        u_l, v_l = vertex_update(us[-1], vs[-1], pool, params, layer)
        rel, pair, e_l = edge_update(u_l, v_l, es[-1], params, layer)
        us.append(u_l)
        vs.append(v_l)
        es.append(e_l)
        scores.append((rel, pair))
    return EpisodeGraph(
        channels=cfg.channels,
        vertex_feats=us,
        diff_feats=vs,
        edges=es,
        scores=scores,
    )


def config_hash(tree):
    """Stable short fingerprint of any JSON tree: the first 16 hex
    digits of the SHA-256 of its sorted, compact JSON. Checkpoints
    (``TrainConfig.fingerprint``) and run manifests are stamped with it,
    so a change to the recipe orphans every file saved before it."""
    blob = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
