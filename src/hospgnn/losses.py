"""Readout, per-layer classification loss, and the structure loss.

The readout turns query-to-support edge values into class scores; the
classification loss sums per-layer cross-entropies (each one a mean over
queries); the structure loss asks each layer's affinities to honor the
previous layer's edge values, averaged per pair so its scale does not
grow with episode size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .graph import channel_index
from .model import channel_affinities


def _readout_matrices(episode, dtype):
    """Constant selectors: query rows of the edge tensor, and the
    visible-support-by-class indicator."""
    m = episode.m
    n = episode.n_way
    queries = np.flatnonzero(episode.is_query)
    picker = np.zeros((queries.size, m), dtype=dtype)
    picker[np.arange(queries.size), queries] = 1.0
    indicator = np.zeros((m, n), dtype=dtype)
    for j in np.flatnonzero(episode.label_mask):
        indicator[j, episode.class_slots[j]] = 1.0
    per_class = indicator.sum(axis=0)
    if np.any(per_class < 1):
        missing = np.flatnonzero(per_class < 1).tolist()
        raise DataError(f"no visible support for class slot(s) {missing}")
    return picker, indicator


def predict_labels(graph, episode, channel=None, layer=None):
    """Class probabilities for every query at one level.

    Scores for class c aggregate the query's edge values to the visible
    supports of c (self-edges cannot occur: a query is never a support).
    The dissimilar channel is read as its complement, one minus the
    value, so larger always means more alike. Rows are softmax over the
    episode's classes, ordered by class slot.
    """
    cfg_channels = graph.channels
    if channel is None:
        channel = "similar" if "similar" in cfg_channels else (
            "relative" if "relative" in cfg_channels else "dissimilar"
        )
    if layer is None:
        layer = graph.num_layers
    if not (1 <= layer <= graph.num_layers):
        raise ConfigError(f"layer must be in 1..{graph.num_layers}, got {layer}")
    idx = channel_index(cfg_channels, channel)
    edges = T.take_last(graph.edges[layer], idx)
    if channel == "dissimilar":
        edges = T.sub(1.0, edges)
    picker, indicator = _readout_matrices(episode, edges.dtype)
    logits = T.matmul(T.matmul(T.Tensor(picker), edges), T.Tensor(indicator))
    return T.softmax(logits, axis=-1)


def hard_labels(pred_rows):
    """Argmax class slot per query row."""
    data = pred_rows.data if isinstance(pred_rows, T.Tensor) else np.asarray(pred_rows)
    return np.argmax(data, axis=1)


def query_slots(episode):
    return episode.class_slots[episode.is_query]


def accuracy(graph, episode, channel=None, layer=None):
    """Fraction of queries whose top class at the final level is right."""
    rows = predict_labels(graph, episode, channel=channel, layer=layer)
    return float(np.mean(hard_labels(rows) == query_slots(episode)))


def per_layer_ce(graph, episode, channel=None):
    """Cross-entropy of each level's predictions, meaned over queries."""
    truth = query_slots(episode)
    losses = []
    for layer in range(1, graph.num_layers + 1):
        rows = predict_labels(graph, episode, channel=channel, layer=layer)
        onehot = np.zeros(rows.shape, dtype=rows.dtype)
        onehot[np.arange(truth.size), truth] = 1.0
        picked = T.tensor_sum(T.mul(rows, T.Tensor(onehot)), axis=1)
        losses.append(T.neg(T.tensor_mean(T.log(picked))))
    return losses


def _add_all(terms):
    """Sum of a non-empty list of tensors, in list order."""
    out = terms[0]
    for term in terms[1:]:
        out = T.add(out, term)
    return out


def episodic_ce(graph, episode, channel=None):
    """Total classification loss: the per-layer means, summed."""
    return _add_all(per_layer_ce(graph, episode, channel=channel))


def per_layer_manifold(graph):
    """Structure terms per layer, each a (C,) tensor in channel order.

    Layer l weighs its fresh channel affinities (``channel_affinities``,
    the same ones its edge update rescaled by) by the previous level's
    edge values; each channel's term is a mean over all M*M pairs.
    """
    return [
        T.tensor_mean(
            T.mul(
                channel_affinities(graph.channels,
                                   graph.rel_affinities[layer],
                                   graph.pair_affinities[layer]),
                graph.edges[layer],
            ),
            axis=(0, 1),
        )
        for layer in range(graph.num_layers)
    ]


def manifold_loss(graph):
    """Total structure-preservation loss over layers and channels."""
    return T.tensor_sum(_add_all(per_layer_manifold(graph)))


def total_loss(ce, structure, weight):
    """Classification plus weighted structure loss."""
    if weight < 0:
        raise ConfigError(f"structure loss weight must be >= 0, got {weight}")
    if weight == 0:
        return ce
    return T.add(ce, T.mul(structure, weight))


@dataclass
class LossReport:
    """Scalar views of one episode's losses, for logging."""

    ce_per_layer: list
    structure_per_layer: list
    weight: float
    ce: float
    structure: float
    total: float


def report_losses(graph, episode, weight, channel=None):
    """Compute the training loss and a float-only report together.

    Returns (total Tensor, LossReport); the Tensor is what backward runs
    on, the report is safe to stash or serialize.
    """
    ce_terms = per_layer_ce(graph, episode, channel=channel)
    ce = _add_all(ce_terms)
    ml_layers = per_layer_manifold(graph)
    ml = T.tensor_sum(_add_all(ml_layers))
    total = total_loss(ce, ml, weight)
    report = LossReport(
        ce_per_layer=[float(t.data) for t in ce_terms],
        structure_per_layer=[
            dict(zip(graph.channels, terms.data.tolist()))
            for terms in ml_layers
        ],
        weight=float(weight),
        ce=float(ce.data),
        structure=float(ml.data),
        total=float(total.data),
    )
    return total, report
