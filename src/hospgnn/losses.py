"""Readout, per-layer classification loss, and the structure loss.

The readout turns query-to-support edge values into class scores; the
classification loss sums per-layer cross-entropies (each one a mean over
queries); the structure loss asks each layer's affinities to honor the
previous layer's edge values, averaged per pair so its scale does not
grow with episode size. For a stacked episode (``data.stack_episodes``)
every loss and accuracy is one value per episode, along the leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .graph import channel_index, complemented, readout_for


def _readout(graph, episode):
    """The keyword arguments of ``T.readout_probs`` and ``T.readout_ce``
    for an episode: the query rows of the edge tensor, the channel read
    (``readout_for`` of the graph's channels, as its complement if
    ``complemented``), and the constant visible-support-by-class
    indicator, (..., M, n)."""
    idx = channel_index(graph.channels, readout_for(graph.channels))
    visible = episode.label_mask
    indicator = np.zeros(visible.shape + (episode.n_way,),
                         dtype=graph.edges[0].dtype)
    indicator[visible, episode.class_slots[visible]] = 1.0
    empty = (indicator.sum(axis=-2) < 1).reshape(-1, episode.n_way)
    if np.any(empty):
        missing = np.flatnonzero(empty.any(axis=0)).tolist()
        raise DataError(f"no visible support for class slot(s) {missing}")
    return dict(queries=np.flatnonzero(episode.is_query), channel=idx,
                indicator=indicator,
                complement=idx in complemented(graph.channels))


def predict_labels(graph, episode, layer=None):
    """Class probabilities for every query at one level.

    Scores for class c aggregate the query's edge values to the visible
    supports of c (self-edges cannot occur: a query is never a support)
    in the one channel ``readout_for`` picks from the enabled channels.
    The dissimilar channel is read as its complement, one minus the
    value, so larger always means more alike. Rows are softmax over the
    episode's classes, ordered by class slot.

    The probabilities are values, recorded on no tape: the training
    loss differentiates the same scores through ``T.readout_ce``.
    """
    if layer is None:
        layer = graph.num_layers
    if not (1 <= layer <= graph.num_layers):
        raise ConfigError(f"layer must be in 1..{graph.num_layers}, got {layer}")
    return T.Tensor(T.readout_probs(graph.edges[layer].data,
                                    **_readout(graph, episode)))


def hard_labels(pred_rows):
    """Argmax class slot per query row of ``predict_labels`` output."""
    return np.argmax(pred_rows.data, axis=-1)


def query_slots(episode):
    return episode.class_slots[..., episode.is_query]


def accuracy(graph, episode):
    """Fraction of queries whose top class at the final level is right,
    per episode: a float, or an array over a stacked episode's axis."""
    rows = predict_labels(graph, episode)
    return np.mean(hard_labels(rows) == query_slots(episode), axis=-1)


def per_layer_ce(graph, episode):
    """Cross-entropy of each level's predictions, meaned over queries,
    one ``T.readout_ce`` node per level."""
    readout = _readout(graph, episode)
    truth = query_slots(episode)
    return [T.readout_ce(graph.edges[layer], truth=truth, **readout)
            for layer in range(1, graph.num_layers + 1)]


def _add_all(terms):
    """Sum of a non-empty list of tensors, in list order."""
    out = terms[0]
    for term in terms[1:]:
        out = T.add(out, term)
    return out


def episodic_ce(graph, episode):
    """Total classification loss: the per-layer means, summed."""
    return _add_all(per_layer_ce(graph, episode))


def per_layer_manifold(graph):
    """Structure terms per layer, each a (C,) tensor in channel order.

    Layer l weighs its fresh channel affinities (the stack its edge
    update rescaled by, kept in ``graph.affinities``) by the previous
    level's edge values; each channel's term is a mean over all M*M
    pairs.
    """
    return [
        T.pair_mean_product(stack, edges)
        for stack, edges in zip(graph.affinities, graph.edges)
    ]


def manifold_loss(graph):
    """Total structure-preservation loss over layers and channels."""
    return T.tensor_sum(_add_all(per_layer_manifold(graph)), axis=-1)


def total_loss(ce, structure, weight):
    """Classification plus weighted structure loss."""
    if weight < 0:
        raise ConfigError(f"structure loss weight must be >= 0, got {weight}")
    if weight == 0:
        return ce
    return T.add(ce, T.mul(structure, weight))


@dataclass
class LossReport:
    """Views of an episode's losses, for logging: floats, or for a
    stacked episode lists with one value per episode."""

    ce_per_layer: list
    structure_per_layer: list
    weight: float
    ce: float
    structure: float
    total: float


def report_losses(graph, episode, weight):
    """Compute the training loss and a number-only report together.

    Returns (total Tensor, LossReport); the Tensor is what backward runs
    on, the report is safe to stash or serialize.
    """
    ce_terms = per_layer_ce(graph, episode)
    ce = _add_all(ce_terms)
    ml_layers = per_layer_manifold(graph)
    ml = T.tensor_sum(_add_all(ml_layers), axis=-1)
    total = total_loss(ce, ml, weight)
    report = LossReport(
        ce_per_layer=[t.data.tolist() for t in ce_terms],
        structure_per_layer=[
            dict(zip(graph.channels, np.moveaxis(terms.data, -1, 0).tolist()))
            for terms in ml_layers
        ],
        weight=float(weight),
        ce=ce.data.tolist(),
        structure=ml.data.tolist(),
        total=total.data.tolist(),
    )
    return total, report
