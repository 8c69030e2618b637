"""Readout, per-layer classification loss, and the structure loss.

The readout turns query-to-support edge values into class scores; the
classification loss sums per-layer cross-entropies (each one a mean over
queries); the structure loss asks each layer's affinities to honor the
previous layer's edge values, averaged per pair so its scale does not
grow with episode size; ``report_losses`` sums the two into the one
training objective. For a stacked episode (``data.stack_episodes``)
every loss and accuracy is one value per episode, along the leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .graph import complemented, readout_for, stack_channels


def _readout(graph, episode):
    """The keyword arguments of ``T.readout_probs`` and ``T.readout_ce``
    for an episode: the query rows of the edge tensor, the channel read
    (``readout_for`` of the graph's channels, as its complement if
    ``complemented``), and the constant visible-support-by-class
    indicator, (..., M, n)."""
    idx = graph.channels.index(readout_for(graph.channels))
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


def episodic_ce(graph, episode, per_layer=None):
    """Total classification loss: the per-layer means, summed. Each
    level's cross-entropy, meaned over queries, is one ``T.readout_ce``
    node, appended to the list ``per_layer`` when one is given."""
    readout = _readout(graph, episode)
    truth = query_slots(episode)
    terms = [T.readout_ce(graph.edges[layer], truth=truth, **readout)
             for layer in range(1, graph.num_layers + 1)]
    if per_layer is not None:
        per_layer.extend(terms)
    return reduce(T.add, terms)


def manifold_loss(graph, per_layer=None):
    """Total structure-preservation loss over layers and channels.

    Layer l weighs its fresh channel affinities (the (..., M, M, C)
    stack its edge update rescaled by, built here by ``stack_channels``
    from the scores in ``graph.scores``) by the previous level's edge
    values, channel-last views of channel-first buffers; each channel's
    term is a mean over all M*M pairs. The list ``per_layer``, if given,
    gets each layer's terms.
    """
    terms = [T.pair_mean_product(stack_channels(graph.channels, rel, pair),
                                 edges)
             for (rel, pair), edges in zip(graph.scores, graph.edges)]
    if per_layer is not None:
        per_layer.extend(terms)
    return T.tensor_sum(reduce(T.add, terms), axis=-1)


def total_loss(ce, structure, weight):
    """Classification plus weighted structure loss."""
    if not 0 <= weight < np.inf:
        raise ConfigError(
            f"structure loss weight must be finite and >= 0, got {weight}")
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
    """The one assembly of the training objective, which ``train``
    differentiates, from one ``episodic_ce`` and one ``manifold_loss``
    call. Returns (total Tensor, LossReport of their per-layer terms);
    backward runs on the Tensor, the report is safe to stash or
    serialize."""
    ce_layers, ml_layers = [], []
    ce = episodic_ce(graph, episode, ce_layers)
    ml = manifold_loss(graph, ml_layers)
    total = total_loss(ce, ml, weight)
    report = LossReport(
        ce_per_layer=[t.data.tolist() for t in ce_layers],
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
