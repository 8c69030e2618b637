"""Initial episode graph: embeddings, chained differences, edge channels.

Edge tensors carry up to three channels, in this fixed order:

* ``relative``    affinity of chained-difference features (leave-one-link
                  structure of the whole episode, not a pairwise quantity)
* ``similar``     evidence that two vertices share a class
* ``dissimilar``  evidence that they do not

Ablation variants drop channels; every function here takes the enabled
channel tuple and produces tensors with exactly that many channels, in
the order above. A stacked episode (``data.stack_episodes``) gives every
array a leading episode axis, which each function here carries along.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, DegenerateEpisodeError, ShapeError

CHANNEL_ORDER = ("relative", "similar", "dissimilar")
FULL_CHANNELS = CHANNEL_ORDER

DENOM_EPS = 1e-12

# single-letter spellings accepted by configs and the command line;
# "h" is a historical alias for the relative channel
_LETTERS = {"r": "relative", "h": "relative", "s": "similar", "d": "dissimilar"}


def parse_variant(text):
    """Translate a variant string into the enabled channel tuple.

    ``full`` enables everything; otherwise each letter of the string
    enables one channel (``rs``, ``sd``, ``d``, ...).
    """
    name = str(text).strip().lower()
    if name == "full":
        return FULL_CHANNELS
    enabled = set()
    for letter in name:
        if letter not in _LETTERS:
            raise ConfigError(
                f"unknown variant {text!r}: use 'full' or letters from r/s/d"
            )
        channel = _LETTERS[letter]
        if channel in enabled:
            raise ConfigError(f"variant {text!r} names {channel} twice")
        enabled.add(channel)
    if not enabled:
        raise ConfigError("variant enables no channels")
    return tuple(ch for ch in CHANNEL_ORDER if ch in enabled)


def readout_for(channels):
    """The channel labels are read from: similar, else relative, else
    dissimilar, whichever of them is enabled first."""
    return next(ch for ch in ("similar", "relative", "dissimilar")
                if ch in channels)


def relative_features(feats):
    """Chained differences: row i becomes row i minus the next row,
    wrapping the last row around to the first (``u - roll(u, -1)``), in
    each (M, d) block of an (..., M, d) tensor.

    The episode's canonical vertex order fixes which difference each row
    is; rows telescope to zero when summed.
    """
    feats = T._as_tensor(feats)
    if feats.ndim < 2:
        raise ShapeError(f"expected (..., M, d) features, got {feats.shape}")
    if feats.shape[-2] < 2:
        raise ShapeError(f"need at least 2 vertices, got {feats.shape[-2]}")

    def vjp(g):
        return (g - np.roll(g, 1, axis=-2),)

    return T._emit(feats.data - np.roll(feats.data, -1, axis=-2), (feats,),
                   vjp)


def pairwise_distances(feats):
    """Euclidean distance between every pair of rows, as (..., M, M)
    matrices: the ``T.pair_distances`` rows spread back symmetrically
    (bitwise), with an exactly zero diagonal."""
    feats = T._as_tensor(feats)
    return T.symmetric_from_pairs(T.pair_distances(feats), feats.shape[-2])


def init_relative_channel(rel_feats):
    """Initial relative-channel affinities.

    Entry (i, j) is one minus the distance between difference rows i and
    j, scaled by row i's total distance to every row (including itself
    and j). Diagonals are exactly 1 and each row sums to M - 1. The
    scaling is per-row, so the matrix is not symmetric in general.
    """
    dist = pairwise_distances(rel_feats)
    totals = T.tensor_sum(dist, axis=-1, keepdims=True)
    bad = totals.data < DENOM_EPS
    if np.any(bad):
        bad = bad.reshape(-1, dist.shape[-1])
        episode = int(np.flatnonzero(bad.any(axis=1))[0])
        rows = np.flatnonzero(bad[episode])
        where = f"episode {episode}, " if dist.ndim > 2 else ""
        raise DegenerateEpisodeError(
            f"all difference features coincide (zero distance total at "
            f"{where}row{'s' if rows.size > 1 else ''} {rows.tolist()})"
        )
    return T.sub(1.0, T.div(dist, totals))


def label_agreement_masks(episode):
    """Boolean (..., M, M) masks: pairs of label-visible supports that
    agree, and that disagree. Everything else (any query or hidden
    endpoint) is in neither mask."""
    visible, slots = episode.label_mask, episode.class_slots
    both = visible[..., :, None] & visible[..., None, :]
    same = slots[..., :, None] == slots[..., None, :]
    return both & same, both & ~same


def complemented(channels):
    """Indices of the channels stacked as ``1 - pair`` (the dissimilar)."""
    return tuple(k for k, ch in enumerate(channels) if ch == "dissimilar")


def channel_sources(channels, relative, pair):
    """The (..., M, M) tensor each enabled channel reads, and the indices
    of those read as one minus it: the relative channel reads
    ``relative``, the similar one ``pair``, the dissimilar one ``1 -
    pair``. The readout reads the same ``complemented``."""
    if "relative" in channels and relative is None:
        raise ShapeError("relative channel enabled but not provided")
    return ([relative if ch == "relative" else pair for ch in channels],
            complemented(channels))


def stack_channels(channels, relative, pair):
    """The (..., M, M, C) stack of the enabled channels
    (``channel_sources``), as one node. It builds the initial edges, and
    the structure loss builds each layer's affinities with it."""
    return T.stack_last(*channel_sources(channels, relative, pair))


def init_edges(episode, channels, rel_channel=None, dtype=np.float64,
               labels=True):
    """Stack the enabled channels of the initial edge tensor, unnormalised.

    Label channels: agreeing visible-support pairs get (similar 1,
    dissimilar 0), disagreeing ones (0, 1), and every pair touching a
    query or hidden support gets (0.5, 0.5). The diagonal follows the
    same rule, so a visible support is "similar" to itself; diagonals
    never reach the readout, which skips self-edges by construction.

    ``labels=False`` gives the label-blind form: (0.5, 0.5) on every
    pair, the relative channel unchanged. The first vertex update
    aggregates over it, pair-normalised (see ``model.forward``); the
    first edge update and the readout use the labelled form.
    """
    similar = np.full(episode.label_mask.shape + (episode.m,), 0.5,
                      dtype=dtype)
    if labels:
        agree, disagree = label_agreement_masks(episode)
        similar[agree] = 1.0
        similar[disagree] = 0.0
    return stack_channels(channels, rel_channel, T.Tensor(similar))
