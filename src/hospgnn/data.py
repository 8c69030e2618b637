"""Embedding datasets and N-way-K-shot episode sampling.

Feature vectors are stored at float32 precision: the text format writes
9 significant digits, which round-trips float32 exactly, so a written
and reloaded dataset is bit-identical to the original.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError

SPLITS = ("train", "validation", "test")

HEADER_MAGIC = "HOSPEMB"
HEADER_VERSION = "v1"


def make_rng(seed, *tags):
    """An independent generator for (seed, purpose) so parallel samplers
    and repeated phases never share a stream."""
    return np.random.default_rng([int(seed), *[int(t) for t in tags]])


@dataclass(frozen=True)
class EmbeddingDataset:
    """Class-labeled feature vectors for one split."""

    dim: int
    features: np.ndarray
    labels: np.ndarray
    split: str

    _by_class: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r}, expected one of {SPLITS}")
        feats = np.asarray(self.features, dtype=np.float32)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[1] != self.dim:
            raise DataError(
                f"features must be (n, {self.dim}), got {feats.shape}"
            )
        if labels.shape != (feats.shape[0],):
            raise DataError("labels must align with feature rows")
        if feats.shape[0] == 0:
            raise DataError("dataset has no items")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        by_class = {}
        for c in np.unique(labels):
            by_class[int(c)] = np.flatnonzero(labels == c)
        object.__setattr__(self, "_by_class", by_class)

    def __len__(self):
        return self.features.shape[0]

    @property
    def classes(self):
        """Sorted class ids present in this split."""
        return tuple(sorted(self._by_class))

    def class_items(self, class_id):
        try:
            return self._by_class[int(class_id)]
        except KeyError:
            raise DataError(
                f"class {class_id} not present in {self.split} split"
            ) from None


@dataclass(frozen=True)
class Episode:
    """One sampled classification task in canonical vertex order.

    Order is fixed: support items grouped by class slot, then query items
    grouped by class slot. Downstream relative features depend on it, so
    it is recorded here and never re-derived.

    ``class_slots`` holds within-episode labels 0..N-1; ``class_ids``
    maps each slot back to the dataset class. ``label_mask`` is true only
    for support vertices whose label is visible; every query is false.

    A stack of same-shape episodes (``stack_episodes``) is an Episode
    too, whose arrays carry a leading episode axis; ``m`` and
    ``is_query`` hold for each of them.
    """

    n_way: int
    k_shot: int
    n_query: int
    features: np.ndarray
    class_slots: np.ndarray
    label_mask: np.ndarray
    class_ids: np.ndarray
    item_indices: np.ndarray

    @property
    def m(self):
        return self.n_way * (self.k_shot + self.n_query)

    @property
    def support_count(self):
        return self.n_way * self.k_shot

    @property
    def is_query(self):
        mask = np.zeros(self.m, dtype=bool)
        mask[self.support_count:] = True
        return mask


def stack_episodes(episodes):
    """Same-shape episodes as one Episode, each array stacked along a new
    leading axis in list order; the model runs it as one pass."""
    if not episodes:
        raise DataError("no episodes to stack")
    shapes = {(ep.n_way, ep.k_shot, ep.n_query) for ep in episodes}
    if len(shapes) > 1:
        raise DataError(f"cannot stack episodes of shapes {sorted(shapes)}")
    first = episodes[0]
    return Episode(
        n_way=first.n_way,
        k_shot=first.k_shot,
        n_query=first.n_query,
        **{name: np.stack([getattr(ep, name) for ep in episodes])
           for name in ("features", "class_slots", "label_mask",
                        "class_ids", "item_indices")},
    )


def visible_per_class(label_fraction, k_shot):
    """Visible support labels per class: ceil of fraction·K, at least 1.

    The small slack absorbs binary representation of fractions like 0.4,
    whose product with K lands a hair above the integer it names.
    """
    if not (0.0 < label_fraction <= 1.0):
        raise DataError(f"label_fraction must be in (0, 1], got {label_fraction}")
    return max(1, math.ceil(label_fraction * k_shot - 1e-9))


def sample_episode(ds, n_way, k_shot, n_query, label_fraction=1.0, rng=None):
    """Draw classes, then items, then the label mask, in that order.

    The phase order means two samplers differing only in label_fraction
    select identical vertices, so semi-supervised runs are compared on
    the same tasks.
    """
    if rng is None:
        raise DataError("sample_episode requires an explicit rng")
    if n_way < 2 or k_shot < 1 or n_query < 1:
        raise DataError(
            f"need n_way >= 2, k_shot >= 1, n_query >= 1; "
            f"got {n_way}, {k_shot}, {n_query}"
        )
    classes = ds.classes
    if len(classes) < n_way:
        raise DataError(
            f"split {ds.split!r} has {len(classes)} classes, episode needs {n_way}"
        )
    need = k_shot + n_query
    chosen = rng.choice(len(classes), size=n_way, replace=False)
    class_ids = np.array([classes[i] for i in chosen], dtype=np.int64)

    support_idx = np.empty((n_way, k_shot), dtype=np.int64)
    query_idx = np.empty((n_way, n_query), dtype=np.int64)
    for slot, cid in enumerate(class_ids):
        pool = ds.class_items(cid)
        if pool.size < need:
            raise DataError(
                f"class {cid} has {pool.size} items, episode needs {need}"
            )
        picks = rng.choice(pool.size, size=need, replace=False)
        support_idx[slot] = pool[picks[:k_shot]]
        query_idx[slot] = pool[picks[k_shot:]]

    n_visible = visible_per_class(label_fraction, k_shot)
    mask_rows = np.zeros((n_way, k_shot), dtype=bool)
    for slot in range(n_way):
        vis = rng.choice(k_shot, size=n_visible, replace=False)
        mask_rows[slot, vis] = True

    item_indices = np.concatenate([support_idx.reshape(-1), query_idx.reshape(-1)])
    features = ds.features[item_indices]
    class_slots = np.concatenate([
        np.repeat(np.arange(n_way), k_shot),
        np.repeat(np.arange(n_way), n_query),
    ])
    label_mask = np.concatenate([
        mask_rows.reshape(-1),
        np.zeros(n_way * n_query, dtype=bool),
    ])
    return Episode(
        n_way=n_way,
        k_shot=k_shot,
        n_query=n_query,
        features=features,
        class_slots=class_slots,
        label_mask=label_mask,
        class_ids=class_ids,
        item_indices=item_indices,
    )


def synth_clusters(n_classes, per_class, dim, sep, noise_sigma=1.0, seed=0,
                   split="train"):
    """Gaussian blobs with means on a sphere of radius sep·noise_sigma.

    sep around 6 gives clusters a nearest-mean oracle separates almost
    perfectly; sep 0 collapses every class onto one distribution.
    """
    if n_classes < 1 or per_class < 1 or dim < 1:
        raise DataError("n_classes, per_class, dim must all be positive")
    if sep < 0:
        raise DataError(f"sep must be non-negative, got {sep}")
    if noise_sigma <= 0:
        raise DataError(f"noise_sigma must be positive, got {noise_sigma}")
    rng = make_rng(seed, 0xD5)
    raw = rng.standard_normal((n_classes, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = raw / norms * (sep * noise_sigma)
    feats = np.repeat(means, per_class, axis=0)
    feats = feats + noise_sigma * rng.standard_normal(feats.shape)
    labels = np.repeat(np.arange(n_classes), per_class)
    return EmbeddingDataset(
        dim=dim,
        features=feats.astype(np.float32),
        labels=labels,
        split=split,
    )


def load_dataset(path, split):
    """Parse a HOSPEMB v1 text file into a dataset."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a readable text file ({exc})") from None

    if not lines:
        raise FormatError(f"{path}: empty file, no header line")
    # the header owns line 1; comments and blank lines are only
    # tolerated among the data rows
    header = lines[0].strip()
    header_line = 1
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        rows.append((lineno, text))
    parts = header.split()
    if (
        len(parts) != 4
        or parts[0] != HEADER_MAGIC
        or parts[1] != HEADER_VERSION
        or not parts[2].startswith("dim=")
        or not parts[3].startswith("count=")
    ):
        raise FormatError(
            f"{path} line {header_line}: bad header {header!r}, "
            f"expected 'HOSPEMB v1 dim=<d> count=<n>'"
        )
    try:
        dim = int(parts[2][4:])
        count = int(parts[3][6:])
    except ValueError:
        raise FormatError(
            f"{path} line {header_line}: dim/count must be integers"
        ) from None
    if dim < 1:
        raise FormatError(f"{path} line {header_line}: dim must be positive")
    if count < 1:
        raise FormatError(f"{path} line {header_line}: count must be positive")
    if len(rows) != count:
        raise FormatError(
            f"{path}: header says count={count} but found {len(rows)} data rows"
        )

    labels = np.empty(count, dtype=np.int64)
    feats = np.empty((count, dim), dtype=np.float32)
    for r, (lineno, text) in enumerate(rows):
        fields = text.split()
        if len(fields) != dim + 1:
            raise FormatError(
                f"{path} line {lineno}: expected class id plus {dim} values, "
                f"got {len(fields)} fields"
            )
        try:
            labels[r] = int(fields[0])
        except ValueError:
            raise FormatError(
                f"{path} line {lineno}: class id {fields[0]!r} is not an integer"
            ) from None
        try:
            feats[r] = [float(x) for x in fields[1:]]
        except ValueError:
            raise FormatError(
                f"{path} line {lineno}: non-numeric feature value"
            ) from None
        if not np.all(np.isfinite(feats[r])):
            raise FormatError(f"{path} line {lineno}: non-finite feature value")
    return EmbeddingDataset(dim=dim, features=feats, labels=labels, split=split)


def write_dataset(ds, path):
    """Write a dataset in the HOSPEMB v1 text format (9 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{HEADER_MAGIC} {HEADER_VERSION} dim={ds.dim} count={len(ds)}\n")
        for label, row in zip(ds.labels, ds.features):
            values = " ".join("%.9g" % float(x) for x in row)
            fh.write(f"{int(label)} {values}\n")


def synth_benchmark(n_train, n_val, n_test, per_class, dim, sep,
                    noise_sigma=1.0, seed=0):
    """Three synthetic splits with pairwise disjoint class sets.

    One pool of n_train + n_val + n_test cluster means is drawn, then
    partitioned by class, so held-out splits contain classes the training
    split never saw.
    """
    total = n_train + n_val + n_test
    pool = synth_clusters(total, per_class, dim, sep, noise_sigma, seed)

    def subset(lo, hi, split):
        mask = (pool.labels >= lo) & (pool.labels < hi)
        return EmbeddingDataset(
            dim=dim,
            features=pool.features[mask],
            labels=pool.labels[mask],
            split=split,
        )

    return (
        subset(0, n_train, "train"),
        subset(n_train, n_train + n_val, "validation"),
        subset(n_train + n_val, total, "test"),
    )
