import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hospgnn.data import (
    EmbeddingDataset,
    load_dataset,
    make_rng,
    sample_episode,
    stack_episodes,
    synth_benchmark,
    synth_clusters,
    visible_per_class,
    write_dataset,
)
from hospgnn.errors import DataError, FormatError


class TestFileFormat:
    def test_round_trip_preserves_float32_exactly(self, tmp_path):
        ds = synth_clusters(3, 5, 7, sep=2.0, seed=42)
        path = tmp_path / "emb.txt"
        write_dataset(ds, path)
        back = load_dataset(path, split="train")
        assert back.dim == ds.dim
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_comments_and_blank_lines_after_header_are_skipped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(
            "HOSPEMB v1 dim=2 count=2\n"
            "\n"
            "0 1.5 -2.25\n"
            "# midway note\n"
            "1 0.0 3.0\n"
        )
        ds = load_dataset(path, split="validation")
        assert ds.features.shape == (2, 2)
        assert ds.labels.tolist() == [0, 1]
        assert ds.split == "validation"

    def test_negative_class_ids_are_legal(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("HOSPEMB v1 dim=2 count=1\n-1 1 2\n")
        ds = load_dataset(path, split="train")
        assert ds.labels.tolist() == [-1]

    @pytest.mark.parametrize(
        "body",
        [
            "NOTHOSP v1 dim=2 count=1\n0 1 2\n",
            "HOSPEMB v2 dim=2 count=1\n0 1 2\n",
            "HOSPEMB v1 dim=nope count=1\n0 1 2\n",
            "HOSPEMB v1 dim=2 count=2\n0 1 2\n",
            "HOSPEMB v1 dim=2 count=1\n0 1\n",
            "HOSPEMB v1 dim=2 count=1\n0 1 2 3\n",
            "HOSPEMB v1 dim=2 count=1\n0 1 banana\n",
            "HOSPEMB v1 dim=2 count=1\nx 1 2\n",
            "# leading comment\nHOSPEMB v1 dim=2 count=1\n0 1 2\n",
            "HOSPEMB v1 dim=2 count=1\n0 1 inf\n",
            "HOSPEMB v1 dim=2 count=1\n0 nan 2\n",
            "0 1 2\n",
        ],
    )
    def test_malformed_files_raise_format_error(self, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(FormatError) as exc:
            load_dataset(path, split="train")
        assert "bad.txt" in str(exc.value)

    def test_error_names_offending_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("HOSPEMB v1 dim=2 count=2\n0 1 2\n1 oops 4\n")
        with pytest.raises(FormatError, match="line 3"):
            load_dataset(path, split="train")

    def test_bad_split_name_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_dataset(synth_clusters(2, 2, 2, sep=1.0, seed=0), path)
        with pytest.raises(DataError):
            load_dataset(path, split="holdout")


class TestSynth:
    def test_same_seed_is_bitwise_identical(self):
        a = synth_clusters(4, 6, 8, sep=3.0, seed=9)
        b = synth_clusters(4, 6, 8, sep=3.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synth_clusters(4, 6, 8, sep=3.0, seed=9)
        b = synth_clusters(4, 6, 8, sep=3.0, seed=10)
        assert not np.array_equal(a.features, b.features)

    def test_shapes_and_dtype(self):
        ds = synth_clusters(5, 7, 3, sep=2.0, seed=1)
        assert ds.features.shape == (35, 3)
        assert ds.features.dtype == np.float32
        assert ds.labels.dtype == np.int64
        assert ds.classes == tuple(range(5))
        assert all(len(ds.class_items(c)) == 7 for c in ds.classes)

    def test_benchmark_splits_have_disjoint_class_ids(self):
        splits = synth_benchmark(6, 3, 3, per_class=4, dim=5, sep=2.0, seed=2)
        train, val, test = splits
        ids = [set(s.classes) for s in (train, val, test)]
        assert ids[0] & ids[1] == set()
        assert ids[0] & ids[2] == set()
        assert ids[1] & ids[2] == set()
        assert len(ids[0]) == 6 and len(ids[1]) == 3 and len(ids[2]) == 3
        assert (train.split, val.split, test.split) == ("train", "validation", "test")

    def test_nearest_mean_separates_well_separated_clusters(self):
        # sanity oracle for the separation knob: at sep=6 a trivial
        # nearest-class-mean rule on held-out points should be near perfect
        ds = synth_clusters(10, 40, 16, sep=6.0, seed=7)
        feats, labels = ds.features, ds.labels
        correct = 0
        for i in range(len(labels)):
            keep = np.arange(len(labels)) != i
            means = np.stack([
                feats[keep][labels[keep] == c].mean(axis=0)
                for c in ds.classes
            ])
            pred = np.argmin(
                np.linalg.norm(means - feats[i], axis=1))
            correct += int(pred == labels[i])
        assert correct / len(labels) >= 0.99

    def test_zero_separation_mixes_classes(self):
        ds = synth_clusters(4, 30, 8, sep=0.0, seed=3)
        means = np.stack([
            ds.features[ds.labels == c].mean(axis=0) for c in ds.classes
        ])
        spread = np.linalg.norm(means - means.mean(axis=0), axis=1)
        assert np.max(spread) < 2.0


class TestVisibleCount:
    @pytest.mark.parametrize(
        "frac,k,expect",
        [
            (1.0, 5, 5),
            (0.2, 5, 1),
            (0.4, 5, 2),
            (0.5, 5, 3),
            (0.2, 1, 1),
            (0.01, 10, 1),
            (1.0, 1, 1),
        ],
    )
    def test_table(self, frac, k, expect):
        assert visible_per_class(frac, k) == expect

    @pytest.mark.parametrize("frac", [0.0, -0.1, 1.5])
    def test_out_of_range_rejected(self, frac):
        with pytest.raises(DataError):
            visible_per_class(frac, 5)


@pytest.fixture(scope="module")
def pool():
    return synth_clusters(8, 10, 6, sep=3.0, seed=55)


class TestStackEpisodes:
    def test_arrays_gain_a_leading_episode_axis(self, pool):
        rng = make_rng(3, 1)
        eps = [sample_episode(pool, 3, 2, 1, 0.5, rng) for _ in range(4)]
        stacked = stack_episodes(eps)
        assert stacked.m == eps[0].m
        assert np.array_equal(stacked.is_query, eps[0].is_query)
        for name in ("features", "class_slots", "label_mask", "class_ids",
                     "item_indices"):
            assert np.array_equal(getattr(stacked, name),
                                  np.stack([getattr(e, name) for e in eps]))

    def test_shapes_must_agree(self, pool):
        rng = make_rng(3, 2)
        eps = [sample_episode(pool, 3, 2, 1, rng=rng),
               sample_episode(pool, 3, 1, 2, rng=rng)]
        with pytest.raises(DataError, match="cannot stack"):
            stack_episodes(eps)
        with pytest.raises(DataError, match="no episodes"):
            stack_episodes([])


class TestEpisodeSampling:
    def test_layout_and_counts(self, pool):
        ep = sample_episode(pool, 3, 2, 4, rng=make_rng(1, 2))
        assert ep.m == 3 * (2 + 4)
        assert ep.support_count == 6
        assert ep.features.shape == (18, 6)
        # supports first, grouped by class slot, then queries by class slot
        assert ep.class_slots[:6].tolist() == [0, 0, 1, 1, 2, 2]
        assert ep.class_slots[6:].tolist() == sum(([s] * 4 for s in range(3)), [])
        assert ep.is_query.tolist() == [False] * 6 + [True] * 12

    def test_supports_fully_visible_at_fraction_one(self, pool):
        ep = sample_episode(pool, 3, 2, 4, label_fraction=1.0,
                            rng=make_rng(1, 2))
        assert ep.label_mask[:6].all()
        assert not ep.label_mask[6:].any()

    def test_fraction_hides_some_supports(self, pool):
        ep = sample_episode(pool, 2, 5, 2, label_fraction=0.4,
                            rng=make_rng(4, 4))
        per_class = ep.label_mask[:10].reshape(2, 5).sum(axis=1)
        assert per_class.tolist() == [2, 2]
        assert not ep.label_mask[10:].any()

    def test_item_sets_match_across_fractions(self, pool):
        # masking happens after item choice, so the same stream picks the
        # same items whatever the fraction
        eps = [
            sample_episode(pool, 3, 4, 2, label_fraction=f,
                           rng=make_rng(12, 0))
            for f in (0.25, 0.5, 1.0)
        ]
        base = eps[0]
        for other in eps[1:]:
            assert np.array_equal(base.item_indices, other.item_indices)
            assert np.array_equal(base.features, other.features)
            assert np.array_equal(base.class_ids, other.class_ids)

    def test_members_come_from_claimed_classes(self, pool):
        ep = sample_episode(pool, 4, 2, 3, rng=make_rng(8, 8))
        for row, cid in zip(ep.item_indices, ep.class_ids[ep.class_slots]):
            assert pool.labels[row] == cid

    def test_no_item_repeats_within_episode(self, pool):
        ep = sample_episode(pool, 4, 2, 3, rng=make_rng(6, 1))
        assert len(set(ep.item_indices.tolist())) == ep.m

    def test_explicit_rng_required(self, pool):
        with pytest.raises(ValueError):
            sample_episode(pool, 2, 1, 1)

    def test_too_many_ways_rejected(self, pool):
        with pytest.raises(DataError):
            sample_episode(pool, 9, 1, 1, rng=make_rng(0, 0))

    def test_too_many_items_per_class_rejected(self, pool):
        with pytest.raises(DataError):
            sample_episode(pool, 2, 6, 5, rng=make_rng(0, 0))

    def test_same_rng_state_reproduces_episode(self, pool):
        a = sample_episode(pool, 3, 1, 2, rng=make_rng(33, 1))
        b = sample_episode(pool, 3, 1, 2, rng=make_rng(33, 1))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.item_indices, b.item_indices)
        assert np.array_equal(a.label_mask, b.label_mask)


@given(
    n_way=st.integers(2, 4),
    k_shot=st.integers(1, 3),
    n_query=st.integers(1, 3),
    frac=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_episode_invariants_hold_for_random_requests(
        n_way, k_shot, n_query, frac, seed):
    pool = synth_clusters(5, 8, 4, sep=1.0, seed=13)
    ep = sample_episode(pool, n_way, k_shot, n_query, label_fraction=frac,
                        rng=make_rng(seed, 0))
    m = n_way * (k_shot + n_query)
    assert ep.m == m
    assert ep.features.shape == (m, 4)
    assert ep.features.dtype == np.float32
    counts = np.bincount(ep.class_slots, minlength=n_way)
    assert counts.tolist() == [k_shot + n_query] * n_way
    want_visible = visible_per_class(frac, k_shot)
    mask = ep.label_mask[:ep.support_count].reshape(n_way, k_shot)
    assert (mask.sum(axis=1) == want_visible).all()
    assert not ep.label_mask[ep.support_count:].any()
    assert len(ep.class_ids) == n_way
    assert len(set(ep.class_ids.tolist())) == n_way


def test_make_rng_streams_are_independent():
    a = make_rng(5, 1).integers(0, 1000, size=10)
    b = make_rng(5, 2).integers(0, 1000, size=10)
    c = make_rng(5, 1).integers(0, 1000, size=10)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_dataset_class_items_sorted_and_stable():
    feats = np.zeros((4, 2), dtype=np.float32)
    labels = np.array([3, 1, 3, 1], dtype=np.int64)
    ds = EmbeddingDataset(dim=2, features=feats, labels=labels, split="train")
    assert ds.classes == (1, 3)
    assert ds.class_items(3).tolist() == [0, 2]
    with pytest.raises(DataError):
        ds.class_items(7)
