import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hospgnn import tensor as T
from hospgnn.data import make_rng, sample_episode, synth_clusters
from hospgnn.errors import ConfigError, DegenerateEpisodeError, ShapeError
from hospgnn.graph import (
    CHANNEL_ORDER,
    FULL_CHANNELS,
    init_edges,
    init_relative_channel,
    label_agreement_masks,
    pairwise_distances,
    parse_variant,
    relative_features,
    stack_channels,
)


class TestVariants:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("full", FULL_CHANNELS),
            ("rsd", FULL_CHANNELS),
            ("hsd", FULL_CHANNELS),
            ("FULL", FULL_CHANNELS),
            ("r", ("relative",)),
            ("h", ("relative",)),
            ("s", ("similar",)),
            ("d", ("dissimilar",)),
            ("rd", ("relative", "dissimilar")),
            ("rs", ("relative", "similar")),
            ("sd", ("similar", "dissimilar")),
            ("dr", ("relative", "dissimilar")),
        ],
    )
    def test_spellings(self, text, want):
        assert parse_variant(text) == want

    @pytest.mark.parametrize("text", ["", "x", "rr", "rsx", "fulll"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ConfigError):
            parse_variant(text)


class TestRelativeFeatures:
    def test_worked_example(self):
        # rows 1, 3, 4 chain to 1-3, 3-4, 4-1
        out = relative_features(T.Tensor(np.array([[1.0], [3.0], [4.0]])))
        assert np.array_equal(out.data, [[-2.0], [-1.0], [3.0]])

    def test_rows_telescope_to_zero(self):
        feats = np.random.default_rng(0).normal(size=(7, 4))
        out = relative_features(T.Tensor(feats)).data
        assert np.allclose(out.sum(axis=0), 0.0, atol=1e-12)

    def test_shift_needs_two_rows(self):
        with pytest.raises(ShapeError):
            relative_features(T.Tensor(np.ones((1, 3))))

    def test_float32_in_float32_out(self):
        x = T.Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        with T.Tape() as tape:
            out = relative_features(x)
            tape.backward(T.tensor_sum(T.mul(out, out)))
        assert out.dtype == np.float32 and x.grad.dtype == np.float32

    def test_gradient_flows_through_differences(self):
        x = T.Tensor(np.random.default_rng(1).normal(size=(4, 3)),
                     requires_grad=True)
        err = T.grad_check(
            lambda: T.tensor_sum(T.mul(relative_features(x),
                                       relative_features(x))),
            [x],
        )
        assert err < 1e-4


def unfused_distances(feats):
    """The per-op chain the one-node distance replaced."""
    m, d = feats.shape
    diff = T.sub(T.reshape(feats, (m, 1, d)), T.reshape(feats, (1, m, d)))
    return T.sqrt(T.tensor_sum(T.mul(diff, diff), axis=2))


class TestDistances:
    def test_matches_loop_reference(self):
        feats = np.random.default_rng(2).normal(size=(5, 3))
        got = pairwise_distances(T.Tensor(feats)).data
        for i in range(5):
            for j in range(5):
                want = np.sqrt(((feats[i] - feats[j]) ** 2).sum())
                assert abs(got[i, j] - want) < 1e-12

    def test_symmetric_zero_diagonal(self):
        feats = np.random.default_rng(3).normal(size=(6, 2))
        got = pairwise_distances(T.Tensor(feats)).data
        assert np.array_equal(got, got.T)
        assert np.array_equal(np.diag(got), np.zeros(6))

    def test_one_node_matching_unfused_gradient(self):
        # near rows (1e-6 apart) and a duplicated row: the one-node pair
        # distances' backward stays within eps |f| / d of the per-op
        # chain, and zero distance keeps the zero subgradient sqrt gives
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(6, 4))
        feats[4] = feats[1] + 1e-6 * rng.normal(size=4)
        feats[5] = feats[2]
        weights = rng.normal(size=(6, 6))
        # pair p = (i, j) carries the weight of both (i, j) and (j, i)
        p = T.pair_index(6)
        pair_weights = np.append(weights[p.rows, p.cols]
                                 + weights[p.cols, p.rows], 0.0)[:, None]
        grads, nodes = [], []
        for fn, w in ((T.pair_distances, pair_weights),
                      (unfused_distances, weights)):
            x = T.Tensor(feats, requires_grad=True)
            with T.Tape() as tape:
                tape.backward(T.tensor_sum(T.mul(fn(x), T.Tensor(w))))
            grads.append(x.grad)
            nodes.append(len(tape))
        assert nodes[0] == 3
        scale = np.abs(grads[1]).max()
        near = [1, 4]
        far = [0, 2, 3, 5]
        assert np.abs(grads[0][far] - grads[1][far]).max() < 1e-12 * scale
        assert np.abs(grads[0][near] - grads[1][near]).max() < 1e-9 * scale

    def test_row_blocks_match_unfused_chain(self):
        # 60 rows give 1770 pairs: two row blocks, the second partial
        rng = np.random.default_rng(9)
        x = T.Tensor(rng.normal(size=(60, 5)), requires_grad=True)
        weights = T.Tensor(rng.normal(size=(60, 60)))
        values, grads = [], []
        for fn in (pairwise_distances, unfused_distances):
            x.grad = None
            with T.Tape() as tape:
                d = fn(x)
                tape.backward(T.tensor_sum(T.mul(d, weights)))
            values.append(d.data)
            grads.append(x.grad)
        assert np.abs(values[0] - values[1]).max() < 1e-14 * values[1].max()
        assert np.abs(grads[0] - grads[1]).max() < 1e-12 * np.abs(
            grads[1]).max()

    def test_grad_check_with_near_and_duplicated_rows(self):
        rng = np.random.default_rng(6)
        weights = T.Tensor(rng.normal(size=(6, 6)))
        generic = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        err = T.grad_check(
            lambda: T.tensor_sum(T.mul(pairwise_distances(generic), weights)),
            [generic], epsilon=1e-6)
        assert err < 1e-5
        feats = rng.normal(size=(6, 3))
        feats[3] = feats[0] + 1e-6 * rng.normal(size=3)
        feats[5] = feats[4]
        x = T.Tensor(feats, requires_grad=True)
        # steps well below the 1e-6 gap, so no difference crosses a kink
        errs = T.grad_check_groups(
            lambda: T.tensor_sum(T.mul(pairwise_distances(x), weights)),
            {"x": x}, epsilon=1e-9)
        assert errs["x"] < 1e-5

    def test_duplicated_rows_have_zero_subgradient(self):
        feats = np.random.default_rng(7).normal(size=(4, 3))
        feats[3] = feats[1]
        x = T.Tensor(feats, requires_grad=True)
        pick = np.zeros((4, 4))
        pick[1, 3] = pick[3, 1] = 1.0
        with T.Tape() as tape:
            loss = T.tensor_sum(T.mul(pairwise_distances(x), T.Tensor(pick)))
            tape.backward(loss)
        assert np.array_equal(x.grad, np.zeros((4, 3)))

    def test_float32_in_float32_out(self):
        x = T.Tensor(np.random.default_rng(8).normal(size=(5, 3)).astype(
            np.float32), requires_grad=True)
        with T.Tape() as tape:
            d = pairwise_distances(x)
            tape.backward(T.tensor_sum(d))
        assert d.dtype == np.float32 and x.grad.dtype == np.float32

    def test_tiny_offsets_do_not_go_negative(self):
        # the Gram-matrix shortcut produces small negative squared
        # distances here; the row-difference form must not
        base = np.ones((3, 4)) * 1e4
        base[1] += 1e-7
        got = pairwise_distances(T.Tensor(base)).data
        assert np.all(got >= 0.0)


class TestRelativeChannel:
    def test_three_point_hand_value(self):
        # distances from row 0: 0, 3, 4 -> total 7; entry (0,1) = 1 - 3/7
        feats = T.Tensor(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
        e = init_relative_channel(feats).data
        assert abs(e[0, 1] - (1.0 - 3.0 / 7.0)) < 1e-12
        assert abs(e[0, 2] - (1.0 - 4.0 / 7.0)) < 1e-12

    def test_diagonal_one_rows_sum_m_minus_one(self):
        feats = T.Tensor(np.random.default_rng(4).normal(size=(6, 3)))
        e = init_relative_channel(feats).data
        assert np.allclose(np.diag(e), 1.0, atol=1e-12)
        assert np.allclose(e.sum(axis=1), 5.0, atol=1e-12)

    def test_asymmetric_in_general(self):
        feats = T.Tensor(np.array([[0.0], [1.0], [5.0]]))
        e = init_relative_channel(feats).data
        assert not np.allclose(e, e.T)

    def test_coincident_rows_raise(self):
        feats = T.Tensor(np.zeros((4, 2)))
        with pytest.raises(DegenerateEpisodeError):
            init_relative_channel(feats)

    @given(st.integers(0, 2**31 - 1), st.integers(3, 9))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_random_rows(self, seed, m):
        feats = T.Tensor(np.random.default_rng(seed).normal(size=(m, 3)))
        e = init_relative_channel(feats).data
        assert np.allclose(np.diag(e), 1.0, atol=1e-9)
        assert np.allclose(e.sum(axis=1), m - 1.0, atol=1e-9)


@pytest.fixture()
def labelled_episode():
    pool = synth_clusters(5, 6, 4, sep=2.0, seed=21)
    return sample_episode(pool, 2, 2, 1, rng=make_rng(2, 7))


@pytest.fixture()
def half_hidden_episode():
    pool = synth_clusters(5, 8, 4, sep=2.0, seed=21)
    return sample_episode(pool, 2, 2, 1, label_fraction=0.5,
                          rng=make_rng(2, 7))


class TestEdgeInit:
    def test_label_channel_table(self, labelled_episode):
        ep = labelled_episode
        e = init_edges(ep, ("similar", "dissimilar")).data
        s, d = e[..., 0], e[..., 1]
        # supports: slots 0,0,1,1 then queries 0,1
        assert s[0, 1] == 1.0 and d[0, 1] == 0.0
        assert s[0, 2] == 0.0 and d[0, 2] == 1.0
        assert s[2, 3] == 1.0 and d[2, 3] == 0.0
        for q in (4, 5):
            assert np.all(s[q, :] == 0.5) and np.all(d[q, :] == 0.5)
            assert np.all(s[:, q] == 0.5) and np.all(d[:, q] == 0.5)

    def test_visible_diagonal_is_similar(self, labelled_episode):
        e = init_edges(labelled_episode, ("similar", "dissimilar")).data
        for i in range(4):
            assert e[i, i, 0] == 1.0 and e[i, i, 1] == 0.0
        for q in (4, 5):
            assert e[q, q, 0] == 0.5 and e[q, q, 1] == 0.5

    def test_hidden_supports_look_like_queries(self, half_hidden_episode):
        ep = half_hidden_episode
        e = init_edges(ep, ("similar", "dissimilar")).data
        hidden = np.flatnonzero(~ep.label_mask[:ep.support_count])
        assert hidden.size == 2
        for h in hidden:
            assert np.all(e[h, :, 0] == 0.5) and np.all(e[h, :, 1] == 0.5)

    def test_label_channels_complement_at_init(self, labelled_episode):
        e = init_edges(labelled_episode, ("similar", "dissimilar")).data
        assert np.allclose(e[..., 0] + e[..., 1], 1.0, atol=1e-12)

    def test_channel_stacking_order(self, labelled_episode):
        ep = labelled_episode
        rel = init_relative_channel(
            relative_features(T.Tensor(ep.features.astype(np.float64))))
        e = init_edges(ep, FULL_CHANNELS, rel_channel=rel)
        assert e.shape == (ep.m, ep.m, 3)
        assert np.array_equal(e.data[..., 0], rel.data)
        only_s = init_edges(ep, ("similar",))
        assert only_s.shape == (ep.m, ep.m, 1)
        assert np.array_equal(only_s.data[..., 0], e.data[..., 1])

    def test_relative_requires_channel_argument(self, labelled_episode):
        with pytest.raises(ShapeError):
            init_edges(labelled_episode, FULL_CHANNELS, rel_channel=None)

    def test_agreement_masks_ignore_queries(self, labelled_episode):
        agree, disagree = label_agreement_masks(labelled_episode)
        assert not agree[4:, :].any() and not disagree[4:, :].any()
        assert not agree[:, 4:].any() and not disagree[:, 4:].any()
        assert agree[0, 1] and disagree[1, 2]

    def test_dtype_control(self, labelled_episode):
        e32 = init_edges(labelled_episode, ("similar",), dtype=np.float32)
        assert e32.dtype == np.float32

    def test_label_blind_form_is_half_on_every_pair(self, labelled_episode):
        e = init_edges(labelled_episode, ("similar", "dissimilar"),
                       labels=False).data
        assert np.all(e == 0.5)


@pytest.mark.parametrize(
    "channels",
    [FULL_CHANNELS, ("relative", "dissimilar"), ("similar",),
     ("dissimilar",), ("relative",)],
    ids=lambda c: "".join(ch[0] for ch in c))
def test_stack_channels_maps_each_channel_to_its_source(channels):
    rng = np.random.default_rng(3)
    rel, pair = (T.Tensor(rng.uniform(size=(4, 4))) for _ in range(2))
    stack = stack_channels(channels, rel, pair).data
    want = {"relative": rel.data, "similar": pair.data,
            "dissimilar": 1.0 - pair.data}
    for k, ch in enumerate(channels):
        assert np.array_equal(stack[..., k], want[ch])


assert CHANNEL_ORDER == ("relative", "similar", "dissimilar")
