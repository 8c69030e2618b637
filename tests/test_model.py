from dataclasses import replace

import numpy as np
import pytest

from hospgnn import tensor as T
from hospgnn.data import make_rng, sample_episode, stack_episodes, synth_clusters
from hospgnn.errors import ConfigError, NumericError
from hospgnn.graph import FULL_CHANNELS, parse_variant, readout_for
from hospgnn.losses import predict_labels, report_losses
from hospgnn.model import (
    SCORE_EPS,
    ModelConfig,
    channel_normalize,
    config_hash,
    edge_update,
    embed,
    forward,
    init_params,
    metric_scores,
    vertex_update,
)

from naive_ref import NaiveModel


class TestConfig:
    def test_channels_must_follow_fixed_order(self):
        with pytest.raises(ConfigError):
            ModelConfig(feature_dim=4, channels=("similar", "relative"))

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(feature_dim=4, channels=("similar", "other"))

    @pytest.mark.parametrize(
        "kw",
        [
            {"metric_input": "cosine"},
            {"dtype": "float16"},
            {"layers": 0},
            {"leaky_slope": -0.1},
            {"leaky_slope": 1.5},
            {"hidden_dim": 0},
            {"encoder_dim": 0},
            {"metric_hidden": 0},
            {"channels": ()},
            {"channels": ("similar", "similar")},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            ModelConfig(feature_dim=4, **kw)

    def test_zero_feature_dim_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(feature_dim=0)

    def test_readout_auto_prefers_similar(self):
        cfg = ModelConfig(feature_dim=4)
        assert readout_for(cfg.channels) == "similar"

    def test_readout_auto_falls_back_in_channel_order(self):
        rel = ModelConfig(feature_dim=4, channels=("relative",))
        assert readout_for(rel.channels) == "relative"
        dis = ModelConfig(feature_dim=4, channels=("dissimilar",))
        assert readout_for(dis.channels) == "dissimilar"

    def test_default_readout_follows_enabled_channels(self):
        cfg = ModelConfig(feature_dim=4, channels=("relative", "dissimilar"))
        assert readout_for(cfg.channels) == "relative"

    def test_dict_round_trip(self):
        cfg = ModelConfig(feature_dim=6, layers=2, hidden_dim=10,
                          channels=("relative", "dissimilar"),
                          metric_input="absdiff", dtype="float32")
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_hash_separates_configs(self):
        a = {"model": ModelConfig(feature_dim=6).to_dict()}
        b = {"model": ModelConfig(feature_dim=6, layers=2).to_dict()}
        assert config_hash(a) == config_hash(dict(a))
        assert config_hash(a) != config_hash(b)
        assert config_hash({**a, "extra": {"k": 1}}) != config_hash(a)

    def test_embed_dim_tracks_encoder(self):
        with_enc = ModelConfig(feature_dim=6, encoder_dim=12)
        without = ModelConfig(feature_dim=6, use_encoder=False)
        assert with_enc.embed_dim == 12
        assert without.embed_dim == 6

    def test_metric_in_dim_by_mode(self):
        # metric nets run on each layer's own output features, which are
        # hidden_dim wide at every depth
        dist = ModelConfig(feature_dim=6, hidden_dim=9)
        assert dist.metric_in_dim(0) == 1
        vec = ModelConfig(feature_dim=6, hidden_dim=9, use_encoder=False,
                          metric_input="absdiff")
        assert vec.metric_in_dim(0) == 9
        assert vec.metric_in_dim(1) == 9


class TestInitParams:
    def test_deterministic_by_seed(self, tiny_config):
        a = init_params(tiny_config, seed=3)
        b = init_params(tiny_config, seed=3)
        c = init_params(tiny_config, seed=4)
        for name in a.names():
            assert np.array_equal(a.t(name).data, b.t(name).data)
        assert any(
            not np.array_equal(a.t(n).data, c.t(n).data) for n in a.names()
        )

    def test_expected_tensor_names(self, tiny_config):
        names = set(init_params(tiny_config, seed=0).names())
        assert "encoder.w" in names and "encoder.b" in names
        for l in (0, 1):
            for net in ("vertex", "relnet.0", "relnet.1", "relnet.2",
                        "pairnet.0", "pairnet.1", "pairnet.2"):
                assert f"layer{l}.{net}.w" in names
        assert "layer2.vertex.w" not in names
        assert "layer0.vertex.gain" not in names

    def test_standardized_vertex_net_has_no_bias(self):
        # standardisation cancels a vertex bias, and its shift takes the
        # bias's place; every other array is drawn as before
        plain = ModelConfig(feature_dim=6, layers=3, hidden_dim=8,
                            encoder_dim=8, metric_hidden=16)
        std = replace(plain, standardize_vertex=True)
        a, b = init_params(plain, seed=4), init_params(std, seed=4)
        biases = {f"layer{l}.vertex.b" for l in range(3)}
        assert biases <= set(a.names())
        assert not biases & set(b.names())
        assert set(a.names()) - biases <= set(b.names())
        for name in set(a.names()) - biases:
            assert np.array_equal(a.t(name).data, b.t(name).data), name

    def test_variant_prunes_metric_nets(self):
        only_labels = init_params(
            ModelConfig(feature_dim=4, channels=("similar", "dissimilar")))
        assert not any("relnet" in n for n in only_labels.names())
        only_rel = init_params(
            ModelConfig(feature_dim=4, channels=("relative",)))
        assert not any("pairnet" in n for n in only_rel.names())

    def test_weights_respect_xavier_bound(self, tiny_config):
        params = init_params(tiny_config, seed=1)
        for name in params.names():
            arr = params.t(name).data
            if name.endswith(".w"):
                bound = np.sqrt(6.0 / (arr.shape[0] + arr.shape[1]))
                assert np.all(np.abs(arr) <= bound)
            elif name.endswith(".b") or name.endswith(".shift"):
                assert np.all(arr == 0.0)

    def test_array_round_trip(self, tiny_config):
        params = init_params(tiny_config, seed=2)
        stash = params.copy_arrays()
        fresh = init_params(tiny_config, seed=9)
        fresh.load_arrays(stash)
        for name in params.names():
            assert np.array_equal(fresh.t(name).data, params.t(name).data)

    def test_count_matches_manual_sum(self, tiny_config):
        params = init_params(tiny_config, seed=0)
        total = sum(p.data.size for p in params.values())
        assert params.count() == total


class TestChannelNormalize:
    def test_hand_example(self):
        e = T.Tensor(np.array([[[1.0, 3.0]], [[2.0, 2.0]]]))
        out = channel_normalize(e).data
        assert np.allclose(out[0, 0], [0.25, 0.75])
        assert np.allclose(out[1, 0], [0.5, 0.5])

    def test_guarded_zeroes_dead_pairs(self):
        vals = np.array([[[2.0, 6.0], [0.0, 0.0]]])
        out = channel_normalize(T.Tensor(vals)).data
        assert np.allclose(out[0, 0], [0.25, 0.75])
        assert np.array_equal(out[0, 1], [0.0, 0.0])


def one_hot_edges(targets, channel, n_channels, m, dtype=np.float64):
    e = np.zeros((m, m, n_channels), dtype=dtype)
    for i, j in enumerate(targets):
        e[i, j, channel] = 1.0
    return T.Tensor(e)


class TestVertexUpdate:
    def test_one_hot_edges_select_one_neighbour(self):
        # weights wired to copy the similar-channel aggregate straight
        # through (slope 1 makes the activation the identity), so each
        # output row must equal the picked neighbour's features
        cfg = ModelConfig(feature_dim=3, layers=1, hidden_dim=3,
                          use_encoder=False, leaky_slope=1.0)
        params = init_params(cfg, seed=0)
        w = np.zeros((9, 3))
        w[3:6] = np.eye(3)
        params.t("layer0.vertex.w").data[...] = w
        m = 4
        rng = np.random.default_rng(5)
        u = T.Tensor(rng.normal(size=(m, 3)))
        v = T.Tensor(rng.normal(size=(m, 3)))
        picks = [2, 0, 3, 1]
        e = one_hot_edges(picks, channel=1, n_channels=3, m=m)
        u_next, v_next = vertex_update(u, v, e, params, layer=0)
        assert np.allclose(u_next.data, u.data[picks], atol=1e-12)
        assert np.allclose(
            v_next.data, u_next.data - np.roll(u_next.data, -1, axis=0),
            atol=1e-12)

    def test_edges_are_pooled_as_given(self):
        # the caller normalises: doubled weights give doubled aggregates
        cfg = ModelConfig(feature_dim=3, layers=1, hidden_dim=3,
                          use_encoder=False, leaky_slope=1.0)
        params = init_params(cfg, seed=0)
        w = np.zeros((9, 3))
        w[3:6] = np.eye(3)
        params.t("layer0.vertex.w").data[...] = w
        rng = np.random.default_rng(5)
        u = T.Tensor(rng.normal(size=(4, 3)))
        v = T.Tensor(rng.normal(size=(4, 3)))
        picks = [2, 0, 3, 1]
        e = one_hot_edges(picks, channel=1, n_channels=3, m=4)
        u_next, _ = vertex_update(u, v, T.Tensor(2.0 * e.data), params, 0)
        assert np.allclose(u_next.data, 2.0 * u.data[picks], atol=1e-12)

    def test_relative_channel_aggregates_difference_features(self):
        cfg = ModelConfig(feature_dim=3, layers=1, hidden_dim=3,
                          use_encoder=False, leaky_slope=1.0)
        params = init_params(cfg, seed=0)
        w = np.zeros((9, 3))
        w[0:3] = np.eye(3)
        params.t("layer0.vertex.w").data[...] = w
        rng = np.random.default_rng(6)
        u = T.Tensor(rng.normal(size=(4, 3)))
        v = T.Tensor(rng.normal(size=(4, 3)))
        picks = [1, 3, 0, 2]
        e = one_hot_edges(picks, channel=0, n_channels=3, m=4)
        u_next, _ = vertex_update(u, v, e, params, layer=0)
        assert np.allclose(u_next.data, v.data[picks], atol=1e-12)

    def test_standardized_output_is_centered_and_scaled(self):
        cfg = ModelConfig(feature_dim=4, layers=1, hidden_dim=6,
                          use_encoder=False, standardize_vertex=True,
                          leaky_slope=1.0)
        params = init_params(cfg, seed=1)
        rng = np.random.default_rng(7)
        m = 5
        u = T.Tensor(rng.normal(size=(m, 4)))
        v = T.Tensor(rng.normal(size=(m, 4)))
        e = T.Tensor(rng.uniform(0.2, 1.0, size=(m, m, 3)))
        u_next, _ = vertex_update(u, v, e, params, layer=0)
        # unit gain, zero shift, slope 1: columns should be standardized
        assert np.allclose(u_next.data.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(u_next.data.std(axis=0), 1.0, atol=1e-2)

    def test_self_term_carries_own_features_through(self):
        # last input block is the vertex's previous features; selecting
        # it alone must reproduce them regardless of the edges
        cfg = ModelConfig(feature_dim=3, layers=1, hidden_dim=3,
                          use_encoder=False, leaky_slope=1.0,
                          aggregate_self=True)
        params = init_params(cfg, seed=0)
        assert params.t("layer0.vertex.w").shape == (12, 3)
        w = np.zeros((12, 3))
        w[9:12] = np.eye(3)
        params.t("layer0.vertex.w").data[...] = w
        rng = np.random.default_rng(10)
        u = T.Tensor(rng.normal(size=(5, 3)))
        v = T.Tensor(rng.normal(size=(5, 3)))
        e = T.Tensor(rng.uniform(0.2, 1.0, size=(5, 5, 3)))
        u_next, _ = vertex_update(u, v, e, params, layer=0)
        assert np.allclose(u_next.data, u.data, atol=1e-12)


class TestMetricNets:
    @pytest.fixture()
    def params(self, tiny_config):
        return init_params(tiny_config, seed=3)

    def test_scores_in_unit_interval(self, params):
        feats = T.Tensor(np.random.default_rng(8).normal(size=(6, 8)))
        s = metric_scores(params, "layer0.pairnet", feats).data
        assert s.shape == (6, 6)
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_distance_input_makes_scores_symmetric(self, params):
        feats = T.Tensor(np.random.default_rng(9).normal(size=(6, 8)))
        s = metric_scores(params, "layer0.relnet", feats).data
        assert np.array_equal(s, s.T)

    def test_absdiff_input_also_symmetric(self):
        cfg = ModelConfig(feature_dim=5, use_encoder=False, hidden_dim=5,
                          metric_input="absdiff", metric_hidden=8)
        params = init_params(cfg, seed=4)
        feats = T.Tensor(np.random.default_rng(10).normal(size=(4, 5)))
        s = metric_scores(params, "layer0.pairnet", feats).data
        assert np.array_equal(s, s.T)

    def test_random_weights_give_nonconstant_scores(self, params):
        # zero-bias nets still vary with input through the weights
        for name in params.names():
            if name.endswith(".b"):
                params.t(name).data[...] = np.random.default_rng(
                    12).normal(scale=0.1, size=params.t(name).shape)
        feats = T.Tensor(np.random.default_rng(13).normal(size=(5, 8)))
        s = metric_scores(params, "layer0.pairnet", feats).data
        assert np.ptp(s) > 1e-6


    @pytest.mark.parametrize("metric_input", ["distance", "absdiff"])
    def test_matches_dense_reference(self, metric_input):
        # the net over all M*M ordered pairs, one tape node per op
        cfg = ModelConfig(feature_dim=6, use_encoder=False, hidden_dim=6,
                          metric_hidden=10, metric_input=metric_input)
        params = init_params(cfg, seed=6)
        prefix = "layer1.pairnet"
        names = [f"{prefix}.{k}.{w}" for k in range(3) for w in "wb"]
        rng = np.random.default_rng(15)
        for name in names:
            # biases off zero, so the hidden units sit on both sides
            p = params.t(name)
            p.data = p.data + 0.2 * rng.standard_normal(p.shape)
        feats = T.Tensor(rng.normal(size=(7, 6)))
        weights = T.Tensor(rng.normal(size=(7, 7)))

        def dense():
            m, d = feats.shape
            diff = T.sub(T.reshape(feats, (m, 1, d)),
                         T.reshape(feats, (1, m, d)))
            if metric_input == "distance":
                dist = T.sqrt(T.tensor_sum(T.mul(diff, diff), axis=2))
                x = T.reshape(dist, (m * m, 1))
            else:
                x = T.reshape(T.absval(diff), (m * m, d))
            for k in range(2):
                x = T.leaky_relu(T.add(T.matmul(x, params.t(f"{prefix}.{k}.w")),
                                       params.t(f"{prefix}.{k}.b")),
                                 cfg.leaky_slope)
            out = T.sigmoid(T.add(T.matmul(x, params.t(f"{prefix}.2.w")),
                                  params.t(f"{prefix}.2.b")))
            out = T.add(SCORE_EPS, T.mul(1.0 - 2.0 * SCORE_EPS, out))
            return T.reshape(out, (m, m))

        results = []
        for fn in (lambda: metric_scores(params, prefix, feats), dense):
            params.zero_grads()
            with T.Tape() as tape:
                s = fn()
                tape.backward(T.tensor_sum(T.mul(s, weights)))
            results.append((s.data, [params.t(n).grad for n in names]))
        (fused, fused_grads), (want, want_grads) = results
        assert np.abs(fused - want).max() <= 1e-12
        for name, a, b in zip(names, fused_grads, want_grads):
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), name

    @pytest.mark.parametrize("metric_input", ["distance", "absdiff"])
    def test_tape_nodes_do_not_grow_with_m(self, metric_input):
        cfg = ModelConfig(feature_dim=4, use_encoder=False, hidden_dim=4,
                          metric_hidden=8, metric_input=metric_input)
        params = init_params(cfg, seed=7)
        counts = []
        for m in (4, 16, 80):
            feats = T.Tensor(np.random.default_rng(m).normal(size=(m, 4)))
            with T.Tape() as tape:
                metric_scores(params, "layer0.relnet", feats)
            counts.append(len(tape))
        assert counts[0] == counts[1] == counts[2] <= 4, counts

    def test_training_episode_tape_budget(self):
        # a training step of the benchmark's model (criterion 5's: no
        # encoder, 3 layers, standardised vertices, self term) at M = 16
        # (2-way 5-shot 3-query, 40% labels) and M = 80 (5-way 1-shot
        # 15-query)
        cfg = ModelConfig(feature_dim=16, layers=3, hidden_dim=32,
                          use_encoder=False, metric_hidden=32,
                          standardize_vertex=True, aggregate_self=True)
        params = init_params(cfg, seed=8)
        pool = synth_clusters(6, 20, 16, sep=6.0, seed=8)
        counts = []
        for shape in ((2, 5, 3, 0.4), (5, 1, 15, 1.0)):
            ep = sample_episode(pool, *shape, rng=make_rng(8, 1))
            with T.Tape() as tape:
                graph = forward(ep, params)
                total = report_losses(graph, ep, 1e-5)[0]
                tape.backward(T.mul(total, 0.25))
            counts.append(len(tape))
        assert counts[0] == counts[1] <= 60, counts


class TestEdgeUpdate:
    def make_inputs(self, cfg, m=5, seed=14):
        params = init_params(cfg, seed=1)
        rng = np.random.default_rng(seed)
        u = T.Tensor(rng.normal(size=(m, cfg.embed_dim)).astype(cfg.np_dtype))
        v = T.Tensor(rng.normal(size=(m, cfg.embed_dim)).astype(cfg.np_dtype))
        raw = rng.uniform(0.1, 1.0, size=(m, m, len(cfg.channels)))
        e = channel_normalize(T.Tensor(raw.astype(cfg.np_dtype)))
        return params, u, v, e

    def test_constant_scores_leave_normalized_edges_fixed(self):
        cfg = ModelConfig(feature_dim=4, hidden_dim=4, use_encoder=False,
                          metric_hidden=8)
        params, u, v, e = self.make_inputs(cfg)
        m = e.shape[0]
        rel = T.Tensor(np.full((m, m), 0.7))
        pair = T.Tensor(np.full((m, m), 0.4))
        _, _, out = edge_update(u, v, e, params, 0,
                                rel_scores=rel, pair_scores=pair)
        assert np.max(np.abs(out.data - e.data)) < 1e-12

    def test_output_pairs_are_normalized(self):
        cfg = ModelConfig(feature_dim=4, hidden_dim=4, use_encoder=False,
                          metric_hidden=8)
        params, u, v, e = self.make_inputs(cfg)
        _, _, out = edge_update(u, v, e, params, 0)
        assert np.allclose(out.data.sum(axis=2), 1.0, atol=1e-12)

    def test_affinities_are_retained_and_reused(self):
        cfg = ModelConfig(feature_dim=4, hidden_dim=4, use_encoder=False,
                          metric_hidden=8)
        params, u, v, e = self.make_inputs(cfg)
        rel, pair, out1 = edge_update(u, v, e, params, 0)
        assert rel is not None and pair is not None
        _, _, out2 = edge_update(u, v, e, params, 0,
                                 rel_scores=rel, pair_scores=pair)
        assert np.array_equal(out1.data, out2.data)

    def test_zero_row_mass_raises(self):
        cfg = ModelConfig(feature_dim=4, hidden_dim=4, use_encoder=False,
                          metric_hidden=8)
        params, u, v, e = self.make_inputs(cfg)
        dead = e.data.copy()
        dead[2, :, 1] = 0.0
        with pytest.raises(NumericError, match="row 2, channel 'similar'"):
            edge_update(u, v, T.Tensor(dead), params, 0)

    def test_stacked_failure_names_the_episode(self):
        cfg = ModelConfig(feature_dim=4, hidden_dim=4, use_encoder=False,
                          metric_hidden=8)
        params, u, v, e = self.make_inputs(cfg)
        dead = e.data.copy()
        dead[2, :, 1] = 0.0
        u2, v2, e2 = (T.Tensor(np.stack([a, b])) for a, b in (
            (u.data, u.data), (v.data, v.data), (e.data, dead)))
        with pytest.raises(NumericError, match="edge update: zero total "
                           "weight on episode 1, row 2, channel 'similar'"):
            edge_update(u2, v2, e2, params, 0)

    def test_vanishing_affinity_mass_raises(self):
        cfg = ModelConfig(feature_dim=4, hidden_dim=4, use_encoder=False,
                          metric_hidden=8)
        params, u, v, e = self.make_inputs(cfg)
        m = e.shape[0]
        pair = np.full((m, m), 0.5)
        pair[3] = 1e-15   # row 3 of the similar channel scores ~0
        with pytest.raises(NumericError, match="edge update: vanishing "
                           "affinity mass on row 3, channel 'similar'"):
            edge_update(u, v, e, params, 0,
                        rel_scores=T.Tensor(np.full((m, m), 0.5)),
                        pair_scores=T.Tensor(pair))


def naive_worst_gap(episode, cfg, seed=0):
    params = init_params(cfg, seed=seed)
    graph = forward(episode, params)
    arrays = {k: v.data for k, v in params.tensors.items()}
    nm = NaiveModel(episode, arrays, cfg.to_dict())
    us, vs, es, rel, pair = nm.forward()
    worst = 0.0
    for a, b in zip(graph.vertex_feats, us):
        worst = max(worst, float(np.max(np.abs(a.data - b))))
    for a, b in zip(graph.diff_feats, vs):
        worst = max(worst, float(np.max(np.abs(a.data - b))))
    for a, b in zip(graph.edges, es):
        worst = max(worst, float(np.max(np.abs(a.data - b))))
    pred = predict_labels(graph, episode).data
    npred = nm.predict(es, len(es) - 1, readout_for(cfg.channels))
    worst = max(worst, float(np.max(np.abs(pred - npred))))
    total, rep = report_losses(graph, episode, weight=0.25)
    nce, _ = nm.ce(es, readout_for(cfg.channels))
    nml = nm.structure_loss(es, rel, pair)
    worst = max(worst, abs(rep.ce - nce), abs(rep.structure - nml))
    worst = max(worst, abs(float(total.data) - (nce + 0.25 * nml)))
    return worst


class TestForward:
    def test_levels_are_all_retained(self, tiny_episode, tiny_params):
        graph = forward(tiny_episode, tiny_params)
        L = tiny_params.config.layers
        assert graph.num_layers == L
        assert len(graph.vertex_feats) == L + 1
        assert len(graph.diff_feats) == L + 1
        assert len(graph.edges) == L + 1
        assert len(graph.scores) == L
        assert graph.m == tiny_episode.m

    def test_edges_are_channel_last_views_of_channel_first_buffers(
            self, tiny_episode, tiny_params):
        graph = forward(tiny_episode, tiny_params)
        m, c = tiny_episode.m, len(tiny_params.config.channels)
        for e in graph.edges[1:]:
            assert e.shape == (m, m, c)
            planes = T._channel_planes(e.data)
            assert planes.flags.c_contiguous
            assert np.shares_memory(planes, e.data)

    def test_forward_is_deterministic(self, tiny_episode, tiny_params):
        a = forward(tiny_episode, tiny_params)
        b = forward(tiny_episode, tiny_params)
        for x, y in zip(a.edges, b.edges):
            assert np.array_equal(x.data, y.data)

    def test_embed_without_encoder_is_identity(self):
        cfg = ModelConfig(feature_dim=4, hidden_dim=4, use_encoder=False,
                          metric_hidden=8)
        pool = synth_clusters(3, 4, 4, sep=2.0, seed=30)
        ep = sample_episode(pool, 2, 1, 1, rng=make_rng(1, 1))
        out = embed(ep, init_params(cfg))
        assert np.array_equal(out.data, ep.features.astype(np.float64))

    def test_layer_edges_stay_normalized(self, tiny_episode, tiny_params):
        graph = forward(tiny_episode, tiny_params)
        for e in graph.edges[1:]:
            assert np.allclose(e.data.sum(axis=2), 1.0, atol=1e-9)

    def test_first_vertex_update_is_label_blind(self):
        # visible labels shape the first edge update, never the first
        # vertex aggregation: layer-1 features match whichever supports
        # are labelled, layer-1 edges do not
        pool = synth_clusters(4, 10, 6, sep=3.0, seed=60)
        full = sample_episode(pool, 2, 3, 2, rng=make_rng(60, 2))
        cfg = ModelConfig(feature_dim=6, layers=2, hidden_dim=8,
                          encoder_dim=8, metric_hidden=16)
        params = init_params(cfg, seed=7)
        one_each = full.label_mask.copy()
        one_each[[1, 2, 4, 5]] = False
        graphs = [forward(replace(full, label_mask=mask), params)
                  for mask in (full.label_mask, one_each)]
        assert np.array_equal(graphs[0].vertex_feats[1].data,
                              graphs[1].vertex_feats[1].data)
        gap = np.abs(graphs[0].edges[1].data - graphs[1].edges[1].data)
        assert np.max(gap) > 1e-3

    @pytest.mark.parametrize(
        "channels", [("similar",), ("similar", "dissimilar"), FULL_CHANNELS],
        ids=lambda c: "".join(ch[0] for ch in c))
    def test_every_pooling_weighs_by_pair_normalized_edges(
            self, monkeypatch, channels):
        # forward normalises each level's pooling edges once, the
        # label-blind layer 0 included: every pair's weights sum to one,
        # or are all zero for a pair with no mass
        pool = synth_clusters(4, 10, 6, sep=3.0, seed=61)
        ep = sample_episode(pool, 2, 3, 2, label_fraction=0.5,
                            rng=make_rng(61, 2))
        cfg = ModelConfig(feature_dim=6, layers=3, hidden_dim=8,
                          encoder_dim=8, metric_hidden=16, channels=channels)
        seen = []
        real = T.pool_channels

        def spy(weights, sources, tail=None):
            seen.append(weights.data.copy())
            return real(weights, sources, tail=tail)

        monkeypatch.setattr(T, "pool_channels", spy)
        forward(ep, init_params(cfg, seed=7))
        assert len(seen) == cfg.layers
        dead = 0
        for w in seen:
            assert w.shape == (ep.m, ep.m, len(channels))
            zero = np.all(w == 0.0, axis=2)
            assert np.all(np.abs(w.sum(axis=2)[~zero] - 1.0) <= 1e-12)
            dead += int(zero.sum())
        # a lone label channel has dead pairs (disagreeing supports)
        assert (dead > 0) == (len(channels) == 1)

    def test_float32_config_runs_in_float32(self, tiny_episode):
        cfg = ModelConfig(feature_dim=8, layers=1, hidden_dim=8,
                          encoder_dim=8, metric_hidden=8, dtype="float32")
        graph = forward(tiny_episode, init_params(cfg, seed=0))
        assert graph.edges[-1].dtype == np.float32

    @pytest.mark.parametrize(
        "channels",
        [
            FULL_CHANNELS,
            ("relative", "similar"),
            ("relative", "dissimilar"),
            ("similar", "dissimilar"),
            ("similar",),
            ("dissimilar",),
            ("relative",),
        ],
        ids=lambda c: "+".join(ch[0] for ch in c),
    )
    def test_every_variant_runs_with_right_channel_count(
            self, tiny_episode, channels):
        cfg = ModelConfig(feature_dim=8, layers=2, hidden_dim=8,
                          encoder_dim=8, metric_hidden=8, channels=channels)
        graph = forward(tiny_episode, init_params(cfg, seed=2))
        assert graph.edges[-1].shape == (tiny_episode.m,
                                         tiny_episode.m, len(channels))
        pred = predict_labels(graph, tiny_episode).data
        assert np.allclose(pred.sum(axis=1), 1.0, atol=1e-9)


def batch_case(variant="rsd", use_encoder=True, metric_input="distance",
               dtype="float64"):
    """Parameters off their init, and four same-shape episodes (2-way
    3-shot 2-query, M = 10) with different visible supports."""
    pool = synth_clusters(6, 12, 6, sep=3.0, seed=90)
    eps = [sample_episode(pool, 2, 3, 2, label_fraction=0.5,
                          rng=make_rng(90, b)) for b in range(4)]
    cfg = ModelConfig(feature_dim=6, layers=2, hidden_dim=8,
                      use_encoder=use_encoder, encoder_dim=8,
                      metric_hidden=12, metric_input=metric_input,
                      channels=parse_variant(variant),
                      standardize_vertex=True, aggregate_self=True,
                      dtype=dtype)
    params = init_params(cfg, seed=9)
    offset = make_rng(91, 0)
    for p in params.values():
        p.data += 0.1 * offset.standard_normal(p.shape).astype(p.dtype)
    return cfg, params, eps


def step_grads(params, episode):
    """Parameter gradients of a training step's loss on one tape: the
    sum of the episodes' total losses (structure weight 0.3), over 4."""
    params.zero_grads()
    with T.Tape() as tape:
        graph = forward(episode, params)
        total = report_losses(graph, episode, 0.3)[0]
        tape.backward(T.mul(T.tensor_sum(total), 0.25))
    return {n: params.t(n).grad.copy() for n in params.names()}


class TestBatchGradients:
    """One tape over a stacked group against the sum of per-episode
    tapes, within 1e-12 of the largest gradient (float64)."""

    def gap(self, **case):
        _, params, eps = batch_case(**case)
        joint = step_grads(params, stack_episodes(eps))
        single = [step_grads(params, ep) for ep in eps]
        summed = {n: sum(g[n] for g in single) for n in joint}
        largest = max(float(np.max(np.abs(g))) for g in summed.values())
        worst = max(float(np.max(np.abs(joint[n] - summed[n])))
                    for n in joint)
        return worst, largest

    @pytest.mark.parametrize("use_encoder", [True, False],
                             ids=["encoder", "no_encoder"])
    @pytest.mark.parametrize("variant", ["rsd", "sd", "r"])
    def test_joint_tape_equals_summed_episode_tapes(self, variant,
                                                    use_encoder):
        worst, largest = self.gap(variant=variant, use_encoder=use_encoder)
        assert worst <= 1e-12 * largest

    def test_absdiff_metric_input(self):
        worst, largest = self.gap(metric_input="absdiff")
        assert worst <= 1e-12 * largest

    def test_float32(self):
        # float32's unit roundoff is 6e-8; the summation order moves
        # these gradients by about 3e-7 of the largest one
        worst, largest = self.gap(dtype="float32")
        assert worst <= 1e-5 * largest


class TestBatchForward:
    def test_slices_match_single_episodes_and_naive_oracle(self):
        cfg, params, eps = batch_case()
        graph = forward(stack_episodes(eps), params)
        arrays = {k: v.data for k, v in params.tensors.items()}
        for b, ep in enumerate(eps):
            single = forward(ep, params)
            naive = NaiveModel(ep, arrays, cfg.to_dict()).forward()[2]
            for got, one, ref in zip(graph.edges, single.edges, naive):
                assert np.max(np.abs(got.data[b] - one.data)) <= 1e-12
                assert np.max(np.abs(got.data[b] - np.array(ref))) <= 1e-10


class TestNaiveOracle:
    def base_episode(self, seed=40, n_way=2, k_shot=2, n_query=1, frac=1.0):
        pool = synth_clusters(5, 8, 6, sep=3.0, seed=seed)
        return sample_episode(pool, n_way, k_shot, n_query,
                              label_fraction=frac, rng=make_rng(seed, 2))

    def test_default_config(self):
        cfg = ModelConfig(feature_dim=6, layers=3, hidden_dim=8,
                          encoder_dim=8, metric_hidden=16)
        assert naive_worst_gap(self.base_episode(), cfg) < 1e-10

    def test_absdiff_metric_input(self):
        cfg = ModelConfig(feature_dim=6, layers=2, hidden_dim=8,
                          encoder_dim=8, metric_hidden=16,
                          metric_input="absdiff")
        assert naive_worst_gap(self.base_episode(seed=41), cfg) < 1e-10

    def test_no_encoder(self):
        cfg = ModelConfig(feature_dim=6, layers=2, hidden_dim=8,
                          use_encoder=False, metric_hidden=16)
        assert naive_worst_gap(self.base_episode(seed=42), cfg) < 1e-10

    def test_standardized_vertices(self):
        cfg = ModelConfig(feature_dim=6, layers=2, hidden_dim=8,
                          encoder_dim=8, metric_hidden=16,
                          standardize_vertex=True)
        assert naive_worst_gap(self.base_episode(seed=43), cfg) < 1e-10

    def test_two_channel_variant(self):
        cfg = ModelConfig(feature_dim=6, layers=2, hidden_dim=8,
                          encoder_dim=8, metric_hidden=16,
                          channels=("relative", "similar"))
        assert naive_worst_gap(self.base_episode(seed=44), cfg) < 1e-10

    def test_partial_labels(self):
        cfg = ModelConfig(feature_dim=6, layers=2, hidden_dim=8,
                          encoder_dim=8, metric_hidden=16)
        ep = self.base_episode(seed=45, k_shot=4, frac=0.5)
        assert naive_worst_gap(ep, cfg) < 1e-10

    def test_self_term(self):
        cfg = ModelConfig(feature_dim=6, layers=2, hidden_dim=8,
                          encoder_dim=8, metric_hidden=16,
                          aggregate_self=True)
        assert naive_worst_gap(self.base_episode(seed=47), cfg) < 1e-10


def test_full_loss_gradients_on_small_model(tiny_episode):
    cfg = ModelConfig(feature_dim=8, layers=2, hidden_dim=8,
                      encoder_dim=8, metric_hidden=12)
    params = init_params(cfg, seed=6)
    offset = make_rng(77, 0x6E)
    for p in params.values():
        p.data += 0.05 * offset.standard_normal(p.shape).astype(p.dtype)

    def run():
        total, _ = report_losses(forward(tiny_episode, params),
                                 tiny_episode, weight=0.3)
        return total

    subset = {
        name: params.t(name)
        for name in ("encoder.w", "layer0.vertex.w", "layer0.relnet.0.w",
                     "layer1.pairnet.2.w", "layer1.pairnet.2.b")
    }
    errs = T.grad_check_groups(run, subset)
    assert max(errs.values()) < 1e-5, errs


class TestLargeEpisodes:
    """The oracle and the gradient check on M = 50 episodes, whose 1226
    pair rows pass ``BLOCK_ROWS``. Episodes of every size take the piece
    tables and the Gram products; these guard the calls that span
    several row blocks, whose near pass runs block by block."""

    def episode(self, dim, seed):
        pool = synth_clusters(6, 20, dim, sep=3.0, seed=seed)
        episode = sample_episode(pool, 5, 1, 9, rng=make_rng(seed, 2))
        assert T.pair_rows(episode.m) > T.BLOCK_ROWS
        return episode

    def test_default_config_matches_naive_oracle(self):
        cfg = ModelConfig(feature_dim=6, layers=3, hidden_dim=8,
                          encoder_dim=8, metric_hidden=16)
        assert naive_worst_gap(self.episode(6, 48), cfg) < 1e-10

    def test_criterion_5_config_matches_naive_oracle(self):
        from test_acceptance import C5_MODEL

        cfg = ModelConfig(**C5_MODEL)
        assert naive_worst_gap(self.episode(16, 49), cfg, seed=3) < 1e-10

    def test_full_loss_gradients(self):
        # criterion 1's epsilon, bound and parameter offset, with linear
        # metric nets: among an M = 50 episode's tens of thousands of
        # leaky-ReLU pre-activations some lie within epsilon of a kink,
        # where a central difference is wrong (7 of 8 episodes failed
        # 1e-4 here at slope 0.01); TestPieceTable ties the kinks'
        # gradients to the block kernel's. The structure weight is 0.3:
        # at criterion 1's 1e-5 a last-layer relative net's gradient can
        # be 1e-8 of the loss, too small for one rounding of the loss to
        # resolve to 1e-4
        cfg = ModelConfig(feature_dim=8, layers=2, hidden_dim=4,
                          encoder_dim=4, metric_hidden=6, leaky_slope=1.0)
        episode = self.episode(8, 50)
        params = init_params(cfg, seed=6)
        offset = make_rng(77, 0x6E)
        for p in params.values():
            p.data += 0.05 * offset.standard_normal(p.shape).astype(p.dtype)

        def run():
            total, _ = report_losses(forward(episode, params), episode,
                                     weight=0.3)
            return total

        errs = T.grad_check_groups(run, params.tensors, epsilon=1e-5)
        assert max(errs.values()) < 1e-4, errs


class TestPieceTables:
    """A fixed model reads each metric net's piece table from the cache
    after the first episode; what it reads must be what a fresh build
    gives, and the cache must not grow with the run."""

    # M = 80 and 160 one episode at a time, M = 16 in stacked groups of
    # four, as train-m16-semi's batches run
    @pytest.mark.parametrize("shape", [(5, 1, 15), (8, 5, 15), (2, 5, 3)])
    def test_cold_and_warm_tables_give_the_same_step_bitwise(self, shape):
        from test_acceptance import C5_MODEL

        pool = synth_clusters(8, 20, 16, sep=6.0, seed=51)
        params = init_params(ModelConfig(**C5_MODEL), seed=4)
        offset = make_rng(52, 0)
        for p in params.values():
            p.data += 0.05 * offset.standard_normal(p.shape)
        count = 4 if shape == (2, 5, 3) else 1
        episodes = []
        for k in range(2):
            rng = make_rng(53, k)
            drawn = [sample_episode(pool, *shape, rng=rng)
                     for _ in range(count)]
            episodes.append(stack_episodes(drawn) if count > 1 else drawn[0])

        def run(episode):
            edges = [e.data.copy() for e in forward(episode, params).edges]
            grads = step_grads(params, episode)
            return edges, np.concatenate([g.reshape(-1)
                                          for g in grads.values()])

        cold = []
        for episode in episodes:
            T._piece_table.cache_clear()
            cold.append(run(episode))
        T._piece_table.cache_clear()
        run(episodes[0])
        hits = T._piece_table.cache_info().hits
        for episode, (edges, grads) in zip(episodes, cold):
            got_edges, got_grads = run(episode)
            assert all(np.array_equal(a, b) for a, b in zip(got_edges, edges))
            assert np.array_equal(got_grads, grads)
        assert T._piece_table.cache_info().hits > hits

    def test_training_keeps_the_cache_within_its_bound(self):
        from hospgnn.train import TrainConfig, train
        from test_acceptance import C5_MODEL

        # 5-way 1-shot 9-query, M = 50, one episode a step; then
        # train-m16-semi's shape, stacked groups of four M = 16 episodes
        # with 40% of the labels. Every step's new weights are new keys
        pool = synth_clusters(6, 20, 16, sep=3.0, seed=54)
        for shape in [dict(n_way=5, k_shot=1, n_query=9, batch_episodes=1),
                      dict(n_way=2, k_shot=5, n_query=3, batch_episodes=4,
                           label_fraction=0.4)]:
            cfg = TrainConfig(model=ModelConfig(**C5_MODEL),
                              total_iterations=20, eval_every=5,
                              eval_episodes=1, seed=5, **shape)
            T._piece_table.cache_clear()
            train(pool, pool, cfg, workers=1)
            info = T._piece_table.cache_info()
            assert info.misses >= 20 * 2 * C5_MODEL["layers"]
            assert info.currsize <= T.TABLE_CACHE_SIZE
