import numpy as np
import pytest

from hospgnn import tensor as T
from hospgnn.data import Episode, make_rng, sample_episode, stack_episodes
from hospgnn.errors import ConfigError, DataError
from hospgnn.graph import readout_for
from hospgnn.losses import (
    accuracy,
    episodic_ce,
    hard_labels,
    manifold_loss,
    predict_labels,
    query_slots,
    report_losses,
    total_loss,
)
from hospgnn.model import EpisodeGraph, forward, metric_scores


def tiny_task(visible=(True, True)):
    # 2-way 1-shot with 2 queries: vertices [s0, s1, q0, q1]
    return Episode(
        n_way=2, k_shot=1, n_query=1,
        features=np.zeros((4, 3), dtype=np.float32),
        class_slots=np.array([0, 1, 0, 1]),
        label_mask=np.array(list(visible) + [False, False]),
        class_ids=np.array([7, 9]),
        item_indices=np.arange(4),
    )


def graph_from_edges(layer_edges, channels=("similar",)):
    """Fabricated graph carrying only what the readout needs."""
    edges = [T.Tensor(np.asarray(e, dtype=np.float64)) for e in layer_edges]
    return EpisodeGraph(
        channels=channels,
        vertex_feats=[], diff_feats=[],
        edges=edges,
    )


def similar_layer(q0_edges, q1_edges):
    e = np.full((4, 4, 1), 0.5)
    e[2, :2, 0] = q0_edges
    e[3, :2, 0] = q1_edges
    return e


class TestReadout:
    def test_softmax_of_raw_edge_values(self):
        g = graph_from_edges([np.zeros((4, 4, 1)),
                              similar_layer([0.9, 0.1], [0.2, 0.8])])
        rows = predict_labels(g, tiny_task()).data
        assert np.allclose(rows[0], [0.690, 0.310], atol=1e-3)
        assert np.allclose(rows[1], [0.354, 0.646], atol=1e-3)

    def test_probabilities_are_the_softmax_chain_bitwise(self):
        # predict_labels and T.readout_ce share one softmax, with the ops
        # of the taped T.softmax chain
        e = similar_layer([0.9, 0.1], [0.2, 0.8])
        rows = predict_labels(graph_from_edges([np.zeros((4, 4, 1)), e]),
                              tiny_task()).data
        logits = T.Tensor(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert np.array_equal(rows, T.softmax(logits, axis=-1).data)

    def test_equal_edges_give_even_split(self):
        g = graph_from_edges([np.zeros((4, 4, 1)),
                              similar_layer([0.5, 0.5], [0.3, 0.3])])
        rows = predict_labels(g, tiny_task()).data
        assert np.allclose(rows, 0.5, atol=1e-12)

    def test_bigger_edge_wins(self):
        g = graph_from_edges([np.zeros((4, 4, 1)),
                              similar_layer([0.6, 0.4], [0.45, 0.55])])
        labels = hard_labels(predict_labels(g, tiny_task()))
        assert labels.tolist() == [0, 1]

    def test_dissimilar_channel_read_as_complement(self):
        e = np.full((4, 4, 1), 0.5)
        e[2, :2, 0] = [0.1, 0.9]  # low dissimilarity to class 0
        e[3, :2, 0] = [0.8, 0.2]
        g = graph_from_edges([np.zeros((4, 4, 1)), e],
                             channels=("dissimilar",))
        labels = hard_labels(predict_labels(g, tiny_task()))
        assert labels.tolist() == [0, 1]

    def test_hidden_support_is_ignored(self):
        base = similar_layer([0.9, 0.1], [0.1, 0.9])
        loud = base.copy()
        loud[2, 1, 0] = 99.0   # edge to the hidden support
        loud[3, 0, 0] = 99.0
        task = tiny_task()
        g_base = graph_from_edges([np.zeros((4, 4, 1)), base])
        rows_full = predict_labels(g_base, task).data

        half = tiny_task(visible=(True, False))
        g_loud = graph_from_edges([np.zeros((4, 4, 1)), loud])
        with pytest.raises(DataError):
            # hiding class 1's only support breaks the readout contract
            predict_labels(g_loud, half)
        # with a 2-shot class the hidden copy must not leak in
        task2 = Episode(
            n_way=2, k_shot=2, n_query=1,
            features=np.zeros((6, 3), dtype=np.float32),
            class_slots=np.array([0, 0, 1, 1, 0, 1]),
            label_mask=np.array([True, False, True, False, False, False]),
            class_ids=np.array([1, 2]),
            item_indices=np.arange(6),
        )
        e = np.full((6, 6, 1), 0.5)
        e[4, 0, 0] = 0.9
        e[4, 1, 0] = 77.0   # hidden: must not count
        e[4, 2, 0] = 0.1
        g = graph_from_edges([np.zeros((6, 6, 1)), e])
        rows = predict_labels(g, task2).data
        assert np.allclose(rows[0], T.softmax(
            T.Tensor(np.array([0.9, 0.1]))).data, atol=1e-12)
        assert rows_full.shape == (2, 2)

    def test_all_supports_hidden_for_a_class_raises(self):
        g = graph_from_edges([np.zeros((4, 4, 1)), similar_layer(
            [0.5, 0.5], [0.5, 0.5])])
        with pytest.raises(DataError, match=r"class slot"):
            predict_labels(g, tiny_task(visible=(True, False)))

    @pytest.mark.parametrize("read", [predict_labels, episodic_ce])
    def test_hidden_class_is_named_by_readout_and_loss(self, read):
        g = graph_from_edges([np.zeros((4, 4, 1)), similar_layer(
            [0.5, 0.5], [0.5, 0.5])])
        with pytest.raises(DataError, match=r"no visible support for "
                           r"class slot\(s\) \[1\]"):
            read(g, tiny_task(visible=(True, False)))

    @pytest.mark.parametrize("read", [predict_labels, episodic_ce])
    def test_hidden_class_is_named_for_a_stacked_episode(self, read):
        # one of two stacked episodes hides class 1's only support
        layer = similar_layer([0.5, 0.5], [0.5, 0.5])
        g = graph_from_edges([np.zeros((2, 4, 4, 1)),
                              np.stack([layer, layer])])
        with pytest.raises(DataError, match=r"no visible support for "
                           r"class slot\(s\) \[1\]"):
            read(g, stack_episodes([tiny_task(),
                                    tiny_task(visible=(True, False))]))

    def test_stacked_readout_is_per_episode(self):
        layers = [similar_layer([0.9, 0.1], [0.2, 0.8]),
                  similar_layer([0.6, 0.4], [0.7, 0.3])]
        task = tiny_task()
        g = graph_from_edges([np.zeros((2, 4, 4, 1)), np.stack(layers)])
        stacked = stack_episodes([task, task])
        rows = predict_labels(g, stacked).data
        ce = episodic_ce(g, stacked).data
        assert accuracy(g, stacked).tolist() == [1.0, 0.5]
        for b, layer in enumerate(layers):
            one = graph_from_edges([np.zeros((4, 4, 1)), layer])
            assert np.array_equal(rows[b], predict_labels(one, task).data)
            assert abs(ce[b] - float(episodic_ce(one, task).data)) < 1e-15

    def test_layer_selection_and_bounds(self):
        l1 = similar_layer([0.9, 0.1], [0.9, 0.1])
        l2 = similar_layer([0.1, 0.9], [0.1, 0.9])
        g = graph_from_edges([np.zeros((4, 4, 1)), l1, l2])
        first = hard_labels(predict_labels(g, tiny_task(), layer=1))
        last = hard_labels(predict_labels(g, tiny_task()))
        assert first.tolist() == [0, 0]
        assert last.tolist() == [1, 1]
        for bad in (0, 3):
            with pytest.raises(ConfigError):
                predict_labels(g, tiny_task(), layer=bad)

    def test_default_channel_follows_the_readout_rule(self):
        channels = ("relative", "dissimilar")
        layer = np.random.default_rng(3).uniform(0.1, 0.9, size=(4, 4, 2))
        g = graph_from_edges([np.zeros((4, 4, 2)), layer], channels=channels)
        rel = graph_from_edges([np.zeros((4, 4, 1)), layer[..., :1]],
                               channels=("relative",))
        assert readout_for(channels) == "relative"
        assert np.array_equal(predict_labels(g, tiny_task()).data,
                              predict_labels(rel, tiny_task()).data)

    def test_query_slots(self):
        assert query_slots(tiny_task()).tolist() == [0, 1]


class TestClassificationLoss:
    def test_uniform_predictions_cost_layers_times_log_n(self):
        uniform = similar_layer([0.5, 0.5], [0.5, 0.5])
        for n_layers in (1, 2, 3):
            g = graph_from_edges(
                [np.zeros((4, 4, 1))] + [uniform] * n_layers)
            terms = []
            total = episodic_ce(g, tiny_task(), terms)
            assert len(terms) == n_layers
            for t in terms:
                assert abs(float(t.data) - np.log(2.0)) < 1e-12
            assert abs(float(total.data) - n_layers * np.log(2.0)) < 1e-12

    def test_confident_correct_predictions_cost_nothing(self):
        sharp = similar_layer([60.0, 0.0], [0.0, 60.0])
        g = graph_from_edges([np.zeros((4, 4, 1)), sharp])
        assert float(episodic_ce(g, tiny_task()).data) < 1e-18

    def test_confident_wrong_predictions_cost_plenty(self):
        wrong = similar_layer([0.0, 30.0], [30.0, 0.0])
        g = graph_from_edges([np.zeros((4, 4, 1)), wrong])
        assert float(episodic_ce(g, tiny_task()).data) > 20.0

    def test_loss_is_mean_over_queries(self):
        # one perfect query, one uniform: cost is half the uniform cost
        mix = similar_layer([60.0, 0.0], [0.4, 0.4])
        g = graph_from_edges([np.zeros((4, 4, 1)), mix])
        got = float(episodic_ce(g, tiny_task()).data)
        assert abs(got - 0.5 * np.log(2.0)) < 1e-12

    def test_accuracy_counts_argmax_hits(self):
        g = graph_from_edges([np.zeros((4, 4, 1)),
                              similar_layer([0.9, 0.1], [0.6, 0.4])])
        assert accuracy(g, tiny_task()) == 0.5


class TestStructureLoss:
    def test_matches_loop_on_real_forward(self, tiny_episode, tiny_params):
        graph = forward(tiny_episode, tiny_params)
        m = graph.m
        layer_terms = []
        got = float(manifold_loss(graph, layer_terms).data)
        want_total = 0.0
        for layer in range(1, graph.num_layers + 1):
            prev = graph.edges[layer - 1].data
            # the raw scores, recomputed apart from the stored stack
            rel = metric_scores(tiny_params, f"layer{layer - 1}.relnet",
                                graph.diff_feats[layer]).data
            pair = metric_scores(tiny_params, f"layer{layer - 1}.pairnet",
                                 graph.vertex_feats[layer]).data
            by_name = {"relative": rel, "similar": pair,
                       "dissimilar": 1.0 - pair}
            terms = layer_terms[layer - 1]
            for idx, ch in enumerate(graph.channels):
                acc = 0.0
                for i in range(m):
                    for j in range(m):
                        acc += by_name[ch][i, j] * prev[i, j, idx]
                acc /= m * m
                assert abs(float(terms.data[idx]) - acc) < 1e-12
                want_total += acc
        assert abs(got - want_total) < 1e-12

    def test_weight_combines_linearly(self):
        ce = T.Tensor(np.asarray(2.0))
        ml = T.Tensor(np.asarray(3.0))
        assert float(total_loss(ce, ml, 0.5).data) == 3.5
        assert float(total_loss(ce, ml, 1e-5).data) == 2.0 + 3e-5

    def test_zero_weight_returns_classification_term(self):
        ce = T.Tensor(np.asarray(2.0))
        ml = T.Tensor(np.asarray(3.0))
        assert total_loss(ce, ml, 0.0) is ce

    def test_negative_weight_rejected(self):
        ce = T.Tensor(np.asarray(2.0))
        with pytest.raises(ConfigError):
            total_loss(ce, ce, -0.1)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, weight):
        ce = T.Tensor(np.asarray(2.0))
        with pytest.raises(ConfigError, match="finite"):
            total_loss(ce, ce, weight)


class TestReport:
    def test_report_is_consistent(self, tiny_episode, tiny_params):
        graph = forward(tiny_episode, tiny_params)
        total, rep = report_losses(graph, tiny_episode, weight=0.3)
        assert rep.weight == 0.3
        assert len(rep.ce_per_layer) == graph.num_layers
        assert len(rep.structure_per_layer) == graph.num_layers
        assert abs(rep.ce - sum(rep.ce_per_layer)) < 1e-12
        per_layer_totals = [
            sum(d.values()) for d in rep.structure_per_layer
        ]
        assert abs(rep.structure - sum(per_layer_totals)) < 1e-12
        assert abs(rep.total - (rep.ce + 0.3 * rep.structure)) < 1e-12
        assert abs(float(total.data) - rep.total) < 1e-12

    def test_stacked_report_has_one_value_per_episode(self, desk_splits,
                                                      tiny_params):
        train, _, _ = desk_splits
        eps = stack_episodes([
            sample_episode(train, 2, 1, 1, 1.0, make_rng(17, b))
            for b in range(3)])
        graph = forward(eps, tiny_params)
        total, rep = report_losses(graph, eps, weight=0.3)
        ce_layers, ml_layers = [], []
        assert rep.total == total.data.tolist()
        assert rep.ce == episodic_ce(graph, eps, ce_layers).data.tolist()
        assert rep.structure == manifold_loss(graph, ml_layers).data.tolist()
        assert rep.ce_per_layer == [t.data.tolist() for t in ce_layers]
        for per_channel, terms in zip(rep.structure_per_layer, ml_layers):
            assert list(per_channel) == list(graph.channels)
            for c, values in enumerate(per_channel.values()):
                assert values == terms.data[:, c].tolist()
        assert all(type(v) is float for v in rep.ce + rep.total)
        assert len(rep.ce) == 3

    def test_gradient_flows_through_both_parts(self, tiny_episode,
                                               tiny_params):
        tiny_params.zero_grads()
        with T.Tape() as tape:
            total, _ = report_losses(
                forward(tiny_episode, tiny_params), tiny_episode, weight=0.5)
            tape.backward(total)
        norms = [float(np.abs(p.grad).sum()) for p in tiny_params.values()]
        assert all(np.isfinite(n) for n in norms)
        assert sum(n > 0 for n in norms) >= len(norms) - 2
