import dataclasses
import gc
import json
import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from hospgnn import losses, tensor as T
from hospgnn.data import (
    make_rng, sample_episode, synth_benchmark, synth_clusters)
from hospgnn.errors import (
    ConfigError, DataError, DegenerateEpisodeError, NumericError)
from hospgnn.losses import (
    accuracy, episodic_ce, manifold_loss, predict_labels, total_loss)
from hospgnn.model import ModelConfig, forward, init_params
from hospgnn.train import (
    _STREAM_EVAL,
    _WORKERS,
    ADAM_BETAS,
    ADAM_EPS,
    Adam,
    Checkpoint,
    TrainConfig,
    episode_groups,
    evaluate,
    load_checkpoint,
    run_ablation,
    save_checkpoint,
    train,
)

from naive_ref import NaiveModel
from test_acceptance import C5_MODEL, C5_TRAIN


def nan_valued_loss(total_loss):
    """``total_loss`` plus a NaN-valued term whose backward gives zeros:
    the loss is NaN, every parameter gradient stays finite."""

    def poisoned(ce, structure, weight):
        total = total_loss(ce, structure, weight)
        nan = T._emit(np.full(total.shape, np.nan, dtype=total.dtype),
                      (total,), lambda g: (np.zeros_like(g),))
        return T.add(total, nan)

    return poisoned


def small_cfg(**kw):
    model_kw = dict(feature_dim=8, layers=2, hidden_dim=8,
                    encoder_dim=8, metric_hidden=12)
    model_kw.update(kw.pop("model_kw", {}))
    model = ModelConfig(**model_kw)
    base = dict(model=model, n_way=2, k_shot=1, n_query=2,
                batch_episodes=2, total_iterations=4, eval_every=2,
                eval_episodes=4, learning_rate=1e-3, seed=7)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_dict_round_trip(self):
        cfg = small_cfg(structure_weight=0.01, label_fraction=0.5)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_fingerprint_tracks_content(self):
        a = small_cfg()
        b = small_cfg(learning_rate=2e-3)
        c = small_cfg(model_kw={"layers": 3})
        assert a.fingerprint() == small_cfg().fingerprint()
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_way": 1},
            {"k_shot": 0},
            {"n_query": 0},
            {"label_fraction": 0.0},
            {"label_fraction": 1.2},
            {"structure_weight": -1e-5},
            {"learning_rate": 0.0},
            {"batch_episodes": 0},
            {"total_iterations": -1},
            {"eval_every": 0},
            {"eval_episodes": 0},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            small_cfg(**kw)

    @pytest.mark.parametrize("kw", [
        {"batch_episodes": 2.0}, {"total_iterations": 3.0},
        {"eval_every": True}, {"eval_episodes": 2.5},
        {"model_kw": {"layers": 2.0}}, {"model_kw": {"hidden_dim": 8.0}},
        {"model_kw": {"feature_dim": True}}, {"n_way": 1},
    ], ids=repr)
    def test_counts_are_checked_when_the_config_is_built(self, kw):
        (name,) = kw.get("model_kw", kw)
        with pytest.raises(ConfigError, match=rf"^{name} must be "):
            small_cfg(**kw)
        # numpy integers are counts, and no iteration is one too
        counted = {name: np.int64(2 if name == "n_way" else 8)}
        small_cfg(**({"model_kw": counted} if "model_kw" in kw else counted))
        assert small_cfg(total_iterations=0).total_iterations == 0


class TestAdam:
    def params(self):
        cfg = ModelConfig(feature_dim=4, layers=1, hidden_dim=4,
                          use_encoder=False, metric_hidden=4)
        return init_params(cfg, seed=0)

    def test_zero_grad_step_is_pure_decay(self):
        params = self.params()
        before = params.copy_arrays()
        opt = Adam(params, learning_rate=0.1, weight_decay=0.5)
        params.zero_grads()
        opt.step()
        for name, arr in params.copy_arrays().items():
            assert np.allclose(arr, before[name] * (1 - 0.1 * 0.5),
                               atol=1e-15)

    def test_first_step_matches_closed_form(self):
        params = self.params()
        before = params.copy_arrays()
        grads = {}
        rng = np.random.default_rng(1)
        for name, p in params.tensors.items():
            p.grad = rng.normal(size=p.shape)
            grads[name] = p.grad.copy()
        opt = Adam(params, learning_rate=0.01)
        opt.step()
        b1, b2 = ADAM_BETAS
        for name, p in params.tensors.items():
            g = grads[name]
            m_hat = (1 - b1) * g / (1 - b1)
            v_hat = (1 - b2) * g * g / (1 - b2)
            want = before[name] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.allclose(p.data, want, atol=1e-12)

    def test_constant_gradient_walks_at_unit_rate(self):
        # with a constant gradient the normalized step approaches
        # lr * sign(g) regardless of magnitude
        params = self.params()
        opt = Adam(params, learning_rate=0.05)
        name = next(iter(params.names()))
        p = params.t(name)
        start = p.data.copy()
        for _ in range(200):
            for q in params.values():
                q.grad = np.full(q.shape, 3.0)
            opt.step()
        moved = start - p.data
        assert np.all(moved > 0.05 * 150)

    def test_flat_update_equals_per_tensor_loop_bitwise(self):
        params = self.params()
        want = params.copy_arrays()
        first = {n: np.zeros_like(a) for n, a in want.items()}
        second = {n: np.zeros_like(a) for n, a in want.items()}
        lr, decay = 0.01, 0.5
        opt = Adam(params, learning_rate=lr, weight_decay=decay)
        rng = np.random.default_rng(2)
        b1, b2 = ADAM_BETAS
        for step in range(1, 21):
            for p in params.values():
                p.grad = rng.normal(size=p.shape)
            opt.step()
            # the per-tensor loop the flat update replaced
            bias1, bias2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for name, p in params.tensors.items():
                grad, m, v = p.grad, first[name], second[name]
                want[name] *= 1.0 - lr * decay
                m *= b1
                m += (1.0 - b1) * grad
                v *= b2
                v += (1.0 - b2) * grad * grad
                want[name] -= lr * (m / bias1) / (np.sqrt(v / bias2)
                                                  + ADAM_EPS)
        for name, p in params.tensors.items():
            assert np.array_equal(p.data, want[name]), name

    def test_flat_index_names_its_parameter(self):
        params = self.params()
        opt = Adam(params, learning_rate=0.1)
        for k, name in enumerate(params.names()):
            assert opt.name_at(opt.bounds[k]) == name
            assert opt.name_at(opt.bounds[k + 1] - 1) == name

    def test_missing_grads_treated_as_zero(self):
        params = self.params()
        opt = Adam(params, learning_rate=0.1)
        before = params.copy_arrays()
        for p in params.values():
            p.grad = None
        opt.step()
        for name, p in params.tensors.items():
            assert np.array_equal(p.data, before[name])


class TestBatchGradients:
    def test_scaled_sum_equals_combined_tape(self):
        # per-episode backward with 1/B scaling must match one tape over
        # the batch-mean loss
        pool = synth_clusters(4, 6, 8, sep=3.0, seed=60)
        cfg = small_cfg()
        eps = [sample_episode(pool, 2, 1, 2, rng=make_rng(3, i))
               for i in range(3)]

        def grads_separate():
            params = init_params(cfg.model, seed=1)
            params.zero_grads()
            for ep in eps:
                with T.Tape() as tape:
                    graph = forward(ep, params)
                    total = total_loss(episodic_ce(graph, ep),
                                       manifold_loss(graph),
                                       cfg.structure_weight)
                    tape.backward(T.mul(total, 1.0 / len(eps)))
            return {n: params.t(n).grad.copy() for n in params.names()}

        def grads_joint():
            params = init_params(cfg.model, seed=1)
            params.zero_grads()
            with T.Tape() as tape:
                acc = None
                for ep in eps:
                    graph = forward(ep, params)
                    total = total_loss(episodic_ce(graph, ep),
                                       manifold_loss(graph),
                                       cfg.structure_weight)
                    acc = total if acc is None else T.add(acc, total)
                tape.backward(T.mul(acc, 1.0 / len(eps)))
            return {n: params.t(n).grad.copy() for n in params.names()}

        a, b = grads_separate(), grads_joint()
        worst = max(float(np.max(np.abs(a[n] - b[n]))) for n in a)
        assert worst < 1e-12


@pytest.fixture(scope="module")
def c5_pool():
    return synth_clusters(6, 20, 16, sep=6.0, seed=74)


class TestEpisodeGroups:
    @pytest.mark.parametrize("shape,batch,tapes", [
        ((2, 5, 3), 4, 1),     # M = 16: groups of up to 8
        ((5, 1, 15), 2, 2),    # M = 80: one episode per group
    ], ids=["m16", "m80"])
    def test_one_tape_per_group(self, monkeypatch, c5_pool, shape, batch,
                                tapes):
        # criterion 5's model; a tape records the same nodes for one
        # episode as for a stacked group
        nodes = []
        real = T.Tape.backward

        def spy(tape, loss):
            nodes.append(len(tape))
            return real(tape, loss)

        monkeypatch.setattr(T.Tape, "backward", spy)
        n_way, k_shot, n_query = shape
        cfg = TrainConfig(model=ModelConfig(**C5_MODEL), n_way=n_way,
                          k_shot=k_shot, n_query=n_query, label_fraction=0.4,
                          batch_episodes=batch, total_iterations=1,
                          eval_episodes=1, seed=3)
        train(c5_pool, c5_pool, cfg, workers=1)
        assert len(nodes) == tapes
        assert max(nodes) <= 60, nodes

    def test_group_sizes_fill_one_row_block(self, c5_pool):
        rng = make_rng(5, 0)
        for shape, sizes in (((2, 5, 3), [8, 8, 4]), ((5, 1, 3), [5] * 4),
                             ((3, 2, 13), [1] * 20)):
            eps = [sample_episode(c5_pool, *shape, rng=rng)
                   for _ in range(20)]
            groups = episode_groups(eps)
            assert [g.features.shape[0] if g.features.ndim == 3 else 1
                    for g in groups] == sizes
        # a group of one is the episode itself
        assert groups[0] is eps[0]


@pytest.fixture(scope="module")
def train_pool():
    return synth_clusters(6, 12, 8, sep=6.0, seed=70)


@pytest.fixture(scope="module")
def val_pool():
    return synth_clusters(4, 12, 8, sep=6.0, seed=71, split="validation")


class TestTrainLoop:
    def test_runs_and_losses_drop(self, train_pool, val_pool):
        cfg = small_cfg(total_iterations=30, eval_every=10,
                        batch_episodes=4, learning_rate=3e-3)
        best, metrics = train(train_pool, val_pool, cfg)
        assert [m.iteration for m in metrics] == [10, 20, 30]
        assert best.iteration in (10, 20, 30)
        assert metrics[-1].loss < metrics[0].loss
        assert 0.0 <= best.val_accuracy <= 1.0

    def test_bitwise_deterministic(self, train_pool, val_pool):
        cfg = small_cfg(total_iterations=6, eval_every=3)
        best1, m1 = train(train_pool, val_pool, cfg)
        best2, m2 = train(train_pool, val_pool, cfg)
        assert [(r.iteration, r.loss, r.val_accuracy) for r in m1] == \
               [(r.iteration, r.loss, r.val_accuracy) for r in m2]
        for name in best1.arrays:
            assert np.array_equal(best1.arrays[name], best2.arrays[name])

    def test_seed_changes_trajectory(self, train_pool, val_pool):
        m1 = train(train_pool, val_pool, small_cfg(total_iterations=2,
                                                   eval_every=2))[1]
        m2 = train(train_pool, val_pool, small_cfg(total_iterations=2,
                                                   eval_every=2, seed=8))[1]
        assert m1[0].loss != m2[0].loss

    def test_zero_iterations_returns_initial_params(self, train_pool,
                                                    val_pool):
        cfg = small_cfg(total_iterations=0)
        best, metrics = train(train_pool, val_pool, cfg)
        assert metrics == []
        fresh = init_params(cfg.model, seed=cfg.seed)
        for name in best.arrays:
            assert np.array_equal(best.arrays[name], fresh.t(name).data)

    def test_non_finite_gradient_stops_before_the_step(self, train_pool,
                                                       val_pool, monkeypatch):
        # a zero-valued term whose backward yields NaN: the loss stays
        # finite, every parameter gradient does not
        original = losses.total_loss

        def poisoned(ce, structure, weight):
            total = original(ce, structure, weight)
            zero = T._emit(np.zeros((), dtype=total.dtype), (total,),
                           lambda g: (np.full_like(g, np.nan),))
            return T.add(total, zero)

        monkeypatch.setattr(losses, "total_loss", poisoned)
        with pytest.raises(NumericError,
                           match=r"gradient of encoder\.w at iteration 1$"):
            train(train_pool, val_pool, small_cfg(total_iterations=2))

    def test_non_finite_loss_stops_before_the_step(self, monkeypatch):
        # three groups, so two workers run two shares; each worker forks
        # with the poisoned loss
        train_module = sys.modules["hospgnn.train"]
        pool, cfg = _train_setup((2, 5, 3), 20)
        made = []

        def kept_init(config, seed=0):
            made.append(init_params(config, seed=seed))
            return made[-1]

        monkeypatch.setattr(losses, "total_loss",
                            nan_valued_loss(losses.total_loss))
        monkeypatch.setattr(train_module, "init_params", kept_init)
        fresh = init_params(cfg.model, seed=cfg.seed)
        try:
            for workers in (1, 2):
                _WORKERS.close()
                made.clear()
                with pytest.raises(NumericError, match=r"^non-finite loss "
                                   r"nan at iteration 1$"):
                    train(pool, pool, cfg, workers=workers)
                assert len(_live_workers()) == workers - 1
                (params,) = made
                for name in fresh.names():
                    assert np.array_equal(params.t(name).data,
                                          fresh.t(name).data), name
        finally:
            _WORKERS.close()

    def test_target_accuracy_stops_early(self, train_pool, val_pool):
        cfg = small_cfg(total_iterations=50, eval_every=1,
                        target_accuracy=0.0)
        best, metrics = train(train_pool, val_pool, cfg)
        assert metrics[-1].iteration == 1

    def test_log_callback_sees_every_row(self, train_pool, val_pool):
        cfg = small_cfg(total_iterations=4, eval_every=2)
        seen = []
        _, metrics = train(train_pool, val_pool, cfg, log=seen.append)
        assert seen == metrics

    def test_single_channel_variant_trains(self, train_pool, val_pool):
        cfg = small_cfg(
            total_iterations=2,
            model_kw={"channels": ("similar", "dissimilar")},
        )
        best, _ = train(train_pool, val_pool, cfg)
        assert not any("relnet" in n for n in best.arrays)


class TestFloat32:
    def test_reaches_the_desk_target(self):
        # criterion 5's data, model and run, in float32
        ds_train, ds_val, ds_test = synth_benchmark(
            20, 8, 8, per_class=30, dim=16, sep=6.0, seed=1)
        cfg = TrainConfig(model=ModelConfig(dtype="float32", **C5_MODEL),
                          **C5_TRAIN)
        best, _ = train(ds_train, ds_val, cfg)
        params = best.restore()
        assert all(p.dtype == np.float32 for p in params.values())
        acc, _ = evaluate(ds_test, params, cfg, episodes=50, seed=999)
        assert acc >= 0.95


class TestEvaluate:
    def test_groups_give_the_per_episode_statistics(self):
        # M = 16, 20 episodes: groups of 8, 8 and 4; the mean and the
        # 95% half-width are over the 20 episodes' own accuracies
        pool = synth_clusters(6, 20, 8, sep=2.0, seed=75)
        cfg = small_cfg(n_way=2, k_shot=5, n_query=3, label_fraction=0.4)
        params = init_params(cfg.model, seed=3)
        one = evaluate(pool, params, cfg, episodes=20, seed=6, workers=1)
        two = evaluate(pool, params, cfg, episodes=20, seed=6, workers=2)
        assert one == two
        rng = make_rng(6, _STREAM_EVAL)
        eps = [sample_episode(pool, 2, 5, 3, 0.4, rng) for _ in range(20)]
        assert len(episode_groups(eps)) == 3
        accs = np.array([accuracy(forward(ep, params), ep) for ep in eps])
        assert one == (float(accs.mean()),
                       float(1.96 * accs.std(ddof=1) / np.sqrt(20)))

    def test_worker_count_does_not_change_result(self, train_pool):
        cfg = small_cfg()
        params = init_params(cfg.model, seed=0)
        a = evaluate(train_pool, params, cfg, episodes=6, workers=1)
        b = evaluate(train_pool, params, cfg, episodes=6, workers=4)
        assert a == b

    def test_chance_level_on_unseparated_data(self):
        pool = synth_clusters(6, 20, 8, sep=0.0, seed=72)
        cfg = small_cfg()
        params = init_params(cfg.model, seed=0)
        acc, ci = evaluate(pool, params, cfg, episodes=40)
        assert abs(acc - 0.5) < 0.2

    def test_ci_zero_for_single_episode(self, train_pool):
        cfg = small_cfg()
        params = init_params(cfg.model, seed=0)
        _, ci = evaluate(train_pool, params, cfg, episodes=1)
        assert ci == 0.0

    def test_needs_at_least_one_episode(self, train_pool):
        cfg = small_cfg()
        params = init_params(cfg.model, seed=0)
        with pytest.raises(ConfigError):
            evaluate(train_pool, params, cfg, episodes=0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_needs_at_least_one_worker(self, train_pool, val_pool, workers):
        cfg = small_cfg()
        params = init_params(cfg.model, seed=0)
        with pytest.raises(ConfigError, match="workers"):
            evaluate(train_pool, params, cfg, episodes=2, workers=workers)
        # train refuses before its first iteration, not at its first eval
        with pytest.raises(ConfigError, match="workers"):
            train(train_pool, val_pool, cfg, workers=workers)


# M = 16 evaluation episodes run in stacked groups of 8: four groups
M16_FOUR_GROUPS = 32


def _m16_eval_setup():
    pool = synth_clusters(6, 20, 8, sep=2.0, seed=75)
    cfg = small_cfg(n_way=2, k_shot=5, n_query=3, label_fraction=0.4)
    return pool, cfg, init_params(cfg.model, seed=3)


def _corrupt(group, kind):
    """The group with its episode 2 made to fail the way ``kind`` says."""
    if kind == "unlabelled":
        mask = group.label_mask.copy()
        mask[2] = False
        return dataclasses.replace(group, label_mask=mask)
    features = group.features.copy()
    if kind == "degenerate":
        features[2] = 0.0
    else:   # "nan"
        features[2, 3] = np.nan
    return dataclasses.replace(group, features=features)


ERROR_OF = {"degenerate": DegenerateEpisodeError, "nan": NumericError,
            "unlabelled": DataError}


def _live_workers():
    return [proc for proc in _WORKERS.procs if proc.is_alive()]


class TestEvaluateWorkers:
    """evaluate(workers > 1) runs shares of the groups in worker
    processes; every result and error is that of workers=1."""

    @pytest.mark.parametrize("shape,episodes,groups", [
        ((2, 5, 3), 32, 4),    # M = 16, stacked groups of 8
        ((8, 5, 15), 3, 3),    # M = 160, one episode per group
    ])
    def test_worker_counts_give_identical_results(self, shape, episodes,
                                                  groups):
        n_way, k_shot, n_query = shape
        pool = synth_clusters(8, 20, 16, sep=6.0, seed=76)
        cfg = TrainConfig(model=ModelConfig(**C5_MODEL), n_way=n_way,
                          k_shot=k_shot, n_query=n_query, seed=5)
        params = init_params(cfg.model, seed=5)
        rng = make_rng(9, _STREAM_EVAL)
        eps = [sample_episode(pool, *shape, 1.0, rng) for _ in range(episodes)]
        assert len(episode_groups(eps)) == groups
        one = evaluate(pool, params, cfg, episodes, seed=9, workers=1)
        for workers in (2, 3):
            assert evaluate(pool, params, cfg, episodes, seed=9,
                            workers=workers) == one
            assert len(_live_workers()) >= workers - 1

    @pytest.mark.parametrize("failing", [
        {1: "degenerate"},                   # the worker's share
        {2: "nan"},                          # the caller's share
        {3: "unlabelled"},
        {1: "nan", 2: "degenerate"},         # lowest group wins: worker's
        {2: "unlabelled", 3: "degenerate"},  # lowest group wins: caller's
        {0: "degenerate", 1: "unlabelled", 3: "nan"},
    ], ids=lambda f: "-".join(f"{g}{k}" for g, k in f.items()))
    def test_failing_group_raises_as_the_serial_loop(self, monkeypatch,
                                                     failing):
        train_module = sys.modules["hospgnn.train"]
        pool, cfg, params = _m16_eval_setup()
        episodes = M16_FOUR_GROUPS
        clean = evaluate(pool, params, cfg, episodes, seed=6, workers=1)
        real_groups = train_module.episode_groups

        def groups_with_failures(eps):
            groups = real_groups(eps)
            assert len(groups) == 4
            return [_corrupt(g, failing[i]) if i in failing else g
                    for i, g in enumerate(groups)]

        errors = {}
        for workers in (1, 2, 3):
            with monkeypatch.context() as patch:
                patch.setattr(train_module, "episode_groups",
                              groups_with_failures)
                with pytest.raises(Exception) as info:
                    evaluate(pool, params, cfg, episodes, seed=6,
                             workers=workers)
            errors[workers] = (type(info.value), str(info.value))
            # every reply of the failed call was read: the next call gets
            # its own results from the same workers
            assert evaluate(pool, params, cfg, episodes, seed=6,
                            workers=workers) == clean
        assert errors[1][0] is ERROR_OF[failing[min(failing)]]
        assert errors[2] == errors[1] and errors[3] == errors[1]

    def test_interrupt_discards_the_workers(self, monkeypatch):
        train_module = sys.modules["hospgnn.train"]
        pool, cfg, params = _m16_eval_setup()
        episodes = M16_FOUR_GROUPS
        clean = evaluate(pool, params, cfg, episodes, seed=6, workers=2)
        assert len(_live_workers()) >= 1
        started = list(_WORKERS.procs)

        def interrupted(groups, params):
            raise KeyboardInterrupt

        # the caller is interrupted in its own share while the worker
        # still owes a reply to this call
        with monkeypatch.context() as patch:
            patch.setattr(train_module, "_share_accuracies", interrupted)
            with pytest.raises(KeyboardInterrupt):
                evaluate(pool, params, cfg, episodes, seed=6, workers=2)
        assert _WORKERS.procs == []
        assert not any(proc.is_alive() for proc in started)
        assert evaluate(pool, params, cfg, episodes, seed=6,
                        workers=2) == clean

    def test_concurrent_calls_keep_their_own_replies(self):
        pool, cfg, params = _m16_eval_setup()
        episodes = M16_FOUR_GROUPS
        seeds = range(20, 26)
        expected = {s: evaluate(pool, params, cfg, episodes, seed=s,
                                workers=1) for s in seeds}
        # the workers start here, before any other thread runs
        assert evaluate(pool, params, cfg, episodes, seed=20,
                        workers=2) == expected[20]
        got = {}

        def call(s):
            got[s] = evaluate(pool, params, cfg, episodes, seed=s, workers=2)

        threads = [threading.Thread(target=call, args=(s,)) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_a_lost_worker_is_replaced(self, monkeypatch):
        train_module = sys.modules["hospgnn.train"]
        pool, cfg, params = _m16_eval_setup()
        episodes = M16_FOUR_GROUPS
        clean = evaluate(pool, params, cfg, episodes, seed=6, workers=1)
        real = train_module._share_accuracies
        here = os.getpid()

        def dies_in_a_worker(groups, params):
            if os.getpid() != here:
                os._exit(1)
            return real(groups, params)

        # the worker forks with the patch: it exits mid-share
        _WORKERS.close()
        with monkeypatch.context() as patch:
            patch.setattr(train_module, "_share_accuracies", dies_in_a_worker)
            with pytest.raises(RuntimeError, match=r"^a worker process "
                               r"exited mid-share$"):
                evaluate(pool, params, cfg, episodes, seed=6, workers=2)
        assert _WORKERS.procs == []
        assert evaluate(pool, params, cfg, episodes, seed=6,
                        workers=2) == clean
        # an idle worker killed between calls is replaced by the next one
        (idle,) = _WORKERS.procs
        os.kill(idle.pid, signal.SIGKILL)
        idle.join(timeout=10)
        assert not idle.is_alive()
        assert evaluate(pool, params, cfg, episodes, seed=6,
                        workers=2) == clean
        (replaced,) = _WORKERS.procs
        assert replaced is not idle and replaced.is_alive()

    def test_workers_are_capped_at_the_group_count(self):
        pool, cfg, params = _m16_eval_setup()
        _WORKERS.close()
        # 8 episodes at M = 16 are one group: nothing to share
        one = evaluate(pool, params, cfg, 8, seed=6, workers=1)
        assert evaluate(pool, params, cfg, 8, seed=6, workers=3) == one
        assert _WORKERS.procs == []
        # 24 episodes are three groups; 2 then 3 workers
        for workers, live in ((2, 1), (3, 2)):
            assert evaluate(pool, params, cfg, 24, seed=6, workers=workers) \
                == evaluate(pool, params, cfg, 24, seed=6, workers=1)
            assert len(_live_workers()) == len(_WORKERS.procs) == live
        # 17 episodes are three groups too, so 4 workers use 2 of them
        assert evaluate(pool, params, cfg, 17, seed=6, workers=4) \
            == evaluate(pool, params, cfg, 17, seed=6, workers=1)
        assert len(_WORKERS.procs) == 2


def _train_setup(shape, batch, **kw):
    """Criterion 5's model on a batch of ``batch`` episodes of ``shape``,
    for a few iterations."""
    n_way, k_shot, n_query = shape
    pool = synth_clusters(8, 20, 16, sep=6.0, seed=76)
    base = dict(n_way=n_way, k_shot=k_shot, n_query=n_query,
                label_fraction=0.4, batch_episodes=batch, total_iterations=4,
                eval_every=2, eval_episodes=4, seed=5)
    base.update(kw)
    return pool, TrainConfig(model=ModelConfig(**C5_MODEL), **base)


def _trained(pool, cfg, workers):
    """What ``train`` returns, with the best checkpoint's arrays as bytes
    so that equal results are bitwise equal."""
    best, rows = train(pool, pool, cfg, workers=workers)
    arrays = {name: (a.dtype, a.shape, a.tobytes())
              for name, a in best.arrays.items()}
    return rows, best.iteration, arrays


class TestTrainWorkers:
    """train(workers > 1) runs shares of each step's groups in worker
    processes; every result and error is that of workers=1."""

    @pytest.mark.parametrize("shape,batch,groups", [
        ((2, 5, 3), 20, 3),    # M = 16, stacked groups of 8, 8 and 4
        ((5, 1, 15), 3, 3),    # M = 80, one episode per group
    ], ids=["m16", "m80"])
    def test_worker_counts_give_identical_results(self, shape, batch,
                                                  groups):
        pool, cfg = _train_setup(shape, batch)
        rng = make_rng(5, 0)
        eps = [sample_episode(pool, *shape, 0.4, rng) for _ in range(batch)]
        assert len(episode_groups(eps)) == groups
        one = _trained(pool, cfg, workers=1)
        for workers in (2, 3, None):
            assert _trained(pool, cfg, workers) == one, workers
            if workers is not None:
                assert len(_live_workers()) >= workers - 1

    @pytest.mark.parametrize("failing", [
        {1: "degenerate"},                   # the worker's share
        {1: "nan"},
        {2: "degenerate"},                   # the caller's share at w = 2
        {2: "nan"},
        {1: "nan", 2: "degenerate"},         # lowest group wins: worker's
        {2: "degenerate", 3: "nan"},         # lowest group wins: caller's
    ], ids=lambda f: "-".join(f"{g}{k}" for g, k in f.items()))
    def test_failing_group_raises_as_the_serial_loop(self, monkeypatch,
                                                     failing):
        train_module = sys.modules["hospgnn.train"]
        pool, cfg = _train_setup((2, 5, 3), M16_FOUR_GROUPS,
                                 total_iterations=1)
        clean = _trained(pool, cfg, workers=1)
        real_groups = train_module.episode_groups

        def groups_with_failures(eps):
            groups = real_groups(eps)
            assert len(groups) == 4
            return [_corrupt(g, failing[i]) if i in failing else g
                    for i, g in enumerate(groups)]

        errors = {}
        for workers in (1, 2, 3):
            with monkeypatch.context() as patch:
                patch.setattr(train_module, "episode_groups",
                              groups_with_failures)
                with pytest.raises(Exception) as info:
                    train(pool, pool, cfg, workers=workers)
            errors[workers] = (type(info.value), str(info.value))
            # every reply of the failed step was read: the next run gets
            # its own results from the same workers
            assert _trained(pool, cfg, workers) == clean
        assert errors[1][0] is ERROR_OF[failing[min(failing)]]
        assert errors[2] == errors[1] and errors[3] == errors[1]

    @pytest.mark.parametrize("batch,poisoned", [
        (12, 1),    # groups of 8 and 4: the worker's share
        (20, 2),    # groups of 8, 8 and 4: the caller's share at w = 2
    ])
    def test_non_finite_gradient_is_named_as_the_serial_loop(
            self, monkeypatch, batch, poisoned):
        # the group of 4 episodes gets a zero-valued term whose backward
        # yields NaN; the workers fork with the poisoned loss
        pool, cfg = _train_setup((2, 5, 3), batch)
        original = losses.episodic_ce

        def poisoned_ce(graph, group):
            ce = original(graph, group)
            if group.features.shape[0] != 4:
                return ce
            zero = T._emit(np.zeros(ce.shape, dtype=ce.dtype), (ce,),
                           lambda g: (np.full_like(g, np.nan),))
            return T.add(ce, zero)

        rng = make_rng(5, 0)
        eps = [sample_episode(pool, 2, 5, 3, 0.4, rng) for _ in range(batch)]
        sizes = [g.features.shape[0] for g in episode_groups(eps)]
        assert sizes.index(4) == poisoned
        errors = set()
        monkeypatch.setattr(losses, "episodic_ce", poisoned_ce)
        try:
            for workers in (1, 2, 3):
                _WORKERS.close()
                with pytest.raises(NumericError) as info:
                    train(pool, pool, cfg, workers=workers)
                errors.add(str(info.value))
        finally:
            _WORKERS.close()
        assert len(errors) == 1
        assert re.fullmatch(r"non-finite gradient of \S+ at iteration 1",
                            errors.pop())

    def test_interrupt_discards_the_workers(self, monkeypatch):
        train_module = sys.modules["hospgnn.train"]
        pool, cfg = _train_setup((5, 1, 15), 3)
        clean = _trained(pool, cfg, workers=1)
        assert _trained(pool, cfg, workers=2) == clean
        assert len(_live_workers()) >= 1
        started = list(_WORKERS.procs)

        def interrupted(groups, params, structure_weight, scale):
            raise KeyboardInterrupt

        # the caller is interrupted in its own share of the first step
        # while the worker still owes a reply to it
        with monkeypatch.context() as patch:
            patch.setattr(train_module, "_share_gradients", interrupted)
            with pytest.raises(KeyboardInterrupt):
                train(pool, pool, cfg, workers=2)
        assert _WORKERS.procs == []
        assert not any(proc.is_alive() for proc in started)
        assert _trained(pool, cfg, workers=2) == clean


def test_workers_default_to_the_usable_cores():
    train_module = sys.modules["hospgnn.train"]
    assert train_module._resolve_workers(None) == len(os.sched_getaffinity(0))
    assert train_module._resolve_workers(3) == 3


@pytest.mark.parametrize("kw", [
    {"workers": 2.0}, {"workers": 2.5}, {"workers": "2"}, {"workers": True},
    {"episodes": 2.5}, {"episodes": float(M16_FOUR_GROUPS)},
    {"episodes": str(M16_FOUR_GROUPS)}, {"episodes": True},
], ids=repr)
def test_non_integer_counts_are_refused_before_any_work(kw):
    pool, cfg, params = _m16_eval_setup()
    _WORKERS.close()
    (name, value), = kw.items()
    refusal = re.escape(f"{name} must be an integer, got {value!r}")
    call = {"episodes": M16_FOUR_GROUPS, "workers": 2, **kw}
    with pytest.raises(ConfigError, match=refusal):
        evaluate(pool, params, cfg, call["episodes"], seed=6,
                 workers=call["workers"])
    if name == "workers":
        train_pool, train_cfg = _train_setup((2, 5, 3), 20)
        with pytest.raises(ConfigError, match=refusal):
            train(train_pool, train_pool, train_cfg, workers=value)
    assert _WORKERS.procs == []
    # numpy integers are counts
    assert evaluate(pool, params, cfg, np.int64(M16_FOUR_GROUPS), seed=6,
                    workers=np.int64(2)) \
        == evaluate(pool, params, cfg, M16_FOUR_GROUPS, seed=6, workers=1)


def test_one_worker_runs_every_group_in_the_caller(monkeypatch):
    # workers=1 takes the one path too: the share functions run here,
    # each once, on every group
    train_module = sys.modules["hospgnn.train"]
    calls = []
    for name in ("_share_accuracies", "_share_gradients"):
        def spy(groups, params, *args, real=getattr(train_module, name),
                name=name):
            calls.append((name, os.getpid(), len(groups)))
            return real(groups, params, *args)

        monkeypatch.setattr(train_module, name, spy)
    pool, cfg = _train_setup((2, 5, 3), 20, total_iterations=1,
                             eval_episodes=M16_FOUR_GROUPS)
    best, _ = train(pool, pool, cfg, workers=1)
    evaluate(pool, best.restore(), cfg, 8, workers=1)
    here = os.getpid()
    assert calls == [("_share_gradients", here, 3),
                     ("_share_accuracies", here, 4),
                     ("_share_accuracies", here, 1)]


def test_one_share_takes_no_lock_and_touches_no_worker():
    # a threaded caller passes workers=1: it must not queue behind
    # another thread's exchange with the workers
    pool, cfg, params = _m16_eval_setup()
    want = {episodes: evaluate(pool, params, cfg, episodes, seed=6,
                               workers=1)
            for episodes in (8, M16_FOUR_GROUPS)}
    evaluate(pool, params, cfg, M16_FOUR_GROUPS, seed=6, workers=2)
    procs = list(_WORKERS.procs)
    assert procs
    got = {}

    def one_share_calls():
        # 8 episodes are one group, so 3 workers make one share as well
        got[8] = evaluate(pool, params, cfg, 8, seed=6, workers=3)
        got[M16_FOUR_GROUPS] = evaluate(pool, params, cfg, M16_FOUR_GROUPS,
                                        seed=6, workers=1)

    caller = threading.Thread(target=one_share_calls)
    with _WORKERS.lock:
        caller.start()
        caller.join(timeout=60)
        finished = not caller.is_alive()
    caller.join()
    assert finished
    assert got == want
    assert _WORKERS.procs == procs


# evaluate() on M = 160 episodes in a fresh interpreter, one call per
# worker count in argv, each call with as many episodes as workers. It
# prints its worker PIDs, then, after the workers are closed at exit,
# their exit codes
WORKERS_CHILD = """
import atexit, sys
procs = []
atexit.register(lambda: print(*[proc.exitcode for proc in procs]))
from hospgnn import ModelConfig, TrainConfig, evaluate, init_params
from hospgnn.data import synth_clusters
from hospgnn.train import _WORKERS
pool = synth_clusters(8, 20, 16, sep=6.0, seed=76)
cfg = TrainConfig(model=ModelConfig(**{model!r}), n_way=8, k_shot=5,
                  n_query=15, seed=5)
params = init_params(cfg.model, seed=5)
for workers in map(int, sys.argv[1:]):
    assert evaluate(pool, params, cfg, workers, workers=workers) \\
        == evaluate(pool, params, cfg, workers, workers=1)
procs += _WORKERS.procs
print(*[proc.pid for proc in procs])
"""

# the same for a train() call with the default worker count on M = 80
# episodes, two groups per step and per validation
TRAIN_WORKERS_CHILD = """
import atexit
procs = []
atexit.register(lambda: print(*[proc.exitcode for proc in procs]))
from hospgnn import ModelConfig, TrainConfig, train
from hospgnn.data import synth_clusters
from hospgnn.train import _WORKERS
pool = synth_clusters(8, 20, 16, sep=6.0, seed=76)
cfg = TrainConfig(model=ModelConfig(**{model!r}), n_way=5, k_shot=1,
                  n_query=15, batch_episodes=2, total_iterations=2,
                  eval_every=2, eval_episodes=2, seed=5)
train(pool, pool, cfg)
procs += _WORKERS.procs
print(*[proc.pid for proc in procs])
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _child_worker_pids(code, *argv):
    """Run ``code`` in a fresh interpreter; check that it exits cleanly
    and that each worker it prints left on end of file and is gone;
    return their PIDs."""
    src = str(Path(__import__("hospgnn").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", code.format(model=C5_MODEL), *argv],
        capture_output=True, env=env, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    pids, codes = done.stdout.splitlines()
    pids = [int(pid) for pid in pids.split()]
    # each worker left on end of file, none was terminated or killed: no
    # worker forked later kept a copy of an earlier one's pipe end
    assert codes.split() == ["0"] * len(pids)
    assert not any(_alive(pid) for pid in pids)
    return pids


@pytest.mark.parametrize("counts", [["2"], ["2", "3"]], ids="-".join)
def test_workers_leave_with_the_interpreter(counts):
    pids = _child_worker_pids(WORKERS_CHILD, *counts)
    assert len(pids) == int(counts[-1]) - 1


def test_default_train_workers_leave_with_the_interpreter():
    pids = _child_worker_pids(TRAIN_WORKERS_CHILD)
    assert len(pids) == min(len(os.sched_getaffinity(0)), 2) - 1


# the child's own peak RSS in kB. Not ru_maxrss: Linux carries the
# spawning process's peak into it across exec, so every child would read
# at least the test process's own peak
PRINT_PEAK_KB = """
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")))
"""

MEMORY_CHILD = """
import sys
from hospgnn import ModelConfig, TrainConfig, synth_benchmark, train
iterations, batch = int(sys.argv[1]), int(sys.argv[2])
ds_train, ds_val, _ = synth_benchmark(20, 8, 8, per_class=30, dim=16,
                                      sep=6.0, seed=1)
cfg = TrainConfig(model=ModelConfig(**{model!r}), n_way=5, k_shot=1,
                  n_query=15, batch_episodes=batch,
                  total_iterations=iterations, eval_every=iterations,
                  eval_episodes=1, seed=3)
train(ds_train, ds_val, cfg)
""" + PRINT_PEAK_KB


# one taped step (forward, losses, backward) of a 20-way 1-shot 15-query
# episode, M = 320
TAPED_STEP_CHILD = """
from hospgnn import ModelConfig, losses, synth_benchmark, tensor as T
from hospgnn.data import make_rng, sample_episode
from hospgnn.model import forward, init_params
ds_train, _, _ = synth_benchmark(20, 8, 8, per_class=30, dim=16, sep=6.0,
                                 seed=1)
params = init_params(ModelConfig(**{model!r}), seed=3)
episode = sample_episode(ds_train, 20, 1, 15, rng=make_rng(3, 0))
with T.Tape() as tape:
    graph = forward(episode, params)
    total = losses.total_loss(losses.episodic_ce(graph, episode),
                              losses.manifold_loss(graph), 1e-5)
    tape.backward(T.tensor_sum(total))
""" + PRINT_PEAK_KB

# peak RSS bound of that step: it read 303 MB while the metric nets kept
# their (M^2, h) hidden activations for backward, 135 MB once backward
# rebuilt them block by block, and 107 MB since backward also releases
# each node output's gradient once its adjoint has run (2 cores, BLAS on
# one thread)
TAPED_M320_PEAK_MB = 120.0


def test_peak_memory_is_one_groups_activations():
    # M = 80 training in fresh processes: peak RSS must not grow with the
    # iteration count or the batch size (one episode per group at M = 80)
    src = str(Path(__import__("hospgnn").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = MEMORY_CHILD.format(model=C5_MODEL)
    runs = [subprocess.Popen([sys.executable, "-c", code, str(it), str(b)],
                             stdout=subprocess.PIPE, env=env, text=True)
            for it, b in ((5, 2), (50, 2), (10, 8))]
    runs.append(subprocess.Popen(
        [sys.executable, "-c", TAPED_STEP_CHILD.format(model=C5_MODEL)],
        stdout=subprocess.PIPE, env=env, text=True))
    peaks_mb = []
    for proc in runs:
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        peaks_mb.append(int(out.split()[-1]) / 1024.0)
    peaks_mb, m320_mb = peaks_mb[:-1], peaks_mb[-1]
    assert max(peaks_mb) - min(peaks_mb) <= 15.0, peaks_mb
    # a taped M = 320 step holds no (M^2, h) activations of the metric nets
    # and no gradient of a node output whose adjoint has run
    assert m320_mb <= TAPED_M320_PEAK_MB, m320_mb


class TestCheckpoint:
    def test_round_trip_preserves_forward_bitwise(self, tmp_path,
                                                  train_pool, val_pool):
        cfg = small_cfg(total_iterations=2, eval_every=1)
        best, _ = train(train_pool, val_pool, cfg)
        path = tmp_path / "ck.npz"
        save_checkpoint(best, path)
        loaded = load_checkpoint(path)
        assert loaded.iteration == best.iteration
        assert loaded.val_accuracy == best.val_accuracy
        assert loaded.config == cfg
        probe = sample_episode(train_pool, 2, 1, 2, rng=make_rng(99, 0))
        before = predict_labels(forward(probe, best.restore()), probe).data
        after = predict_labels(forward(probe, loaded.restore()), probe).data
        assert np.array_equal(before, after)

    def test_arrays_with_old_vertex_biases_restore(self, tmp_path,
                                                   train_pool):
        # checkpoints written while standardised vertex nets still had a
        # bias carry layer{l}.vertex.b; standardisation cancels it, so
        # the restored model predicts what the biased model did
        cfg = small_cfg(model_kw=dict(standardize_vertex=True))
        rng = make_rng(5, 0)
        arrays = init_params(cfg.model, seed=0).copy_arrays()
        for name in arrays:
            arrays[name] = arrays[name] + 0.1 * rng.standard_normal(
                arrays[name].shape)
        for l in range(cfg.model.layers):
            arrays[f"layer{l}.vertex.b"] = rng.standard_normal(
                cfg.model.hidden_dim)
        path = tmp_path / "ck.npz"
        save_checkpoint(Checkpoint(arrays=arrays, iteration=1,
                                   val_accuracy=0.5, config=cfg), path)
        params = load_checkpoint(path).restore()
        assert not any(n.endswith("vertex.b") for n in params.names())
        probe = sample_episode(train_pool, 2, 1, 2, rng=make_rng(99, 0))
        got = predict_labels(forward(probe, params), probe).data
        ref = NaiveModel(probe, arrays, cfg.model.to_dict())
        es = ref.forward()[2]
        want = ref.predict(es, cfg.model.layers,
                           cfg.model.resolved_readout())
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_tampered_config_rejected(self, tmp_path):
        cfg = small_cfg()
        ck = Checkpoint(
            arrays=init_params(cfg.model, seed=0).copy_arrays(),
            iteration=1, val_accuracy=0.5, config=cfg,
        )
        path = tmp_path / "ck.npz"
        save_checkpoint(ck, path)
        raw = np.load(path)
        meta = bytes(raw["__meta__"]).decode().replace(
            '"layers": 2', '"layers": 3')
        payload = {k: raw[k] for k in raw.files}
        payload["__meta__"] = np.frombuffer(meta.encode(), dtype=np.uint8)
        np.savez(path, **payload)
        with pytest.raises(DataError, match="hash"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        cfg = small_cfg()
        ck = Checkpoint(
            arrays=init_params(cfg.model, seed=0).copy_arrays(),
            iteration=1, val_accuracy=0.5, config=cfg,
        )
        path = tmp_path / "ck.npz"
        save_checkpoint(ck, path)
        raw = np.load(path)
        meta = bytes(raw["__meta__"]).decode().replace(
            '"version": 2', '"version": 3')
        payload = {k: raw[k] for k in raw.files}
        payload["__meta__"] = np.frombuffer(meta.encode(), dtype=np.uint8)
        np.savez(path, **payload)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        # version-1 files carry model fields that version 2 dropped;
        # they fail on the version, not on the config
        cfg = small_cfg()
        ck = Checkpoint(
            arrays=init_params(cfg.model, seed=0).copy_arrays(),
            iteration=1, val_accuracy=0.5, config=cfg,
        )
        path = tmp_path / "ck.npz"
        save_checkpoint(ck, path)
        with np.load(path) as raw:
            payload = {k: raw[k] for k in raw.files}
        meta = json.loads(bytes(payload["__meta__"]).decode())
        meta["version"] = 1
        meta["config"]["model"]["dropped_field"] = 0.5
        payload["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                            dtype=np.uint8)
        np.savez(path, **payload)
        with pytest.raises(DataError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)


    def test_rejected_archive_leaves_no_file_open(self, tmp_path):
        cfg = small_cfg()
        ck = Checkpoint(
            arrays=init_params(cfg.model, seed=0).copy_arrays(),
            iteration=1, val_accuracy=0.5, config=cfg,
        )
        path = tmp_path / "ck.npz"
        save_checkpoint(ck, path)
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="not a readable checkpoint"):
                load_checkpoint(path)
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []


class TestAblation:
    def test_rows_follow_requested_values(self, train_pool, val_pool):
        test_pool = synth_clusters(4, 12, 8, sep=6.0, seed=73, split="test")
        cfg = small_cfg(total_iterations=2, eval_every=2)
        rows = run_ablation(train_pool, val_pool, test_pool, cfg,
                            "layers", [1, 2])
        assert [r.value for r in rows] == ["1", "2"]
        assert all(r.axis == "layers" for r in rows)
        assert all(0.0 <= r.accuracy <= 1.0 for r in rows)

    @pytest.mark.parametrize("axis, values", [
        ("layers", [2, "abc"]),
        ("layers", [2, 0]),
        ("variant", ["s", "q"]),
        ("structure_weight", [1e-5, None]),
        ("label_fraction", [0.5, 1.5]),
    ])
    def test_every_value_checked_before_any_run(self, monkeypatch, train_pool,
                                                val_pool, axis, values):
        runs = []
        monkeypatch.setattr(sys.modules["hospgnn.train"], "train",
                            lambda *args, **kw: runs.append(args))
        with pytest.raises(ConfigError):
            run_ablation(train_pool, val_pool, train_pool, small_cfg(),
                         axis, values)
        assert runs == []

    def test_unknown_axis_rejected(self, train_pool, val_pool):
        cfg = small_cfg()
        with pytest.raises(ConfigError):
            run_ablation(train_pool, val_pool, train_pool, cfg,
                         "warmup", [1])
