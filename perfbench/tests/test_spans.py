import importlib

import pytest

import hospgnn
from hospgnn import tensor as T
import spans
from spans import Span, Tracer, self_times
import workloads as W


def span(id, parent, start, end, name="x", overhead=0.0):
    return Span(id=id, name=name, start=start, end=end, parent=parent,
                thread=1, episode=-1, outer_s=end - start + overhead)


def test_self_time_subtracts_direct_children_only():
    tree = [
        span(0, -1, 0.0, 10.0),   # root: children 1 and 4
        span(1, 0, 1.0, 5.0),     # child with a grandchild
        span(2, 1, 2.0, 3.5),
        span(3, 1, 3.5, 4.0),
        span(4, 0, 6.0, 9.0),
        span(5, -1, 20.0, 21.0),  # second root, no children
    ]
    assert self_times(tree) == pytest.approx({
        0: 10.0 - 4.0 - 3.0,
        1: 4.0 - 1.5 - 0.5,
        2: 1.5,
        3: 0.5,
        4: 3.0,
        5: 1.0,
    })


def test_a_childs_tracer_overhead_is_in_neither_self_time():
    tree = [span(0, -1, 0.0, 10.0), span(1, 0, 2.0, 5.0, overhead=0.5)]
    assert self_times(tree) == pytest.approx({0: 10.0 - 3.5, 1: 3.0})


def test_vjp_timer_cost_is_small_and_positive():
    cost = spans.vjp_timer_cost(calls=2000, repeats=3)
    assert 0.0 <= cost < 1e-4


def test_self_times_sum_to_root_durations():
    tree = [span(0, -1, 0.0, 8.0), span(1, 0, 1.0, 2.0),
            span(2, 0, 2.0, 7.0), span(3, 2, 3.0, 4.0)]
    assert sum(self_times(tree).values()) == pytest.approx(8.0)


def _bound_names():
    """Every (owner, attribute) the tracer rebinds, with its current value."""
    out = {}
    for module in spans.NAMESPACES:
        ns = importlib.import_module(module)
        for _, attr in spans.FUNCTIONS:
            if hasattr(ns, attr):
                out[(module, attr)] = getattr(ns, attr)
    for cls, attr in ((T.Tape, "backward"), (T.Tape, "__enter__"),
                      (hospgnn.Adam, "step")):
        out[(cls.__name__, attr)] = cls.__dict__[attr]
    return out


def _tiny_cycle(tmp_path, name="train-m16-semi"):
    spec = W.tiny(W.WORKLOADS[name])
    W.write_splits(3, tmp_path)
    cfg = W.train_config(spec, 3)
    return W.run_cycle(spec, cfg, W.load_splits(tmp_path), None, tmp_path)


def test_rebinding_is_undone_after_a_traced_cycle(tmp_path):
    before = _bound_names()
    tracer = Tracer()
    with tracer:
        during = _bound_names()
        _tiny_cycle(tmp_path)
    after = _bound_names()
    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
    assert tracer.rebinding_undone()


def test_tracing_does_not_change_results(tmp_path):
    plain = _tiny_cycle(tmp_path)
    with Tracer():
        traced = _tiny_cycle(tmp_path)
    assert traced.outcome == plain.outcome


def test_every_tape_node_is_timed_once(tmp_path):
    spec = W.tiny(W.WORKLOADS["train-m80"])
    W.write_splits(5, tmp_path)
    cfg = W.train_config(spec, 5)
    ds_train, _, _ = W.load_splits(tmp_path)
    params = hospgnn.init_params(cfg.model, seed=5)
    ep = hospgnn.sample_episode(ds_train, cfg.n_way, cfg.k_shot, cfg.n_query,
                                1.0, hospgnn.make_rng(5, 1))
    tracer = Tracer()
    with tracer:
        with T.Tape() as tape:
            graph = hospgnn.forward(ep, params)
            loss = hospgnn.episodic_ce(graph, ep)
            tape.backward(loss)
    owners = [vjp.owner for _, _, vjp in tape._nodes]
    assert all(isinstance(vjp, spans._TimedVJP) for _, _, vjp in tape._nodes)
    assert set(owners) <= set(tracer.bwd_s)
    (bwd,) = [s for s in tracer.spans if s.name == spans.BACKWARD]
    assert bwd.nodes == len(tape)
    assert 0 < tracer.vjp_calls <= len(tape)
    assert 0.0 < sum(tracer.bwd_s.values()) <= bwd.end - bwd.start
    assert bwd.end - bwd.start <= bwd.outer_s
    # metric-net nodes belong to the metric-net spans, not their callers
    assert any(o.startswith("model.metric_scores.l0.") for o in owners)
    assert tracer.live_tapes_max == 0   # sampled only after steps and evals
