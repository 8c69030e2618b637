"""Span tracing for the benchmark, attached to hospgnn from outside.

A :class:`Tracer` rebinds module-level functions and two methods of the
installed ``hospgnn`` package to timing wrappers, and records one span
per call: name, start, end, parent span, thread and episode. Spans stay
in memory until the run ends. Nothing under ``src/`` knows about the
tracer, and uninstalling it puts every original object back.

Backward time is attributed without touching the program either. When a
span ends, the wrapper looks at the tape nodes recorded since it began,
and replaces each node's vector-Jacobian product with a timed one owned
by that span, unless a child span already claimed it. So each node's
backward time belongs to the innermost span that recorded it.

The tracer's own work is kept out of the layer times. A span's self time
subtracts each child's whole wrapped call, bookkeeping included, not
just the child's timed work. The accumulation time of ``Tape.backward``
subtracts the extra cost of calling each VJP through its timer, measured
once per tracer on an empty VJP.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import weakref
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

MB = float(1 << 20)

# namespaces whose attributes are rebound; a function imported into
# several of them is rebound everywhere it is looked up
NAMESPACES = ("hospgnn", "hospgnn.data", "hospgnn.graph", "hospgnn.model",
              "hospgnn.losses", "hospgnn.train")


def _fixed(name):
    return lambda args, kwargs: name


def _layer_named(base):
    def namer(args, kwargs):
        layer = kwargs["layer"] if "layer" in kwargs else args[4]
        return f"{base}.l{layer}"
    return namer


def _metric_named(args, kwargs):
    # prefix is "layer{k}.relnet" or "layer{k}.pairnet"
    prefix = kwargs["prefix"] if "prefix" in kwargs else args[1]
    layer, net = prefix.split(".")
    return f"model.metric_scores.l{layer[len('layer'):]}.{net}"


# (module, function) -> span-name function of the call's arguments
FUNCTIONS = {
    ("hospgnn.data", "load_dataset"): _fixed("data.load_dataset"),
    ("hospgnn.data", "sample_episode"): _fixed("data.sample_episode"),
    ("hospgnn.graph", "pairwise_distances"): _fixed("graph.pairwise_distances"),
    ("hospgnn.graph", "relative_features"): _fixed("graph.relative_features"),
    ("hospgnn.graph", "init_edges"): _fixed("graph.init_edges"),
    ("hospgnn.model", "forward"): _fixed("model.forward"),
    ("hospgnn.model", "embed"): _fixed("model.embed"),
    ("hospgnn.model", "vertex_update"): _layer_named("model.vertex_update"),
    ("hospgnn.model", "edge_update"): _layer_named("model.edge_update"),
    ("hospgnn.model", "metric_scores"): _metric_named,
    ("hospgnn.losses", "episodic_ce"): _fixed("losses.episodic_ce"),
    ("hospgnn.losses", "manifold_loss"): _fixed("losses.manifold_loss"),
    ("hospgnn.train", "evaluate"): _fixed("train.evaluate"),
}

FORWARD = "model.forward"
BACKWARD = "tensor.backward"
ADAM_STEP = "train.adam_step"
EVALUATE = "train.evaluate"
# owner of tape nodes recorded outside every traced span
UNOWNED = "tensor.unowned"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int     # -1 at the top of its thread
    thread: int
    episode: int    # forward pass the span belongs to, -1 if none
    outer_s: float  # wall time of the whole wrapped call, tracer included
    nodes: int = 0  # tape nodes recorded during the span, children included
    nbytes: int = 0  # bytes of those nodes' outputs

    COLUMNS = ("id", "name", "start", "end", "parent", "thread", "episode",
               "outer_s", "nodes", "nbytes")

    def as_row(self):
        return [getattr(self, c) for c in self.COLUMNS]


def self_times(spans):
    """Map span id to its duration minus the time its child spans cover.

    Children of one span run in the parent's thread, one after another,
    so the time they cover is the sum of their wrapped calls.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.outer_s
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


class _TimedVJP:
    """A tape node's VJP that adds its run time to its owning span name."""

    __slots__ = ("vjp", "owner", "tracer")

    def __init__(self, vjp, owner, tracer):
        self.vjp = vjp
        self.owner = owner
        self.tracer = tracer

    def __call__(self, g):
        t0 = perf_counter()
        try:
            return self.vjp(g)
        finally:
            self.tracer._add_vjp(self.owner, perf_counter() - t0)


def _no_vjp(g):
    return g


def vjp_timer_cost(calls=20000, repeats=5):
    """Seconds a call through _TimedVJP adds to a direct VJP call.

    The median over repeats of (timed loop - direct loop) / calls, on an
    empty VJP; the timer's own bookkeeping falls outside the VJP time it
    records, so Tape.backward pays it outside the VJPs.
    """
    timed = _TimedVJP(_no_vjp, "calibration", Tracer())
    extra = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            _no_vjp(None)
        t1 = perf_counter()
        for _ in range(calls):
            timed(None)
        t2 = perf_counter()
        extra.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(extra), 0.0)


class Tracer:
    """Records spans of hospgnn calls while installed.

    Use as a context manager; it may be entered again after exiting, and
    the spans of every installation accumulate in :attr:`spans`.
    """

    def __init__(self):
        self.spans = []
        self.bwd_s = defaultdict(float)   # owner span name -> VJP seconds
        self.vjp_calls = 0
        self.live_tapes_max = 0
        self._ids = itertools.count()
        self._episodes = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._live = weakref.WeakSet()
        self._saved = []   # (owner, attribute, original) to restore
        self._restored = []
        self._tensor = importlib.import_module("hospgnn.tensor")
        self.vjp_timer_s = None   # measured on first install

    # installing ---------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        if self.vjp_timer_s is None:
            self.vjp_timer_s = vjp_timer_cost()
        namespaces = [importlib.import_module(n) for n in NAMESPACES]
        for (module, attr), namer in FUNCTIONS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(original, namer)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._rebind(ns, attr, wrapper)
        tensor = self._tensor
        train = importlib.import_module("hospgnn.train")
        self._rebind(tensor.Tape, "backward",
                     self._wrap_backward(tensor.Tape.backward))
        self._rebind(tensor.Tape, "__enter__",
                     self._wrap_enter(tensor.Tape.__enter__))
        self._rebind(train.Adam, "step",
                     self._wrap(train.Adam.step, _fixed(ADAM_STEP)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            self._restored.append((owner, attr, original))

    def rebinding_undone(self):
        """True when every name the tracer rebound holds its original."""
        return not self._saved and all(
            getattr(owner, attr) is original
            for owner, attr, original in self._restored)

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # wrappers -----------------------------------------------------------

    def _wrap(self, original, namer):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._call(namer(args, kwargs), original, args, kwargs)

        return wrapper

    def _wrap_enter(self, original):
        tracer = self

        @functools.wraps(original)
        def enter(tape):
            tracer._live.add(tape)
            return original(tape)

        return enter

    def _wrap_backward(self, original):
        tracer = self

        @functools.wraps(original)
        def backward(tape, loss):
            # time every VJP, including nodes no traced span recorded
            tracer._claim(tape._nodes, 0, UNOWNED)
            return tracer._call(BACKWARD, original, (tape, loss), {},
                                tape=tape, start_index=0)

        return backward

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.episode = -1
            local.last_episode = -1
        return local

    def _call(self, name, fn, args, kwargs, tape=None, start_index=None):
        """Run fn inside a span and return its result."""
        entered = perf_counter()
        local = self._state()
        if tape is None:
            tape = self._tensor.active_tape()
        if start_index is None:
            start_index = len(tape) if tape is not None else 0
        span = Span(id=next(self._ids), name=name, start=0.0, end=0.0,
                    parent=local.stack[-1] if local.stack else -1,
                    thread=threading.get_ident(), episode=local.episode,
                    outer_s=0.0)
        if name == FORWARD:
            span.episode = local.episode = local.last_episode = next(
                self._episodes)
        elif name == BACKWARD:
            span.episode = local.last_episode
        local.stack.append(span.id)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            local.stack.pop()
            if name == FORWARD:
                local.episode = -1
            if tape is not None:
                span.nodes, span.nbytes = self._claim(
                    tape._nodes, start_index, name)
            if name in (ADAM_STEP, EVALUATE) and not local.stack:
                self.live_tapes_max = max(self.live_tapes_max,
                                          len(self._live))
            self.spans.append(span)
            span.outer_s = perf_counter() - entered
        return result

    def _claim(self, nodes, start, owner):
        """Give unclaimed nodes from start on to owner; return the count
        and output bytes of every node from start on."""
        nbytes = 0
        for i in range(start, len(nodes)):
            out, inputs, vjp = nodes[i]
            nbytes += out.data.nbytes
            if not isinstance(vjp, _TimedVJP):
                nodes[i] = (out, inputs, _TimedVJP(vjp, owner, self))
        return len(nodes) - start, nbytes

    def _add_vjp(self, owner, seconds):
        with self._lock:
            self.bwd_s[owner] += seconds
            self.vjp_calls += 1

    # results ------------------------------------------------------------

    def layer_metrics(self, metric_names):
        """Per-layer values, keyed by the given names, in their units.

        Forward self times are per forward pass, backward times and tape
        sizes per backward pass, the other times per call.
        """
        selfs = self_times(self.spans)
        fwd_s = defaultdict(float)
        calls = defaultdict(int)
        nodes = defaultdict(int)
        nbytes = defaultdict(int)
        wall = defaultdict(float)
        for s in self.spans:
            fwd_s[s.name] += selfs[s.id]
            calls[s.name] += 1
            nodes[s.name] += s.nodes
            nbytes[s.name] += s.nbytes
            wall[s.name] += s.end - s.start
        n_fwd = calls[FORWARD]
        n_bwd = calls[BACKWARD]

        def per(total, count):
            return total / count if count else 0.0

        metric_nodes = sum(v for k, v in nodes.items()
                           if k.startswith("model.metric_scores."))
        metric_bytes = sum(v for k, v in nbytes.items()
                           if k.startswith("model.metric_scores."))
        out = {}
        for name in metric_names:
            span, _, field = name.rpartition(".")
            if field == "fwd_ms":
                value = per(fwd_s[span], n_fwd) * 1e3
            elif field == "bwd_ms":
                value = per(self.bwd_s[span], n_bwd) * 1e3
            elif name in ("model.embed.ms", "graph.init_edges.ms"):
                value = per(fwd_s[span], n_fwd) * 1e3
            elif name == "model.metric_scores.nodes":
                value = per(metric_nodes, n_bwd)
            elif name == "model.metric_scores.act_mb":
                value = per(metric_bytes, n_bwd) / MB
            elif name == "tensor.tape_nodes":
                value = per(nodes[BACKWARD], n_bwd)
            elif name == "tensor.tape_mb":
                value = per(nbytes[BACKWARD], n_bwd) / MB
            elif name == "tensor.backward.ms":
                value = per(wall[BACKWARD], n_bwd) * 1e3
            elif name == "tensor.backward.accum_ms":
                vjp = (sum(self.bwd_s.values())
                       + self.vjp_calls * self.vjp_timer_s)
                value = per(wall[BACKWARD] - vjp, n_bwd) * 1e3
            elif name == "tensor.live_tapes_max":
                value = float(self.live_tapes_max)
            elif name == "train.evaluate.ms":
                # inclusive: with worker threads its children are not
                # its children in the span tree
                value = per(wall[EVALUATE], calls[EVALUATE]) * 1e3
            elif field == "ms":
                value = per(fwd_s[span], calls[span]) * 1e3
            else:
                continue   # not a span metric
            out[name] = value
        return out
