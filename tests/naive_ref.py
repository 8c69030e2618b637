"""Loop-level reference for the whole forward pass and both losses.

Everything here is written with plain Python floats, explicit index
loops, and no shared code with the package beyond reading parameter
arrays. It exists so the vectorized implementation has something honest
to disagree with.
"""

import math

EPS = 1e-12
SCORE_EPS = 1e-7


def lrelu(x, slope):
    return x if x >= 0 else slope * x


def sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def linear(rows, w, b=None):
    # b=None: a net without a bias
    out = []
    for row in rows:
        acc = []
        for o in range(len(w[0])):
            s = 0.0 if b is None else b[o]
            for f in range(len(row)):
                s += row[f] * w[f][o]
            acc.append(s)
        out.append(acc)
    return out


def euclid(a, b):
    s = 0.0
    for x, y in zip(a, b):
        s += (x - y) * (x - y)
    return math.sqrt(s)


class NaiveModel:
    def __init__(self, episode, arrays, cfg):
        self.ep = episode
        self.cfg = cfg
        self.w = {k: v.tolist() for k, v in arrays.items()}
        self.channels = list(cfg["channels"])
        self.slope = cfg["leaky_slope"]

    def embed(self):
        feats = [[float(x) for x in row] for row in self.ep.features]
        if not self.cfg["use_encoder"]:
            return feats
        pre = linear(feats, self.w["encoder.w"], self.w["encoder.b"])
        return [[lrelu(x, self.slope) for x in row] for row in pre]

    def diffs(self, u):
        m = len(u)
        return [
            [u[i][f] - u[(i + 1) % m][f] for f in range(len(u[i]))]
            for i in range(m)
        ]

    def rel_channel(self, v):
        m = len(v)
        dist = [[euclid(v[i], v[j]) for j in range(m)] for i in range(m)]
        out = []
        for i in range(m):
            tot = sum(dist[i])
            assert tot >= EPS, "degenerate episode in reference"
            out.append([1.0 - dist[i][j] / tot for j in range(m)])
        return out

    def init_edges(self, rel, labels=True):
        # labels=False: every label cell 0.5, as if no label were visible
        ep = self.ep
        m = ep.m
        edges = []
        for i in range(m):
            row = []
            for j in range(m):
                vis = (labels and bool(ep.label_mask[i])
                       and bool(ep.label_mask[j]))
                same = ep.class_slots[i] == ep.class_slots[j]
                cell = []
                for ch in self.channels:
                    if ch == "relative":
                        cell.append(rel[i][j])
                    elif ch == "similar":
                        cell.append((1.0 if same else 0.0) if vis else 0.5)
                    else:
                        cell.append((0.0 if same else 1.0) if vis else 0.5)
                row.append(cell)
            edges.append(row)
        return edges

    def pair_normalize(self, edges):
        m = len(edges)
        c = len(self.channels)
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                s = sum(edges[i][j])
                if s < EPS:
                    row.append([0.0] * c)
                else:
                    row.append([edges[i][j][k] / s for k in range(c)])
            out.append(row)
        return out

    def vertex_step(self, layer, u, v, edges):
        m = len(u)
        norm = self.pair_normalize(edges)
        rows = []
        for i in range(m):
            feats = []
            for k, ch in enumerate(self.channels):
                src = v if ch == "relative" else u
                d = len(src[0])
                agg = [0.0] * d
                for j in range(m):
                    for f in range(d):
                        agg[f] += norm[i][j][k] * src[j][f]
                feats.extend(agg)
            if self.cfg.get("aggregate_self"):
                feats.extend(u[i])
            rows.append(feats)
        # under standardize_vertex the vertex net has no bias
        pre = linear(rows, self.w[f"layer{layer}.vertex.w"],
                     self.w.get(f"layer{layer}.vertex.b"))
        if self.cfg["standardize_vertex"]:
            d = len(pre[0])
            gain = self.w[f"layer{layer}.vertex.gain"]
            shift = self.w[f"layer{layer}.vertex.shift"]
            cols = []
            for f in range(d):
                vals = [pre[i][f] for i in range(m)]
                mu = sum(vals) / m
                var = sum((x - mu) ** 2 for x in vals) / m
                sd = math.sqrt(var + 1e-5)
                cols.append([(x - mu) / sd * gain[f] + shift[f] for x in vals])
            pre = [[cols[f][i] for f in range(d)] for i in range(m)]
        u_new = [[lrelu(x, self.slope) for x in row] for row in pre]
        return u_new, self.diffs(u_new)

    def metric(self, layer, which, feats):
        m = len(feats)
        prefix = f"layer{layer}.{which}"
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                if self.cfg["metric_input"] == "distance":
                    x = [euclid(feats[i], feats[j])]
                else:
                    x = [abs(a - b) for a, b in zip(feats[i], feats[j])]
                h = linear([x], self.w[f"{prefix}.0.w"], self.w[f"{prefix}.0.b"])[0]
                h = [lrelu(t, self.slope) for t in h]
                h = linear([h], self.w[f"{prefix}.1.w"], self.w[f"{prefix}.1.b"])[0]
                h = [lrelu(t, self.slope) for t in h]
                h = linear([h], self.w[f"{prefix}.2.w"], self.w[f"{prefix}.2.b"])[0]
                s = sigmoid(h[0])
                row.append(SCORE_EPS + (1.0 - 2.0 * SCORE_EPS) * s)
            out.append(row)
        return out

    def edge_step(self, u, v, edges, rel_sc, pair_sc):
        m = len(u)
        raw = [[[0.0] * len(self.channels) for _ in range(m)] for _ in range(m)]
        for k, ch in enumerate(self.channels):
            if ch == "relative":
                sc = rel_sc
            elif ch == "similar":
                sc = pair_sc
            else:
                sc = [[1.0 - pair_sc[i][j] for j in range(m)] for i in range(m)]
            for i in range(m):
                roww = sum(edges[i][j][k] for j in range(m))
                assert roww >= EPS, "zero edge row in reference"
                wsum = sum(sc[i][j] * edges[i][j][k] for j in range(m))
                denom = wsum / roww
                for j in range(m):
                    raw[i][j][k] = sc[i][j] * edges[i][j][k] / denom
        return self.pair_normalize(raw)

    def forward(self):
        u = self.embed()
        v = self.diffs(u)
        rel = self.rel_channel(v) if "relative" in self.channels else None
        edges = self.init_edges(rel)
        blind = self.init_edges(rel, labels=False)
        us, vs, es = [u], [v], [edges]
        rel_scores, pair_scores = [], []
        for layer in range(self.cfg["layers"]):
            # the first vertex step pools over label-blind edges
            pool = blind if layer == 0 else es[-1]
            u, v = self.vertex_step(layer, us[-1], vs[-1], pool)
            r = self.metric(layer, "relnet", v) if "relative" in self.channels else None
            need_pair = ("similar" in self.channels
                         or "dissimilar" in self.channels)
            p = self.metric(layer, "pairnet", u) if need_pair else None
            edges = self.edge_step(u, v, es[-1], r, p)
            us.append(u)
            vs.append(v)
            es.append(edges)
            rel_scores.append(r)
            pair_scores.append(p)
        return us, vs, es, rel_scores, pair_scores

    def predict(self, es, layer, channel):
        ep = self.ep
        k = self.channels.index(channel)
        rows = []
        for i in range(ep.m):
            if not ep.is_query[i]:
                continue
            logits = []
            for c in range(ep.n_way):
                s = 0.0
                for j in range(ep.m):
                    if j == i or not ep.label_mask[j]:
                        continue
                    if ep.class_slots[j] != c:
                        continue
                    val = es[layer][i][j][k]
                    if channel == "dissimilar":
                        val = 1.0 - val
                    s += val
                logits.append(s)
            top = max(logits)
            exps = [math.exp(x - top) for x in logits]
            tot = sum(exps)
            rows.append([e / tot for e in exps])
        return rows

    def ce(self, es, channel):
        ep = self.ep
        truth = [int(ep.class_slots[i]) for i in range(ep.m) if ep.is_query[i]]
        total = 0.0
        per_layer = []
        for layer in range(1, self.cfg["layers"] + 1):
            rows = self.predict(es, layer, channel)
            term = -sum(
                math.log(rows[q][truth[q]]) for q in range(len(truth))
            ) / len(truth)
            per_layer.append(term)
            total += term
        return total, per_layer

    def structure_loss(self, es, rel_scores, pair_scores):
        m = self.ep.m
        total = 0.0
        for layer in range(self.cfg["layers"]):
            prev = es[layer]
            for k, ch in enumerate(self.channels):
                s = 0.0
                for i in range(m):
                    for j in range(m):
                        if ch == "relative":
                            sc = rel_scores[layer][i][j]
                        elif ch == "similar":
                            sc = pair_scores[layer][i][j]
                        else:
                            sc = 1.0 - pair_scores[layer][i][j]
                        s += sc * prev[i][j][k]
                total += s / (m * m)
        return total
