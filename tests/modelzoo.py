"""Synthetic model builders shared across the test suite.

Everything here renders the text model format, so fixtures stay diffable
and the CLI tests can write them straight to disk. The residual-network
family reproduces the canonical v1 layer layouts (stride on the first 1x1
of each bottleneck), which pins both the layer counts and the MAC totals.
"""

from __future__ import annotations

import random

from lbound.model_ir import (
    Layer,
    LayerNode,
    ModelGraph,
    infer_shapes,
    parse_text_model,
    validate,
)


class _Lines:
    def __init__(self, name: str, input_dims: str = "1x3x224x224",
                 input_name: str = "data"):
        self.lines = [f"graph {name}", f"input {input_name} {input_dims}"]

    def conv(self, nid, src, cin, cout, k, stride, pad, bias=False):
        attrs = (f"kernel={k}x{k};strides={stride}x{stride};"
                 f"pads={pad}x{pad}x{pad}x{pad};w1={cout}x{cin}x{k}x{k}")
        if bias:
            attrs += f";w2={cout}"
        self.lines.append(f"node {nid} Conv inputs={src} attrs={attrs}")
        return nid

    def bn(self, nid, src, c):
        self.lines.append(f"node {nid} BatchNorm inputs={src} "
                          f"attrs=w1={c};w2={c};w3={c};w4={c}")
        return nid

    def op(self, nid, op, src, attrs=None):
        line = f"node {nid} {op} inputs={src}"
        if attrs:
            line += f" attrs={attrs}"
        self.lines.append(line)
        return nid

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


_RESNET_V1 = {
    18: ([2, 2, 2, 2], False),
    34: ([3, 4, 6, 3], False),
    50: ([3, 4, 6, 3], True),
    101: ([3, 4, 23, 3], True),
    152: ([3, 8, 36, 3], True),
}


def resnet_v1_text(depth: int) -> str:
    blocks, bottleneck = _RESNET_V1[depth]
    g = _Lines(f"resnet{depth}-v1")
    g.conv("conv0", "data", 3, 64, 7, 2, 3)
    g.bn("bn0", "conv0", 64)
    g.op("relu0", "Relu", "bn0")
    g.op("pool0", "MaxPool", "relu0", "kernel=3x3;strides=2x2;pads=1x1x1x1")
    prev, cin = "pool0", 64
    for s_idx, (width, nblocks) in enumerate(zip((64, 128, 256, 512), blocks)):
        for b in range(nblocks):
            stride = 2 if (s_idx > 0 and b == 0) else 1
            cout = width * 4 if bottleneck else width
            base = f"s{s_idx}b{b}"
            skip = prev
            if bottleneck:
                g.conv(f"{base}c1", prev, cin, width, 1, stride, 0)
                g.bn(f"{base}n1", f"{base}c1", width)
                g.op(f"{base}r1", "Relu", f"{base}n1")
                g.conv(f"{base}c2", f"{base}r1", width, width, 3, 1, 1)
                g.bn(f"{base}n2", f"{base}c2", width)
                g.op(f"{base}r2", "Relu", f"{base}n2")
                g.conv(f"{base}c3", f"{base}r2", width, cout, 1, 1, 0)
                g.bn(f"{base}n3", f"{base}c3", cout)
                body = f"{base}n3"
            else:
                g.conv(f"{base}c1", prev, cin, width, 3, stride, 1)
                g.bn(f"{base}n1", f"{base}c1", width)
                g.op(f"{base}r1", "Relu", f"{base}n1")
                g.conv(f"{base}c2", f"{base}r1", width, cout, 3, 1, 1)
                g.bn(f"{base}n2", f"{base}c2", cout)
                body = f"{base}n2"
            if stride != 1 or cin != cout:
                g.conv(f"{base}ds", skip, cin, cout, 1, stride, 0)
                g.bn(f"{base}dn", f"{base}ds", cout)
                skip = f"{base}dn"
            g.op(f"{base}add", "Add", f"{body},{skip}")
            g.op(f"{base}out", "Relu", f"{base}add")
            prev, cin = f"{base}out", cout
    g.op("gap", "GlobalAveragePool", prev)
    g.op("flat", "Flatten", "gap", "axis=1")
    g.op("fc", "Gemm", "flat", f"transB=1;w1=1000x{cin};w2=1000")
    return g.text()


def resnet18_v2_text() -> str:
    """Pre-activation variant; shares some early shapes with the v1 family."""
    g = _Lines("resnet18-v2")
    g.conv("conv0", "data", 3, 64, 7, 2, 3)
    g.bn("bn0", "conv0", 64)
    g.op("relu0", "Relu", "bn0")
    g.op("pool0", "MaxPool", "relu0", "kernel=3x3;strides=2x2;pads=1x1x1x1")
    prev, cin = "pool0", 64
    for s_idx, width in enumerate((64, 128, 256, 512)):
        for b in range(2):
            stride = 2 if (s_idx > 0 and b == 0) else 1
            base = f"s{s_idx}b{b}"
            skip = prev
            g.bn(f"{base}n1", prev, cin)
            g.op(f"{base}r1", "Relu", f"{base}n1")
            g.conv(f"{base}c1", f"{base}r1", cin, width, 3, stride, 1)
            g.bn(f"{base}n2", f"{base}c1", width)
            g.op(f"{base}r2", "Relu", f"{base}n2")
            g.conv(f"{base}c2", f"{base}r2", width, width, 3, 1, 1)
            if stride != 1 or cin != width:
                g.conv(f"{base}ds", skip, cin, width, 1, stride, 0)
                skip = f"{base}ds"
            g.op(f"{base}add", "Add", f"{base}c2,{skip}")
            prev, cin = f"{base}add", width
    g.bn("bnf", prev, cin)
    g.op("reluf", "Relu", "bnf")
    g.op("gap", "GlobalAveragePool", "reluf")
    g.op("flat", "Flatten", "gap", "axis=1")
    g.op("fc", "Gemm", "flat", f"transB=1;w1=1000x{cin};w2=1000")
    return g.text()


def mnist_text() -> str:
    """Small digit-recognition CNN; MAC total is hand-computable."""
    g = _Lines("mnist-cnn", input_dims="1x1x28x28")
    g.conv("conv1", "data", 1, 8, 5, 1, 2)
    g.op("badd1", "Add", "conv1", "w1=8x1x1")
    g.op("relu1", "Relu", "badd1")
    g.op("pool1", "MaxPool", "relu1", "kernel=2x2;strides=2x2")
    g.conv("conv2", "pool1", 8, 16, 5, 1, 2)
    g.op("badd2", "Add", "conv2", "w1=16x1x1")
    g.op("relu2", "Relu", "badd2")
    g.op("pool2", "MaxPool", "relu2", "kernel=3x3;strides=3x3")
    g.op("reshape", "Reshape", "pool2", "shape=1x256")
    g.op("fc", "Gemm", "reshape", "transB=1;w1=10x256")
    g.op("badd3", "Add", "fc", "w1=1x10")
    return g.text()


def coverage_fixture_text() -> str:
    """509 layers; 360 supported, 137 unsqueeze, 12 concat.

    Mirrors a reshape-heavy inception-style operator mix: roughly 70.7%
    of layers backed by the library APIs and 26.9% unsqueeze layers.
    """
    g = _Lines("unsqueeze-heavy", input_dims="1x16x8x8")
    g.conv("t000", "data", 16, 16, 3, 1, 1)
    trunk_ops = ("Relu", "BatchNorm", "Sigmoid", "Tanh", "Dropout")
    prev = "t000"
    for i in range(1, 360):
        op = trunk_ops[i % len(trunk_ops)]
        attrs = "w1=16;w2=16;w3=16;w4=16" if op == "BatchNorm" else None
        g.op(f"t{i:03d}", op, prev, attrs)
        prev = f"t{i:03d}"
    for i in range(137):
        g.op(f"u{i:03d}", "Unsqueeze", f"t{i:03d}", "axes=0")
    for i in range(12):
        g.op(f"c{i:02d}", "Concat", f"u{2 * i:03d},u{2 * i + 1:03d}", "axis=0")
    return g.text()


def fusion_tower_text(units: int = 32, total: int = 356) -> str:
    """``units`` Conv->Add bias pairs (fusable) padded to ``total`` layers.

    Each pair is followed by BatchNorm so only the two-layer pattern
    matches; with the defaults 64 of 356 layers (18%) sit in fusable pairs.
    """
    g = _Lines("fusion-tower", input_dims="1x8x16x16")
    prev = "data"
    cin = 8
    for u in range(units):
        g.conv(f"u{u:02d}c", prev, cin, 8, 3, 1, 1)
        g.op(f"u{u:02d}b", "Add", f"u{u:02d}c", "w1=1x8x1x1")
        g.bn(f"u{u:02d}n", f"u{u:02d}b", 8)
        g.op(f"u{u:02d}r", "Relu", f"u{u:02d}n")
        prev, cin = f"u{u:02d}r", 8
    filler = total - units * 4
    assert filler >= 0
    for i in range(filler):
        g.op(f"f{i:03d}", "Relu", prev)
        prev = f"f{i:03d}"
    return g.text()


def conv_chain_text(name: str, channels: list[int], k: int = 3,
                    spatial: int = 32) -> str:
    """Plain Conv/Relu chain; distinct channel lists give distinct layers."""
    g = _Lines(name, input_dims=f"1x{channels[0]}x{spatial}x{spatial}")
    prev = "data"
    for i, (cin, cout) in enumerate(zip(channels, channels[1:])):
        g.conv(f"c{i:02d}", prev, cin, cout, k, 1, k // 2)
        g.op(f"r{i:02d}", "Relu", f"c{i:02d}")
        prev = f"r{i:02d}"
    g.op("gap", "GlobalAveragePool", prev)
    g.op("flat", "Flatten", "gap", "axis=1")
    g.op("fc", "Gemm", "flat", f"transB=1;w1=10x{channels[-1]};w2=10")
    return g.text()


def thirty_model_family() -> list[tuple[str, str]]:
    """A 30-model corpus with heavy intra- and inter-model layer reuse."""
    models = [(f"resnet{d}-v1", resnet_v1_text(d)) for d in (18, 34, 50, 101, 152)]
    models.append(("resnet18-v2", resnet18_v2_text()))
    models.append(("mnist-cnn", mnist_text()))
    models.append(("unsqueeze-heavy", coverage_fixture_text()))
    models.append(("fusion-tower", fusion_tower_text()))
    rng = random.Random(7)
    for i in range(21):
        depth = rng.randint(2, 6)
        base = rng.choice((8, 16, 24, 32))
        channels = [3] + [base * rng.choice((1, 2)) for _ in range(depth)]
        models.append((f"chain{i:02d}", conv_chain_text(f"chain{i:02d}", channels)))
    return models


def load(text: str, batch: int = 1) -> ModelGraph:
    return infer_shapes(parse_text_model(text), batch)


def layer(graph: ModelGraph, nid: str) -> Layer:
    """The layer-table record of node ``nid`` in an inferred graph."""
    return graph.layers[graph.layer_of[nid]]


# ---------------------------------------------------------------------------
# Random DAGs for critical-path testing
# ---------------------------------------------------------------------------

def random_dag(rng: random.Random, max_nodes: int = 14):
    """A random latency-annotated DAG plus its latency map."""
    n = rng.randint(1, max_nodes)
    ids = [f"n{i:02d}" for i in range(n)]
    nodes: dict[str, LayerNode] = {}
    for i, nid in enumerate(ids):
        preds = [ids[j] for j in range(i) if rng.random() < 0.35]
        nodes[nid] = LayerNode(id=nid, op_type="Opaque",
                               input_ids=preds or ["in"])
    consumed = {src for node in nodes.values() for src in node.input_ids}
    outputs = [nid for nid in ids if nid not in consumed]
    graph = ModelGraph("rand", nodes, [("in", (1,))], outputs)
    validate(graph)
    latencies = {nid: round(rng.uniform(0.1, 100.0), 6) for nid in ids}
    return graph, latencies


def brute_force_critical_total(graph: ModelGraph, latencies: dict[str, float]) -> float:
    """Max over all source-to-sink simple paths of summed node latencies."""
    node_ids = set(graph.nodes)
    sources = [nid for nid in graph.nodes
               if not any(s in node_ids for s in graph.nodes[nid].input_ids)]
    best = float("-inf")

    def walk(nid: str, total: float):
        nonlocal best
        total = total + latencies[nid]
        if not graph.nodes[nid].output_ids:
            best = max(best, total)
            return
        for consumer in graph.nodes[nid].output_ids:
            walk(consumer, total)

    for src in sources:
        walk(src, 0.0)
    return best if best != float("-inf") else 0.0
