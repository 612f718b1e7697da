"""Input generators for the benchmark: text models, ONNX bytes, library logs.

The model builders follow the layouts of the test suite's model zoo and the
protobuf encoder follows its wire helpers, but both are copied here on
purpose: the benchmark's inputs must not change when a test changes. The
program never sees this module; it only reads the files written from it.
"""

from __future__ import annotations

import heapq
import random

# ---------------------------------------------------------------------------
# Graph builder (renders text models and ONNX bytes from one node list)
# ---------------------------------------------------------------------------


class Model:
    """A layer graph kept as ``(id, op, inputs, attrs)`` rows in build order.

    ``attrs`` maps names to ints or int tuples, as the text format writes
    them; ``w<slot>`` entries are weight shapes.
    """

    def __init__(self, name: str, input_dims: tuple[int, ...]):
        self.name = name
        self.input_dims = tuple(input_dims)
        self.nodes: list[tuple[str, str, list[str], dict]] = []

    def add(self, nid: str, op: str, inputs, attrs: dict | None = None) -> str:
        srcs = inputs.split(",") if isinstance(inputs, str) else list(inputs)
        self.nodes.append((nid, op, srcs, dict(attrs or {})))
        return nid

    def conv(self, nid, src, cin, cout, k, stride, pad, bias=False):
        attrs = {"kernel": (k, k), "strides": (stride, stride),
                 "pads": (pad, pad, pad, pad), "w1": (cout, cin, k, k)}
        if bias:
            attrs["w2"] = (cout,)
        return self.add(nid, "Conv", src, attrs)

    def bn(self, nid, src, c):
        return self.add(nid, "BatchNorm", src,
                        {"w1": (c,), "w2": (c,), "w3": (c,), "w4": (c,)})

    def text(self) -> str:
        lines = [f"graph {self.name}",
                 f"input data {_dims(self.input_dims)}"]
        for nid, op, srcs, attrs in self.nodes:
            line = f"node {nid} {op} inputs={','.join(srcs)}"
            if attrs:
                line += " attrs=" + ";".join(f"{k}={_value(v)}" for k, v in attrs.items())
            lines.append(line)
        return "\n".join(lines) + "\n"

    def onnx(self, output_dims: tuple[int, ...]) -> bytes:
        """Binary ONNX model; weights become initializers (shape only)."""
        nodes, inits = [], []
        for nid, op, srcs, attrs in self.nodes:
            inputs = list(srcs)
            onnx_attrs = []
            for key, value in attrs.items():
                if key.startswith("w") and key[1:].isdigit():
                    slot = int(key[1:])
                    while len(inputs) < slot:
                        inputs.append("")
                    tname = f"{nid}_{key}"
                    inputs.insert(slot, tname)
                    inits.append(_tensor(tname, value))
                elif isinstance(value, tuple):
                    name = "kernel_shape" if key == "kernel" else key
                    onnx_attrs.append(_attr_ints(name, value))
                else:
                    onnx_attrs.append(_attr_int(key, value))
            onnx_op = "BatchNormalization" if op == "BatchNorm" else op
            nodes.append(_node(onnx_op, inputs, [nid], nid,
                               b"".join(_fs(5, a) for a in onnx_attrs)))
        last = self.nodes[-1][0]
        graph = b"".join(_fs(1, n) for n in nodes)
        graph += _fs(2, self.name)
        graph += b"".join(_fs(5, t) for t in inits)
        graph += _fs(11, _value_info("data", self.input_dims))
        graph += _fs(12, _value_info(last, output_dims))
        return _fv(1, 8) + _fs(7, graph)


def _dims(dims) -> str:
    return "x".join(str(d) for d in dims)


def _value(v) -> str:
    return _dims(v) if isinstance(v, tuple) else str(v)


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------

_RESNET_V1 = {
    18: ([2, 2, 2, 2], False),
    34: ([3, 4, 6, 3], False),
    50: ([3, 4, 6, 3], True),
    101: ([3, 4, 23, 3], True),
    152: ([3, 8, 36, 3], True),
}
RESNET_DEPTHS = tuple(_RESNET_V1)


def resnet_v1(depth: int) -> Model:
    """Canonical v1 layout: stride on the first 1x1 of each bottleneck."""
    blocks, bottleneck = _RESNET_V1[depth]
    g = Model(f"resnet{depth}-v1", (1, 3, 224, 224))
    g.conv("conv0", "data", 3, 64, 7, 2, 3)
    g.bn("bn0", "conv0", 64)
    g.add("relu0", "Relu", "bn0")
    g.add("pool0", "MaxPool", "relu0",
          {"kernel": (3, 3), "strides": (2, 2), "pads": (1, 1, 1, 1)})
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
                g.add(f"{base}r1", "Relu", f"{base}n1")
                g.conv(f"{base}c2", f"{base}r1", width, width, 3, 1, 1)
                g.bn(f"{base}n2", f"{base}c2", width)
                g.add(f"{base}r2", "Relu", f"{base}n2")
                g.conv(f"{base}c3", f"{base}r2", width, cout, 1, 1, 0)
                g.bn(f"{base}n3", f"{base}c3", cout)
                body = f"{base}n3"
            else:
                g.conv(f"{base}c1", prev, cin, width, 3, stride, 1)
                g.bn(f"{base}n1", f"{base}c1", width)
                g.add(f"{base}r1", "Relu", f"{base}n1")
                g.conv(f"{base}c2", f"{base}r1", width, cout, 3, 1, 1)
                g.bn(f"{base}n2", f"{base}c2", cout)
                body = f"{base}n2"
            if stride != 1 or cin != cout:
                g.conv(f"{base}ds", skip, cin, cout, 1, stride, 0)
                g.bn(f"{base}dn", f"{base}ds", cout)
                skip = f"{base}dn"
            g.add(f"{base}add", "Add", f"{body},{skip}")
            g.add(f"{base}out", "Relu", f"{base}add")
            prev, cin = f"{base}out", cout
    g.add("gap", "GlobalAveragePool", prev)
    g.add("flat", "Flatten", "gap", {"axis": 1})
    g.add("fc", "Gemm", "flat", {"transB": 1, "w1": (1000, cin), "w2": (1000,)})
    return g


def _resnet18_v2() -> Model:
    g = Model("resnet18-v2", (1, 3, 224, 224))
    g.conv("conv0", "data", 3, 64, 7, 2, 3)
    g.bn("bn0", "conv0", 64)
    g.add("relu0", "Relu", "bn0")
    g.add("pool0", "MaxPool", "relu0",
          {"kernel": (3, 3), "strides": (2, 2), "pads": (1, 1, 1, 1)})
    prev, cin = "pool0", 64
    for s_idx, width in enumerate((64, 128, 256, 512)):
        for b in range(2):
            stride = 2 if (s_idx > 0 and b == 0) else 1
            base = f"s{s_idx}b{b}"
            skip = prev
            g.bn(f"{base}n1", prev, cin)
            g.add(f"{base}r1", "Relu", f"{base}n1")
            g.conv(f"{base}c1", f"{base}r1", cin, width, 3, stride, 1)
            g.bn(f"{base}n2", f"{base}c1", width)
            g.add(f"{base}r2", "Relu", f"{base}n2")
            g.conv(f"{base}c2", f"{base}r2", width, width, 3, 1, 1)
            if stride != 1 or cin != width:
                g.conv(f"{base}ds", skip, cin, width, 1, stride, 0)
                skip = f"{base}ds"
            g.add(f"{base}add", "Add", f"{base}c2,{skip}")
            prev, cin = f"{base}add", width
    g.bn("bnf", prev, cin)
    g.add("reluf", "Relu", "bnf")
    g.add("gap", "GlobalAveragePool", "reluf")
    g.add("flat", "Flatten", "gap", {"axis": 1})
    g.add("fc", "Gemm", "flat", {"transB": 1, "w1": (1000, cin), "w2": (1000,)})
    return g


def _mnist() -> Model:
    # The literal Reshape target (1x256) is what breaks re-batching.
    g = Model("mnist-cnn", (1, 1, 28, 28))
    g.conv("conv1", "data", 1, 8, 5, 1, 2)
    g.add("badd1", "Add", "conv1", {"w1": (8, 1, 1)})
    g.add("relu1", "Relu", "badd1")
    g.add("pool1", "MaxPool", "relu1", {"kernel": (2, 2), "strides": (2, 2)})
    g.conv("conv2", "pool1", 8, 16, 5, 1, 2)
    g.add("badd2", "Add", "conv2", {"w1": (16, 1, 1)})
    g.add("relu2", "Relu", "badd2")
    g.add("pool2", "MaxPool", "relu2", {"kernel": (3, 3), "strides": (3, 3)})
    g.add("reshape", "Reshape", "pool2", {"shape": (1, 256)})
    g.add("fc", "Gemm", "reshape", {"transB": 1, "w1": (10, 256)})
    g.add("badd3", "Add", "fc", {"w1": (1, 10)})
    return g


def _unsqueeze_heavy() -> Model:
    g = Model("unsqueeze-heavy", (1, 16, 8, 8))
    g.conv("t000", "data", 16, 16, 3, 1, 1)
    trunk_ops = ("Relu", "BatchNorm", "Sigmoid", "Tanh", "Dropout")
    prev = "t000"
    for i in range(1, 360):
        op = trunk_ops[i % len(trunk_ops)]
        if op == "BatchNorm":
            g.bn(f"t{i:03d}", prev, 16)
        else:
            g.add(f"t{i:03d}", op, prev)
        prev = f"t{i:03d}"
    for i in range(137):
        g.add(f"u{i:03d}", "Unsqueeze", f"t{i:03d}", {"axes": 0})
    for i in range(12):
        g.add(f"c{i:02d}", "Concat", f"u{2 * i:03d},u{2 * i + 1:03d}", {"axis": 0})
    return g


def _fusion_tower(units: int = 32, total: int = 356) -> Model:
    g = Model("fusion-tower", (1, 8, 16, 16))
    prev, cin = "data", 8
    for u in range(units):
        g.conv(f"u{u:02d}c", prev, cin, 8, 3, 1, 1)
        g.add(f"u{u:02d}b", "Add", f"u{u:02d}c", {"w1": (1, 8, 1, 1)})
        g.bn(f"u{u:02d}n", f"u{u:02d}b", 8)
        g.add(f"u{u:02d}r", "Relu", f"u{u:02d}n")
        prev, cin = f"u{u:02d}r", 8
    for i in range(total - units * 4):
        g.add(f"f{i:03d}", "Relu", prev)
        prev = f"f{i:03d}"
    return g


def _conv_chain(name: str, channels: list[int], k: int = 3, spatial: int = 32) -> Model:
    g = Model(name, (1, channels[0], spatial, spatial))
    prev = "data"
    for i, (cin, cout) in enumerate(zip(channels, channels[1:])):
        g.conv(f"c{i:02d}", prev, cin, cout, k, 1, k // 2)
        g.add(f"r{i:02d}", "Relu", f"c{i:02d}")
        prev = f"r{i:02d}"
    g.add("gap", "GlobalAveragePool", prev)
    g.add("flat", "Flatten", "gap", {"axis": 1})
    g.add("fc", "Gemm", "flat", {"transB": 1, "w1": (10, channels[-1]), "w2": (10,)})
    return g


def thirty_model_family() -> list[Model]:
    """Thirty models with heavy intra- and inter-model layer reuse."""
    models = [resnet_v1(d) for d in RESNET_DEPTHS]
    models += [_resnet18_v2(), _mnist(), _unsqueeze_heavy(), _fusion_tower()]
    rng = random.Random(7)
    for i in range(21):
        depth = rng.randint(2, 6)
        base = rng.choice((8, 16, 24, 32))
        channels = [3] + [base * rng.choice((1, 2)) for _ in range(depth)]
        models.append(_conv_chain(f"chain{i:02d}", channels))
    return models


def relu_chain(n: int, dims: tuple[int, ...] = (1, 16, 8, 8)) -> Model:
    """``n`` Relu layers in a line; every layer has the same signature."""
    g = Model(f"relu-chain-{n}", dims)
    prev = "data"
    for i in range(n):
        prev = g.add(f"r{i:05d}", "Relu", prev)
    return g


def topo_order(model: Model) -> list[str]:
    """Node ids in topological order, ties broken by ascending id."""
    ids = {nid for nid, _, _, _ in model.nodes}
    indeg = {nid: 0 for nid in ids}
    consumers: dict[str, list[str]] = {nid: [] for nid in ids}
    for nid, _op, srcs, _attrs in model.nodes:
        for src in srcs:
            if src in ids:
                indeg[nid] += 1
                consumers[src].append(nid)
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for c in consumers[nid]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    return order


# ---------------------------------------------------------------------------
# Library logs
# ---------------------------------------------------------------------------

_API = {
    "Conv": "cudnnConvolutionForward",
    "BatchNorm": "cudnnBatchNormalizationForwardInference",
    "Relu": "cudnnActivationForward",
    "MaxPool": "cudnnPoolingForward",
    "GlobalAveragePool": "cudnnPoolingForward",
    "Add": "cudnnAddTensor",
    "Gemm": "cublasGemmEx",
}
ALGOS = ("IMPLICIT_GEMM", "IMPLICIT_PRECOMP_GEMM", "GEMM", "DIRECT", "FFT",
         "FFT_TILING", "WINOGRAD", "WINOGRAD_NONFUSED")


def cudnn_log(model: Model, rng: random.Random) -> str:
    """A library-logger trace of one inference pass over ``model``.

    One block per library-backed layer in execution order, so convolutions
    line up one to one with the graph. Seeded noise adds the deviations a
    real framework shows: non-default algorithms, a mislogged filter, an
    extra library call, a skipped call, stream waits and foreign calls.
    """
    by_id = {nid: (op, attrs) for nid, op, _srcs, attrs in model.nodes}
    lines = []

    def block(fn: str, params: list[tuple[str, str, str]], lib: str = "CuDNN"):
        lines.append(f"I! {lib} (v7605) function {fn}() called:")
        for key, typ, val in params:
            lines.append(f"    {key}: type={typ}; val={val};")

    order = topo_order(model)
    skip = rng.randrange(len(order))
    for pos, nid in enumerate(order):
        op, attrs = by_id[nid]
        api = _API.get(op)
        if api is None:
            continue
        if pos == skip and op != "Conv":
            continue
        if op == "Conv":
            w = _dims(attrs["w1"])
            if rng.random() < 0.02:
                w = _dims(tuple(d + 1 for d in attrs["w1"]))
            algo = rng.choice(ALGOS) if rng.random() < 0.3 else "IMPLICIT_PRECOMP_GEMM"
            block(api, [("w", "dims", w),
                        ("algo", "cudnnConvolutionFwdAlgo_t",
                         f"CUDNN_CONVOLUTION_FWD_ALGO_{algo} (1)")])
        elif op == "Gemm":
            block(api, [("transb", "int", "1")], lib="cuBLAS")
        else:
            block(api, [("mode", "enum", "DEFAULT")])
        if rng.random() < 0.03:
            block("cudaStreamWaitEvent", [])
        if rng.random() < 0.01:
            block("cudnnAddTensor", [("alpha", "float", "1")])
    block("cudaMemcpyAsync", [("bytes", "size_t", "4000")])
    return "\n".join(lines) + "\n"


def kernel_lines(model: Model, rng: random.Random) -> str:
    """A kernel trace in the profile KERNELS format; f16 convs use tensor cores."""
    out = []
    for nid, op, _srcs, _attrs in model.nodes:
        if op == "Conv":
            name = "volta_h884cudnn_256x64" if rng.random() < 0.5 else "volta_scudnn_128x64"
            out.append(f'{{"name":"{name}","duration_us":{rng.uniform(5, 80):.3f}}}')
    out.append('{"name":"memcpy_kernel","duration_us":3.5,"between":[1,2]}')
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Protocol-buffer encoding (ONNX wire format)
# ---------------------------------------------------------------------------

def _varint(v: int) -> bytes:
    if v < 0:
        v += 1 << 64
    out = bytearray()
    while True:
        bits = v & 0x7F
        v >>= 7
        if v:
            out.append(bits | 0x80)
        else:
            out.append(bits)
            return bytes(out)


def _tag(field: int, wire: int) -> bytes:
    return _varint((field << 3) | wire)


def _fv(field: int, value: int) -> bytes:
    return _tag(field, 0) + _varint(value)


def _fs(field: int, payload: bytes | str) -> bytes:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return _tag(field, 2) + _varint(len(payload)) + payload


def _attr_int(name: str, value: int) -> bytes:
    return _fs(1, name) + _fv(3, value) + _fv(20, 2)


def _attr_ints(name: str, values) -> bytes:
    return _fs(1, name) + _fs(8, b"".join(_varint(v) for v in values)) + _fv(20, 7)


def _tensor(name: str, dims, data_type: int = 1) -> bytes:
    return b"".join(_fv(1, d) for d in dims) + _fv(2, data_type) + _fs(8, name)


def _node(op_type: str, inputs, outputs, name: str, attrs: bytes) -> bytes:
    out = b"".join(_fs(1, i) for i in inputs)
    out += b"".join(_fs(2, o) for o in outputs)
    return out + _fs(3, name) + _fs(4, op_type) + attrs


def _value_info(name: str, dims) -> bytes:
    shape = _fs(2, b"".join(_fs(1, _fv(1, d)) for d in dims))
    return _fs(1, name) + _fs(2, _fs(1, _fv(1, 1) + shape))
