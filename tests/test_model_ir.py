from __future__ import annotations

import inspect
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelzoo as mz
from cli_run import invoke
from lbound import dedup, model_ir
from lbound.errors import GraphStructureError, ModelParseError, ShapeInferenceError
from lbound.model_ir import (
    LayerNode,
    ModelGraph,
    infer_layer,
    infer_shapes,
    parse_text_model,
    render_text_model,
    validate,
)
import text_reader_ref
from records import fields


def _single(op, attrs="", in_dims="1x3x224x224", extra="", batch=1):
    text = f"graph t\ninput data {in_dims}\nnode n0 {op} inputs=data"
    if attrs:
        text += f" attrs={attrs}"
    if extra:
        text += "\n" + extra
    return infer_shapes(parse_text_model(text), batch)


def _macs(graph: ModelGraph) -> int:
    """A graph's MAC total: each node's layer counted once per node."""
    return sum(graph.layers[graph.layer_of[nid]].macs for nid in graph.nodes)


class TestShapeRules:
    def test_conv_7x7_stride2(self):
        g = _single("Conv", "kernel=7x7;strides=2x2;pads=3x3x3x3;w1=64x3x7x7")
        assert mz.layer(g, "n0").out_dims == (1, 64, 112, 112)

    def test_maxpool_3x3_stride2(self):
        g = _single("MaxPool", "kernel=3x3;strides=2x2;pads=1x1x1x1",
                    in_dims="1x64x112x112")
        assert mz.layer(g, "n0").out_dims == (1, 64, 56, 56)

    def test_gemm(self):
        g = _single("Gemm", "w1=2048x1000", in_dims="1x2048")
        assert mz.layer(g, "n0").out_dims == (1, 1000)

    def test_gemm_transb(self):
        g = _single("Gemm", "transB=1;w1=1000x2048", in_dims="1x2048")
        assert mz.layer(g, "n0").out_dims == (1, 1000)

    def test_conv_asymmetric_padding(self):
        g = _single("Conv", "kernel=3x3;strides=1x1;pads=1x1x0x0;w1=8x3x3x3",
                    in_dims="1x3x10x10")
        assert mz.layer(g, "n0").out_dims == (1, 8, 9, 9)

    def test_conv_dilation(self):
        g = _single("Conv", "kernel=3x3;dilations=2x2;w1=8x3x3x3",
                    in_dims="1x3x9x9")
        # effective kernel 5 -> 9 - 5 + 1
        assert mz.layer(g, "n0").out_dims == (1, 8, 5, 5)

    def test_conv_grouped(self):
        g = _single("Conv", "kernel=3x3;pads=1x1x1x1;group=8;w1=16x2x3x3",
                    in_dims="1x16x8x8")
        assert mz.layer(g, "n0").out_dims == (1, 16, 8, 8)

    def test_conv_filters_shorthand_matches_w1(self):
        a = _single("Conv", "kernel=3x3;filters=8", in_dims="1x4x8x8")
        b = _single("Conv", "kernel=3x3;w1=8x4x3x3", in_dims="1x4x8x8")
        assert mz.layer(a, "n0").params == mz.layer(b, "n0").params

    def test_global_average_pool(self):
        g = _single("GlobalAveragePool", in_dims="1x64x7x7")
        assert mz.layer(g, "n0").out_dims == (1, 64, 1, 1)

    def test_elementwise_broadcast_bias(self):
        g = _single("Add", "w1=1x8x1x1", in_dims="1x8x4x4")
        assert mz.layer(g, "n0").out_dims == (1, 8, 4, 4)

    def test_elementwise_two_inputs(self):
        text = ("graph t\ninput data 1x8x4x4\n"
                "node a Relu inputs=data\n"
                "node b Sigmoid inputs=data\n"
                "node c Mul inputs=a,b")
        g = infer_shapes(parse_text_model(text), 1)
        assert mz.layer(g, "c").out_dims == (1, 8, 4, 4)

    def test_elementwise_mismatch_names_node_and_shapes(self):
        text = ("graph t\ninput data 1x8x4x4\n"
                "node a Relu inputs=data\n"
                "node b MaxPool inputs=data attrs=kernel=2x2;strides=2x2\n"
                "node c Add inputs=a,b")
        with pytest.raises(ShapeInferenceError) as exc:
            infer_shapes(parse_text_model(text), 1)
        msg = str(exc.value)
        assert "'c'" in msg and "(1, 8, 4, 4)" in msg and "(1, 8, 2, 2)" in msg

    def test_concat_sums_axis(self):
        text = ("graph t\ninput data 1x8x4x4\n"
                "node a Relu inputs=data\n"
                "node b Relu inputs=data\n"
                "node c Concat inputs=a,b attrs=axis=1")
        g = infer_shapes(parse_text_model(text), 1)
        assert mz.layer(g, "c").out_dims == (1, 16, 4, 4)

    def test_reshape_with_minus_one(self):
        g = _single("Reshape", "shape=1x-1", in_dims="1x8x4x4")
        assert mz.layer(g, "n0").out_dims == (1, 128)

    def test_reshape_bad_target(self):
        with pytest.raises(ShapeInferenceError):
            _single("Reshape", "shape=1x100", in_dims="1x8x4x4")

    def test_flatten(self):
        g = _single("Flatten", "axis=1", in_dims="2x8x4x4", batch=2)
        assert mz.layer(g, "n0").out_dims == (2, 128)

    def test_unsqueeze_squeeze_transpose(self):
        g = _single("Unsqueeze", "axes=0", in_dims="3x4", batch=3)
        assert mz.layer(g, "n0").out_dims == (1, 3, 4)
        g = _single("Squeeze", "axes=2", in_dims="2x3x1", batch=2)
        assert mz.layer(g, "n0").out_dims == (2, 3)
        g = _single("Transpose", "perm=0x2x1", in_dims="1x3x5")
        assert mz.layer(g, "n0").out_dims == (1, 5, 3)

    # ONNX ranges for rank r: Flatten [-r, r], Softmax and Squeeze [-r, r-1],
    # Unsqueeze [-(r+k), r+k-1] for k axes.
    @pytest.mark.parametrize("op, params, dims", [
        ("Flatten", {"axis": 4}, (48, 1)),
        ("Flatten", {"axis": -4}, (1, 48)),
        ("Softmax", {"axis": 3}, (1, 3, 4, 4)),
        ("Softmax", {"axis": -4}, (1, 3, 4, 4)),
        ("Unsqueeze", {"axes": (5, -6)}, (1, 1, 3, 4, 4, 1)),
        ("Squeeze", {"axes": (-4,)}, (3, 4, 4)),
    ])
    def test_axis_at_the_edge_of_its_range(self, op, params, dims):
        assert infer_layer(op, params, [(1, 3, 4, 4)], "n")[1] == dims

    @pytest.mark.parametrize("op, params, axis, rank", [
        ("Flatten", {"axis": 7}, 7, 4),
        ("Flatten", {"axis": 5}, 5, 4),
        ("Flatten", {"axis": -9}, -9, 4),
        ("Flatten", {"axis": -5}, -5, 4),
        ("Softmax", {"axis": 9}, 9, 4),
        ("Softmax", {"axis": 4}, 4, 4),
        ("Softmax", {"axis": -5}, -5, 4),
        ("Unsqueeze", {"axes": (9,)}, 9, 5),
        ("Unsqueeze", {"axes": (5,)}, 5, 5),
        ("Unsqueeze", {"axes": (0, -7)}, -7, 6),
        ("Squeeze", {"axes": (9,)}, 9, 4),
        ("Squeeze", {"axes": (-5,)}, -5, 4),
        ("Concat", {"axis": 4}, 4, 4),
    ])
    def test_axis_out_of_range_names_node_and_op(self, op, params, axis, rank):
        with pytest.raises(ShapeInferenceError) as exc:
            infer_layer(op, params, [(1, 3, 4, 4)], "n")
        assert str(exc.value) == f"node 'n' ({op}): axis {axis} out of range for rank {rank}"

    def test_unsqueeze_rejects_duplicate_axes(self):
        for axes in ((1, 1), (0, -5)):
            with pytest.raises(ShapeInferenceError, match=r"node 'n' \(Unsqueeze\): duplicate"):
                infer_layer("Unsqueeze", {"axes": axes}, [(1, 3, 4)], "n")

    def test_shape_preserving_ops(self):
        for op, attrs in (("Relu", ""), ("Sigmoid", ""), ("Tanh", ""),
                          ("BatchNorm", "w1=3;w2=3;w3=3;w4=3"),
                          ("Softmax", "axis=1"), ("Dropout", ""), ("Identity", "")):
            g = _single(op, attrs, in_dims="1x3x5x5")
            assert mz.layer(g, "n0").out_dims == (1, 3, 5, 5), op

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ShapeInferenceError):
            _single("Conv", "kernel=9x9;w1=8x3x9x9", in_dims="1x3x4x4")


# A rule says what is wrong; ``infer_layer`` alone puts the node and op first.
@pytest.mark.parametrize("node, message", [
    ("c Conv inputs=d attrs=kernel=3x3;w1=4x3x3x3",
     "node 'c' (Conv): kernel 3 (dilation 1) larger than padded input 2+0+0"),
    ("p MaxPool inputs=d attrs=kernel=3x3",
     "node 'p' (MaxPool): kernel 3 (dilation 1) larger than padded input 2+0+0"),
    ("p MaxPool inputs=d", "node 'p' (MaxPool): needs kernel dims"),
    ("p AveragePool inputs=d", "node 'p' (AveragePool): needs kernel dims"),
    ("c Conv inputs=d attrs=kernel=1x1",
     "node 'c' (Conv): needs w1 dims or kernel+filters attrs"),
    ("k Concat inputs=d,d", "node 'k' (Concat): needs axis"),
    ("r Reshape inputs=d", "node 'r' (Reshape): needs target shape"),
    ("u Unsqueeze inputs=d", "node 'u' (Unsqueeze): needs axes"),
    ("c Conv inputs=d attrs=pads=1x1x1;w1=4x3x1x1",
     "node 'c' (Conv): bad pads value (1, 1, 1)"),
    ("p MaxPool inputs=d attrs=kernel=1x1;strides=1x1x1",
     "node 'p' (MaxPool): bad strides value (1, 1, 1)"),
    ("c Conv inputs=d attrs=kernel=1x1x1;w1=4x3x1x1",
     "node 'c' (Conv): bad kernel value (1, 1, 1)"),
], ids=["conv-kernel-past-input", "maxpool-kernel-past-input", "maxpool-no-kernel",
        "averagepool-no-kernel", "conv-no-weights", "concat-no-axis", "reshape-no-shape",
        "unsqueeze-no-axes", "conv-bad-pads", "maxpool-bad-strides", "conv-bad-kernel"])
def test_a_refused_layer_names_its_node_and_op(node, message):
    graph = parse_text_model(f"graph t\ninput d 1x3x2x2\nnode {node}\n")
    with pytest.raises(ShapeInferenceError) as exc:
        infer_shapes(graph, 1)
    assert str(exc.value) == message


def _onnx_window(mode, size, k, s, d, pads, ceil):
    """One axis of ONNX's window rule: (output size, (pad begin, pad end))."""
    eff = (k - 1) * d + 1
    if mode in ("SAME_UPPER", "SAME_LOWER"):
        out = math.ceil(size / s)
        total = max(0, (out - 1) * s + eff - size)
        low, high = total // 2, total - total // 2
        return out, (low, high) if mode == "SAME_UPPER" else (high, low)
    if mode == "VALID":
        return math.floor((size - eff) / s) + 1, (0, 0)
    rounded = math.ceil if ceil else math.floor
    return rounded((size + sum(pads) - eff) / s) + 1, pads


@pytest.mark.parametrize("op", ["Conv", "MaxPool", "AveragePool"])
@pytest.mark.parametrize("mode", ["SAME_UPPER", "SAME_LOWER", "VALID", "NOTSET", None])
def test_conv_and_pools_share_the_onnx_window_rule(op, mode):
    """Every case re-infers its own out dims from its signature, so an
    auto_pad layer records its resolved pads, and no auto_pad or ceil_mode."""
    cases, pads = 0, (1, 0, 2, 1)
    for h, w in ((7, 10), (8, 9), (11, 12)):
        for s in (1, 2, 3):
            for d in (1, 2):
                for ceil in ((0, 1) if op != "Conv" else (0,)):
                    attrs = f"strides={s}x{s};dilations={d}x{d};ceil_mode={ceil}"
                    attrs += ";pads=1x0x2x1" if mode in ("NOTSET", None) else ""
                    attrs += f";auto_pad={mode}" if mode else ""
                    attrs += ";w1=4x3x3x2" if op == "Conv" else ";kernel=3x2"
                    layer = mz.layer(_single(op, attrs, in_dims=f"1x3x{h}x{w}"), "n0")
                    (oh, (pt, pb)) = _onnx_window(mode, h, 3, s, d, pads[::2], ceil)
                    (ow, (pl, pr)) = _onnx_window(mode, w, 2, s, d, pads[1::2], ceil)
                    assert layer.out_dims == (1, 4 if op == "Conv" else 3, oh, ow), attrs
                    assert layer.params["pads"] == (pt, pl, pb, pr), attrs
                    assert layer.params["strides"] == (s, s)
                    assert layer.params.get("dilations", (1, 1)) == (d, d)
                    assert "auto_pad" not in layer.params
                    assert layer.params.get("ceil_mode", 0) == (ceil if mode in ("NOTSET", None)
                                                                else 0), attrs
                    sig = dedup.signature(layer, "f32")
                    assert dedup.parse_signature(sig.canonical_string).layer.out_dims \
                        == layer.out_dims
                    cases += 1
    assert cases == (18 if op == "Conv" else 36)


def test_a_pool_renders_dilations_only_when_not_one():
    one = mz.layer(_single("MaxPool", "kernel=2x2;dilations=1x1", in_dims="1x3x8x8"), "n0")
    two = mz.layer(_single("MaxPool", "kernel=2x2;dilations=2x2", in_dims="1x3x8x8"), "n0")
    assert dedup.signature(one, "f32").canonical_string \
        == "MaxPool|f32|in=1x3x8x8|kernel=2x2,pads=0x0x0x0,strides=1x1"
    assert dedup.signature(two, "f32").canonical_string \
        == "MaxPool|f32|in=1x3x8x8|dilations=2x2,kernel=2x2,pads=0x0x0x0,strides=1x1"
    assert two.out_dims == (1, 3, 6, 6)


@pytest.mark.parametrize("op, attrs", [
    ("Conv", "w1=4x3x1x1"), ("MaxPool", "kernel=1x1"), ("AveragePool", "kernel=1x1")])
@pytest.mark.parametrize("mode", ["BOGUS", "1", "same_upper"])
def test_an_unknown_auto_pad_names_the_node_and_op(op, attrs, mode, tmp_path):
    text = f"graph t\ninput d 1x3x4x4\nnode n {op} inputs=d attrs={attrs};auto_pad={mode}\n"
    with pytest.raises(ShapeInferenceError) as exc:
        infer_shapes(parse_text_model(text), 1)
    assert str(exc.value).startswith(f"node 'n' ({op}): auto_pad ")
    assert "is not NOTSET, SAME_UPPER, SAME_LOWER or VALID" in str(exc.value)
    path = tmp_path / "m.txt"
    path.write_text(text)
    res = invoke(["process", str(path)])
    assert res.exit_code == 2, res.output
    assert f"node 'n' ({op}): auto_pad" in res.output


def test_a_rule_takes_the_layer_alone():
    """Every rule is ``rule(params, in_dims)``; graph inputs are plain dims."""
    assert [op for op, rule in model_ir._RULES.items()
            if len(inspect.signature(rule).parameters) != 2] == []
    assert not hasattr(model_ir, "TensorShape")


class TestMacs:
    def test_conv_1x1_example(self):
        g = _single("Conv", "kernel=1x1;w1=256x64x1x1", in_dims="1x64x56x56")
        assert mz.layer(g, "n0").macs == 64 * 256 * 56 * 56 == 51_380_224

    def test_gemm_example(self):
        g = _single("Gemm", "w1=2048x1000", in_dims="1x2048")
        assert _macs(g) == 2_048_000

    def test_grouped_conv_divides_channels(self):
        g = _single("Conv", "kernel=3x3;pads=1x1x1x1;group=8;w1=16x2x3x3",
                    in_dims="1x16x8x8")
        assert _macs(g) == 16 * 2 * 3 * 3 * 8 * 8

    def test_non_mac_ops_are_zero(self):
        text = ("graph t\ninput data 1x8x4x4\n"
                "node a Relu inputs=data\n"
                "node b BatchNorm inputs=a attrs=w1=8;w2=8;w3=8;w4=8\n"
                "node c MaxPool inputs=b attrs=kernel=2x2;strides=2x2\n"
                "node d Softmax inputs=c attrs=axis=1")
        g = infer_shapes(parse_text_model(text), 1)
        assert _macs(g) == 0

    def test_mnist_fixture_hand_total(self):
        # conv1 8*1*25*28*28 + conv2 16*8*25*14*14 + fc 256*10
        g = mz.load(mz.mnist_text())
        assert _macs(g) == 156_800 + 627_200 + 2_560 == 786_560

    def test_opaque_zero_macs(self):
        g = _single("MysteryOp", in_dims="1x3x5x5")
        assert g.nodes["n0"].op_type == "Opaque"
        assert _macs(g) == 0


class TestTopoOrder:
    def test_chain(self):
        text = ("graph t\ninput data 1x1\nnode A Relu inputs=data\n"
                "node B Relu inputs=A\nnode C Relu inputs=B")
        assert parse_text_model(text).order == ("A", "B", "C")

    def test_diamond_tie_break_by_id(self):
        text = ("graph t\ninput data 1x1\nnode A Relu inputs=data\n"
                "node C Relu inputs=A\nnode B Relu inputs=A\n"
                "node D Add inputs=B,C")
        assert parse_text_model(text).order == ("A", "B", "C", "D")

    def test_empty_graph(self):
        g = ModelGraph("empty", {}, [("in", (1,))], [])
        validate(g)
        assert g.order == ()

    def test_cycle_names_back_edge(self):
        nodes = {
            "a": LayerNode(id="a", op_type="Relu", input_ids=["b"]),
            "b": LayerNode(id="b", op_type="Relu", input_ids=["a"]),
        }
        g = ModelGraph("cyc", nodes, [("in", (1,))], ["b"])
        with pytest.raises(GraphStructureError, match="cycle"):
            validate(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_respects_edges_and_is_permutation(self, seed):
        graph, _ = mz.random_dag(random.Random(seed))
        order = graph.order
        assert sorted(order) == sorted(graph.nodes)
        position = {nid: i for i, nid in enumerate(order)}
        for node in graph.nodes.values():
            for src in node.input_ids:
                if src in graph.nodes:
                    assert position[src] < position[node.id]


class TestInference:
    def test_idempotent(self):
        g = parse_text_model(mz.resnet_v1_text(18))
        once = infer_shapes(g, 4)
        twice = infer_shapes(once, 4)
        assert fields(once) == fields(twice)

    def test_producer_consumer_shapes_agree(self):
        g = mz.load(mz.resnet_v1_text(18), batch=2)
        inputs = dict(g.graph_inputs)
        for node in g.nodes.values():
            in_dims = mz.layer(g, node.id).in_dims
            assert len(in_dims) == len(node.input_ids)
            for src, dims in zip(node.input_ids, in_dims):
                assert dims == (mz.layer(g, src).out_dims if src in g.nodes else inputs[src])

    def test_batch_scales_leading_dim_and_macs(self):
        base = parse_text_model(mz.resnet_v1_text(18))
        g1 = infer_shapes(base, 1)
        g8 = infer_shapes(base, 8)
        for nid, node in g1.nodes.items():
            assert mz.layer(g8, nid).out_dims[0] == 8 * mz.layer(g1, nid).out_dims[0]
            if node.op_type in ("Conv", "Gemm"):
                assert mz.layer(g8, nid).macs == 8 * mz.layer(g1, nid).macs
        assert _macs(g8) == 8 * _macs(g1)

    def test_rejects_bad_batch(self):
        g = parse_text_model("graph t\ninput data 1x3x4x4\nnode a Relu inputs=data")
        with pytest.raises(ShapeInferenceError):
            infer_shapes(g, 0)


# What the text format reads as a number: ASCII ints, ``x``-joined ints,
# and floats as ``repr`` writes them.
_NUMBER = re.compile(r"-?[0-9]+(x-?[0-9]+)*|-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|-?inf|nan")
_ODD_STRINGS = ("1_0", "+3", "\u0663", "0_1x1", "1x+2", "3.", ".5", "1e", "Infinity", "NaN",
                "-nan", "+inf", "1x", "x1")
_ATTR_VALUES = st.one_of(
    st.integers(-10**12, 10**12),
    st.lists(st.integers(-64, 64), min_size=2, max_size=4).map(tuple),
    st.floats(),
    st.sampled_from(_ODD_STRINGS),
    st.text("0123456789xeE.+-_ab\u0663\u00e9", min_size=1, max_size=8)
    .filter(lambda v: not _NUMBER.fullmatch(v)),
)


def _typed_nodes(graph) -> list:
    """Each node's id, op, typed params in key order, and inputs."""
    return [(n.id, n.op_type, sorted(_typed(n.params)), n.input_ids)
            for n in graph.nodes.values()]


# Ops a random text graph draws: every rule but Opaque's, the aliases, which
# load as their canonical op, and names no rule knows, which load as Opaque.
_TEXT_OPS = (sorted(model_ir.SUPPORTED_OPS) + sorted(model_ir.OP_ALIASES)
             + ["Custom", "LookupOp"])
_INPUT_NAMES = [f"X{i}" for i in range(10)]
# Node ids, attr keys and graph names: a letter, then letters, digits or "_".
_NAMES = st.tuples(st.sampled_from("abcdefghkmnpqrstuvyz"),
                   st.text("abcz019_", max_size=3)).map("".join)


@st.composite
def _text_graphs(draw):
    """A random valid DAG in IR form, its text, and whether its outputs are
    declared. Node ids are drawn, not numbered, so the order's tie rule
    shows; an alias op is spelled as its alias in the text."""
    inputs = draw(st.lists(st.sampled_from(_INPUT_NAMES), min_size=1, max_size=3, unique=True))
    ids = draw(st.lists(_NAMES, min_size=1, max_size=12, unique=True))
    nodes, aliased = {}, []
    for i, nid in enumerate(ids):
        op = draw(st.sampled_from(_TEXT_OPS))
        params = draw(st.dictionaries(_NAMES.filter(lambda k: k != "op"), _ATTR_VALUES,
                                      max_size=3))
        if op in model_ir.OP_ALIASES:
            aliased.append((nid, model_ir.OP_ALIASES[op], op))
            op = model_ir.OP_ALIASES[op]
        elif op not in model_ir.SUPPORTED_OPS:
            params, op = {"op": op, **params}, "Opaque"
        srcs = draw(st.lists(st.sampled_from(inputs + ids[:i]), min_size=1, max_size=3))
        nodes[nid] = LayerNode(nid, op, params, srcs)
    declared = draw(st.booleans())
    outputs = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3)) if declared else []
    dims = draw(st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=4).map(tuple),
                         min_size=len(inputs), max_size=len(inputs)))
    graph = ModelGraph(draw(_NAMES), nodes,
                       list(zip(inputs, dims)), outputs)
    validate(graph)  # the implied outputs when none are declared
    lines = render_text_model(graph).splitlines()
    for nid, canonical, alias in aliased:
        lines = [line.replace(f"node {nid} {canonical} ", f"node {nid} {alias} ")
                 for line in lines]
    if not declared:
        lines = [line for line in lines if not line.startswith("output ")]
    return graph, "\n".join(lines) + "\n"


def _loaded(graph) -> tuple:
    """Everything a load fills, with typed params."""
    return (graph.name, graph.graph_inputs, graph.graph_outputs, graph.order,
            _typed_nodes(graph), [n.output_ids for n in graph.nodes.values()])


def _outcome(reader, text: str):
    """The graph a reader loads from ``text``, or its error and offset."""
    try:
        return _loaded(reader(text))
    except (ModelParseError, GraphStructureError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None)


# Pieces of a line, for corrupting one: directives, tokens, separators and
# whitespace, a comment mark, and dims and names valid lines use.
_LINE_PIECES = ("node", "input", "output", "graph", "inputs=", "attrs=", "Relu", "Add",
                "BatchNormalization", "Custom", "X0", "a", "b", "1x3", "0x2", "x", ",", ";",
                "=", "k=1", "#", " ", "\t", "\u00a0", "3", "-1", "nan")


@st.composite
def _corrupted_texts(draw):
    """A valid text with a few of its lines replaced, cut, swapped, doubled or
    dropped, or pieces spliced into them."""
    _graph, text = draw(_text_graphs())
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("replace", "cut", "swap", "double", "drop", "splice",
                                    "rewire", "comma")))
        if how == "replace":
            lines[i] = "".join(draw(st.lists(st.sampled_from(_LINE_PIECES), max_size=6)))
        elif how == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif how == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif how == "double":
            lines.insert(i, lines[i])
        elif how == "drop" and len(lines) > 1:
            del lines[i]
        elif how == "rewire":  # the later inputs= token wins, and may close a cycle
            ids = [line.split()[1] for line in lines if line.startswith("node ")]
            lines[i] += " inputs=" + ",".join(draw(st.lists(st.sampled_from(ids + ["X0", ""]),
                                                            min_size=1, max_size=3)))
        elif how == "comma":  # an empty name in a node's last inputs= or attrs= list
            lines[i] += ","
        elif how == "splice":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(_LINE_PIECES)) + lines[i][at:]
    return "\n".join(lines)


class TestTextFormat:
    @settings(max_examples=100, deadline=None)
    @given(_text_graphs())
    def test_random_graphs_round_trip(self, drawn):
        """Aliases, Opaque ops, attrs, and declared and implied outputs all
        come back: nodes, order, inputs and outputs."""
        graph, text = drawn
        assert _loaded(parse_text_model(text)) == _loaded(graph)

    @settings(max_examples=200, deadline=None)
    @given(_corrupted_texts())
    def test_every_text_loads_as_the_reference_reader_loads_it(self, text):
        """The same graph, or the same error with the same message and offset."""
        assert _outcome(parse_text_model, text) == _outcome(text_reader_ref.parse_text_model,
                                                            text)

    def test_round_trip(self):
        g = parse_text_model(mz.resnet_v1_text(50))
        again = parse_text_model(render_text_model(g))
        assert fields(again) == fields(g)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.dictionaries(st.from_regex(r"[a-vyz][a-z0-9]{0,3}", fullmatch=True)
                                    .filter(lambda k: k != "op"), _ATTR_VALUES, max_size=4),
                    min_size=1, max_size=4))
    def test_attrs_round_trip(self, attrs):
        """Ints, tuples, ``repr`` floats and strings without delimiters, some
        of which other number parsers would read as numbers, keep their types."""
        nodes = {f"n{i}": LayerNode(f"n{i}", "Opaque", {"op": "Custom", **params},
                                    [f"n{i - 1}" if i else "x"])
                 for i, params in enumerate(attrs)}
        graph = ModelGraph("g", nodes, [("x", (1, 3))], [f"n{len(attrs) - 1}"])
        text = render_text_model(graph)
        again = parse_text_model(text)
        assert _typed_nodes(again) == _typed_nodes(graph)
        assert render_text_model(again) == text

    @pytest.mark.parametrize("dims", ["1_0x3", "+3", "1x\u0663", "1x3.0", "1xx3", "", "1e2"])
    def test_input_dims_take_only_ascii_ints(self, dims):
        with pytest.raises(ModelParseError) as exc:
            parse_text_model(f"graph t\ninput x {dims or '#'}\nnode n Relu inputs=x\n")
        assert exc.value.offset == 2

    def test_an_attr_spelled_otherwise_is_a_string(self):
        g = parse_text_model("graph t\ninput x 1x3\n"
                             "node n Custom inputs=x attrs=k=0_1x1;f=+3;d=\u0663;e=1e5\n")
        assert _typed(g.nodes["n"].params) == _typed(
            {"op": "Custom", "k": "0_1x1", "f": "+3", "d": "\u0663", "e": 1e5})

    def test_bad_line_reports_line_number(self):
        with pytest.raises(ModelParseError) as exc:
            parse_text_model("graph t\ninput data 1x3\nnode broken\n")
        assert exc.value.offset == 3

    @pytest.mark.parametrize("dims", ["1x0x8x8", "1x3x-2x8", "0"])
    def test_input_dim_below_1_reports_line_number(self, dims):
        with pytest.raises(ModelParseError) as exc:
            parse_text_model(f"graph t\n# a comment\ninput x {dims}\nnode n Relu inputs=x\n")
        assert exc.value.offset == 3
        assert str(exc.value).startswith(
            f"bad model line 'input x {dims}': all dims must be positive integers, got (")

    @pytest.mark.parametrize("dims", ["1x0", "0", "1x-3"])
    def test_signature_dim_below_1_is_refused(self, dims):
        with pytest.raises(ModelParseError, match="all dims must be positive integers"):
            dedup.parse_signature(f"Relu|f32|in={dims}|")

    def test_unknown_input_rejected(self):
        with pytest.raises(GraphStructureError, match="unknown input"):
            parse_text_model("graph t\ninput data 1x3\nnode a Relu inputs=ghost")

    def test_duplicate_node_rejected(self):
        with pytest.raises(ModelParseError):
            parse_text_model("graph t\ninput d 1x3\nnode a Relu inputs=d\n"
                             "node a Relu inputs=d")

    def test_unsupported_op_becomes_opaque_with_edges(self):
        text = ("graph t\ninput data 1x3x4x4\nnode a Relu inputs=data\n"
                "node weird CustomThing inputs=a\nnode b Relu inputs=weird")
        g = parse_text_model(text)
        assert g.nodes["weird"].op_type == "Opaque"
        assert g.nodes["weird"].params["op"] == "CustomThing"
        assert g.nodes["weird"].input_ids == ["a"]
        assert g.nodes["b"].input_ids == ["weird"]

    def test_default_outputs_are_sinks(self):
        g = parse_text_model("graph t\ninput d 1x3\nnode a Relu inputs=d\n"
                             "node b Relu inputs=a")
        assert g.graph_outputs == ["b"]

    def test_validate_rejects_inputless_node(self):
        nodes = {"a": LayerNode(id="a", op_type="Relu", input_ids=[])}
        g = ModelGraph("t", nodes, [("in", (1,))], ["a"])
        with pytest.raises(GraphStructureError, match="no inputs"):
            validate(g)


class TestResnetFamily:
    @pytest.mark.parametrize("depth,layers", [(18, 69), (34, 125), (50, 175),
                                              (101, 345), (152, 515)])
    def test_layer_counts_match_published_table(self, depth, layers):
        g = mz.load(mz.resnet_v1_text(depth))
        assert len(g.nodes) == layers

    @pytest.mark.parametrize("depth,giga", [(18, 1.82), (34, 3.67), (50, 3.87),
                                            (101, 7.58), (152, 11.30)])
    def test_mac_totals_match_published_table(self, depth, giga):
        g = mz.load(mz.resnet_v1_text(depth))
        total = _macs(g)
        assert abs(total - giga * 1e9) <= 0.02 * giga * 1e9


# ---------------------------------------------------------------------------
# Interned layers
# ---------------------------------------------------------------------------

def _typed(params: dict) -> list:
    """Params with each value's type, so 1, 1.0 and True compare unequal."""
    def exact(v):
        return (type(v), tuple(map(exact, v)) if isinstance(v, tuple) else repr(v))
    return [(k, exact(v)) for k, v in params.items()]


def _alone(parsed, batch: int) -> dict[str, tuple]:
    """Each node's (op, canonical params, input dims, output dims, MACs), from
    ``infer_layer`` on that node alone; raises where a node cannot be inferred.

    Graph inputs lead with ``batch``, and so does a Reshape's literal target
    that leads with the one leading dim every input declares."""
    dims = {in_name: (batch,) + shape[1:] for in_name, shape in parsed.graph_inputs}
    declared = {shape[0] for _name, shape in parsed.graph_inputs}
    alone = {}
    for nid in parsed.order:
        raw = parsed.nodes[nid]
        in_dims = [dims[src] for src in raw.input_ids]
        params = dict(raw.params)
        shape = params.get("shape")
        if raw.op_type == "Reshape" and isinstance(shape, tuple) and {shape[0]} == declared:
            params["shape"] = (batch, *shape[1:])
        params, dims[nid], n_macs = infer_layer(raw.op_type, params, in_dims, nid)
        alone[nid] = (raw.op_type, _typed(params), tuple(in_dims), dims[nid], n_macs)
    return alone


def _table(graph) -> dict[str, tuple]:
    """Each node's layer record, in the form ``_alone`` gives."""
    records = [(layer.op_type, _typed(layer.params), layer.in_dims, layer.out_dims, layer.macs)
               for layer in graph.layers]
    return {nid: records[index] for nid, index in graph.layer_of.items()}


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("name, text", mz.thirty_model_family(),
                         ids=[name for name, _ in mz.thirty_model_family()])
def test_interned_inference_matches_per_node_inference(name, text, batch):
    """Every node's layer is what ``infer_layer`` gives for that node alone.

    Where a node cannot be inferred, graph inference fails with the same
    message.
    """
    parsed = parse_text_model(text)
    try:
        alone = _alone(parsed, batch)
    except ShapeInferenceError as exc:
        with pytest.raises(ShapeInferenceError) as got:
            infer_shapes(parsed, batch)
        assert str(got.value) == str(exc)
        return
    graph = infer_shapes(parsed, batch)
    assert _table(graph) == alone
    # Two nodes share a layer exactly when their keys (op, type-exact
    # recorded params, input dims) are equal; layers are numbered in order
    # of first use.
    index_of: dict[tuple, int] = {}
    for nid in graph.order:
        raw = parsed.nodes[nid]
        key = (raw.op_type, tuple(_typed(raw.params)), alone[nid][2])
        assert index_of.setdefault(key, len(index_of)) == graph.layer_of[nid]
    assert len(index_of) == len(graph.layers)


@pytest.mark.parametrize("name, text", mz.thirty_model_family(),
                         ids=[name for name, _ in mz.thirty_model_family()])
def test_the_family_scales_with_the_batch(name, text):
    """MACs at batch b are b times those at batch 1, over as many distinct
    signatures; mnist-cnn's literal Reshape target is re-batched."""
    at_one = mz.load(text)
    total = _macs(at_one)
    distinct = {s.canonical_string for s in dedup.layer_signatures(at_one, "f32")}
    for batch in (2, 4, 8):
        graph = mz.load(text, batch=batch)
        assert _macs(graph) == batch * total
        assert len({s.canonical_string
                    for s in dedup.layer_signatures(graph, "f32")}) == len(distinct)


_RESHAPE = "graph r\ninput a {a}\n{b}node n Reshape inputs=a attrs=shape={shape}\n"


@pytest.mark.parametrize("a, b, shape, batch, out", [
    ("2x6", "", "2x3x2", 4, (4, 3, 2)),  # leads with the declared 2
    ("2x6", "", "2x3x2", 2, (2, 3, 2)),  # the declared batch: kept
    ("2x6", "", "0x3x2", 4, (4, 3, 2)),  # 0 copies the input's dim
    ("2x6", "", "-1x3x2", 4, (4, 3, 2)),
    ("3", "", "3", 5, (5,)),  # a bare int target is its leading dim
    ("2x6", "input b 2x1\n", "2x3x2", 4, (4, 3, 2)),  # both inputs declare 2
])
def test_a_literal_reshape_target_follows_the_batch(a, b, shape, batch, out):
    graph = infer_shapes(parse_text_model(_RESHAPE.format(a=a, b=b, shape=shape)), batch)
    assert mz.layer(graph, "n").out_dims == out


@pytest.mark.parametrize("a, b, shape, batch", [
    ("2x6", "", "1x12", 4),  # leads with another dim
    ("2x6", "", "3x4", 4),
    ("2x6", "input b 3x1\n", "2x3x2", 4),  # the inputs declare no one batch
])
def test_any_other_reshape_mismatch_is_refused(a, b, shape, batch):
    with pytest.raises(ShapeInferenceError, match="cannot reshape"):
        infer_shapes(parse_text_model(_RESHAPE.format(a=a, b=b, shape=shape)), batch)


def test_inference_shares_the_loaded_nodes_and_leaves_the_graph_alone():
    loaded = parse_text_model(mz.resnet_v1_text(18))
    loaded_nodes = dict(loaded.nodes)
    before = [(n.op_type, _typed(n.params), list(n.input_ids), list(n.output_ids))
              for n in loaded.nodes.values()]
    inputs = list(loaded.graph_inputs)
    for batch in (1, 8):
        graph = infer_shapes(loaded, batch)
        assert graph.nodes.keys() == loaded_nodes.keys()
        assert all(graph.nodes[nid] is node for nid, node in loaded_nodes.items())
        assert loaded.layers == () and loaded.layer_of == {}
        assert _table(graph) == _alone(loaded, batch)
    assert [(n.op_type, _typed(n.params), n.input_ids, n.output_ids)
            for n in loaded.nodes.values()] == before
    assert loaded.graph_inputs == inputs
