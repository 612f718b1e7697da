from __future__ import annotations

import os
import struct

import pytest
from click.testing import CliRunner

import onnx_wire as wire
from lbound import dedup
from lbound.cli import main
from lbound.errors import GraphStructureError, ModelParseError
from lbound.model_ir import TensorShape, infer_shapes, load_model_file, macs, parse_text_model
from lbound.onnx_reader import load_model


class TestWireDecoding:
    def test_conv_relu_structure(self):
        g = load_model(wire.conv_relu_model())
        assert g.name == "convrelu"
        assert len(g.nodes) == 2
        conv = g.nodes["conv1"]
        assert conv.op_type == "Conv"
        assert conv.input_ids == ["data"]
        assert conv.params["w1"] == (4, 3, 3, 3)
        assert conv.params["w2"] == (4,)
        assert conv.params["kernel"] == (3, 3)
        relu = g.nodes["relu1"]
        assert relu.input_ids == ["conv1"]
        assert g.graph_inputs == [("data", TensorShape((1, 3, 8, 8)))]
        assert g.graph_outputs == ["relu1"]

    def test_shapes_infer_after_load(self):
        g = infer_shapes(load_model(wire.conv_relu_model()), 1)
        assert g.nodes["conv1"].out_shapes[0].dims == (1, 4, 8, 8)
        assert macs(g)[1] == 4 * 3 * 3 * 3 * 8 * 8

    def test_signature_matches_text_route(self):
        # The same layer loaded from binary and text must canonicalize
        # identically.
        onnx_graph = infer_shapes(load_model(wire.conv_relu_model()), 1)
        text = ("graph t\ninput data 1x3x8x8\n"
                "node c Conv inputs=data "
                "attrs=kernel=3x3;strides=1x1;pads=1x1x1x1;w1=4x3x3x3;w2=4\n"
                "node r Relu inputs=c")
        text_graph = infer_shapes(parse_text_model(text), 1)
        sig_a = dedup.signature(onnx_graph.nodes["conv1"], "f32")
        sig_b = dedup.signature(text_graph.nodes["c"], "f32")
        assert sig_a.canonical_string == sig_b.canonical_string

    def test_weight_values_do_not_change_identity(self):
        def build(fill):
            w = wire.tensor("W", (4, 3, 3, 3))
            w += wire.fs(9, struct.pack("<9f", *([fill] * 9)))  # raw_data
            conv = wire.node("Conv", ["data", "W"], ["y"], name="c",
                             attrs=wire.attrs(wire.attr_ints("kernel_shape", (3, 3))))
            g = wire.graph([conv], [wire.value_info("data", (1, 3, 8, 8))],
                           [wire.value_info("y", (1, 4, 6, 6))], [w])
            return wire.model(g)

        g1 = infer_shapes(load_model(build(1.0)), 1)
        g2 = infer_shapes(load_model(build(2.0)), 1)
        assert dedup.signature(g1.nodes["c"], "f32") == dedup.signature(g2.nodes["c"], "f32")

    def test_unsupported_op_becomes_opaque_edges_intact(self):
        custom = wire.node("FancyCustomOp", ["data"], ["mid"], name="x")
        relu = wire.node("Relu", ["mid"], ["out"], name="r")
        g = wire.graph([custom, relu], [wire.value_info("data", (1, 3, 4, 4))],
                       [wire.value_info("out", (1, 3, 4, 4))])
        loaded = load_model(wire.model(g))
        assert loaded.nodes["x"].op_type == "Opaque"
        assert loaded.nodes["x"].params["op"] == "FancyCustomOp"
        assert loaded.nodes["r"].input_ids == ["x"]

    def test_tensor_attribute_recorded_by_dims(self, tmp_path):
        table = wire.tensor("table", (3, 5), data_type=1)
        custom = wire.node("LookupOp", ["data"], ["mid"], name="x",
                           attrs=wire.attrs(wire.attr_tensor("table", table)))
        relu = wire.node("Relu", ["mid"], ["out"], name="r")
        g = wire.graph([custom, relu], [wire.value_info("data", (1, 3, 4, 4))],
                       [wire.value_info("out", (1, 3, 4, 4))])
        path = tmp_path / "m.onnx"
        path.write_bytes(wire.model(g))
        assert load_model_file(path).nodes["x"].params["table"] == (3, 5)
        for args in (["process", "--format", "jsonl"], ["bench", "--manifest",
                                                        str(tmp_path / "man.jsonl")]):
            res = CliRunner().invoke(main, args + [str(path)])
            assert res.exit_code == 0, res.output

    def test_constant_feeds_reshape(self):
        shape_t = wire.tensor("shape_val", (2,), data_type=7, int64_values=[1, -1])
        const = wire.node("Constant", [], ["shape_out"], name="k",
                          attrs=wire.attrs(wire.fs(1, "value") + wire.fs(5, shape_t)
                                           + wire.fv(20, 4)))
        reshape = wire.node("Reshape", ["data", "shape_out"], ["out"], name="rs")
        g = wire.graph([const, reshape], [wire.value_info("data", (1, 3, 4, 4))],
                       [wire.value_info("out", (1, 48))])
        loaded = load_model(wire.model(g))
        # the Constant node dissolves into the consumer's params
        assert set(loaded.nodes) == {"rs"}
        assert loaded.nodes["rs"].params["shape"] == (1, -1)
        inferred = infer_shapes(loaded, 1)
        assert inferred.nodes["rs"].out_shapes[0].dims == (1, 48)

    def test_initializer_reshape_raw_data(self):
        shape_t = wire.tensor("s", (2,), data_type=7, int64_values=[1, 48],
                              raw_int64=True)
        reshape = wire.node("Reshape", ["data", "s"], ["out"], name="rs")
        g = wire.graph([reshape], [wire.value_info("data", (1, 3, 4, 4))],
                       [wire.value_info("out", (1, 48))], [shape_t])
        loaded = load_model(wire.model(g))
        assert loaded.nodes["rs"].params["shape"] == (1, 48)

    def test_batchnorm_alias_and_epsilon(self):
        bn = wire.node("BatchNormalization", ["data", "g", "b", "m", "v"], ["out"],
                       name="bn", attrs=wire.attrs(wire.attr_float("epsilon", 2e-5),
                                                   wire.attr_float("momentum", 0.9)))
        inits = [wire.tensor(n, (3,)) for n in ("g", "b", "m", "v")]
        g = wire.graph([bn], [wire.value_info("data", (1, 3, 4, 4))],
                       [wire.value_info("out", (1, 3, 4, 4))], inits)
        loaded = infer_shapes(load_model(wire.model(g)), 1)
        node = loaded.nodes["bn"]
        assert node.op_type == "BatchNorm"
        assert node.params["epsilon"] == pytest.approx(2e-5)
        assert "momentum" not in node.params  # irrelevant at inference
        assert node.params["w1"] == (3,)

    def test_symbolic_batch_dim_reads_as_one(self):
        # dim_param (symbolic) dims encode as empty Dimension messages here
        dim_msgs = wire.fs(1, wire.fs(2, "N")) + b"".join(
            wire.fs(1, wire.fv(1, d)) for d in (3, 4, 4))
        tensor_type = wire.fs(1, wire.fv(1, 1) + wire.fs(2, dim_msgs))
        vi = wire.fs(1, "data") + wire.fs(2, tensor_type)
        relu = wire.node("Relu", ["data"], ["out"], name="r")
        g = wire.graph([relu], [vi], [wire.value_info("out", (1, 3, 4, 4))])
        loaded = load_model(wire.model(g))
        assert loaded.graph_inputs[0][1].dims == (1, 3, 4, 4)
        assert infer_shapes(loaded, 8).nodes["r"].out_shapes[0].dims == (8, 3, 4, 4)


class TestWireErrors:
    def test_empty_file(self):
        with pytest.raises(ModelParseError):
            load_model(b"")

    def test_truncated_model_reports_offset(self):
        data = wire.conv_relu_model()
        with pytest.raises(ModelParseError) as exc:
            load_model(data[:-7])
        assert exc.value.offset is not None
        assert "offset" in str(exc.value)

    def test_garbage_bytes(self):
        with pytest.raises(ModelParseError):
            load_model(b"\xff\xff\xff\xff\xff\xff")

    def test_no_graph_message(self):
        with pytest.raises(ModelParseError, match="no graph"):
            load_model(wire.fv(1, 8))

    def test_cycle_reports_back_edge(self):
        a = wire.node("Relu", ["data", "b_out"], ["a_out"], name="a")
        b = wire.node("Relu", ["a_out"], ["b_out"], name="b")
        g = wire.graph([a, b], [wire.value_info("data", (1, 3))],
                       [wire.value_info("b_out", (1, 3))])
        with pytest.raises(GraphStructureError, match="cycle"):
            load_model(wire.model(g))


class TestFileSniffing:
    def test_load_model_file_binary_and_text(self, tmp_path):
        onnx_path = tmp_path / "m.onnx"
        onnx_path.write_bytes(wire.conv_relu_model())
        text_path = tmp_path / "m.txt"
        text_path.write_text("graph t\ninput d 1x3x4x4\nnode a Relu inputs=d\n")
        assert load_model_file(onnx_path).name == "convrelu"
        assert load_model_file(text_path).nodes["a"].op_type == "Relu"


ZOO_DIR = os.environ.get("LBOUND_ONNX_ZOO", "")


@pytest.mark.skipif(not (ZOO_DIR and os.path.exists(os.path.join(ZOO_DIR, "resnet50-v1.onnx"))),
                    reason="published model files not available (set LBOUND_ONNX_ZOO)")
class TestPublishedModels:
    def test_resnet50_v1_layer_count(self):
        with open(os.path.join(ZOO_DIR, "resnet50-v1.onnx"), "rb") as fh:
            g = load_model(fh.read())
        assert len(g.nodes) == 175
