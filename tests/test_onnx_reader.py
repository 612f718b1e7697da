from __future__ import annotations

import os
import struct

import pytest

import modelzoo as mz
from cli_run import invoke
import onnx_wire as wire
from lbound import dedup
from lbound.errors import GraphStructureError, ModelParseError
from lbound.model_ir import infer_shapes, load_model_file, parse_text_model
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
        assert g.graph_inputs == [("data", (1, 3, 8, 8))]
        assert g.graph_outputs == ["relu1"]

    def test_shapes_infer_after_load(self):
        g = infer_shapes(load_model(wire.conv_relu_model()), 1)
        assert mz.layer(g, "conv1").out_dims == (1, 4, 8, 8)
        assert sum(mz.layer(g, nid).macs for nid in g.nodes) == 4 * 3 * 3 * 3 * 8 * 8

    def test_signature_matches_text_route(self):
        # The same layer loaded from binary and text must canonicalize
        # identically.
        onnx_graph = infer_shapes(load_model(wire.conv_relu_model()), 1)
        text = ("graph t\ninput data 1x3x8x8\n"
                "node c Conv inputs=data "
                "attrs=kernel=3x3;strides=1x1;pads=1x1x1x1;w1=4x3x3x3;w2=4\n"
                "node r Relu inputs=c")
        text_graph = infer_shapes(parse_text_model(text), 1)
        sig_a = dedup.signature(mz.layer(onnx_graph, "conv1"), "f32")
        sig_b = dedup.signature(mz.layer(text_graph, "c"), "f32")
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
        assert dedup.signature(mz.layer(g1, "c"), "f32") \
            == dedup.signature(mz.layer(g2, "c"), "f32")

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
            res = invoke(args + [str(path)])
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
        assert mz.layer(inferred, "rs").out_dims == (1, 48)

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
        layer = mz.layer(loaded, "bn")
        assert loaded.nodes["bn"].op_type == layer.op_type == "BatchNorm"
        assert layer.params["epsilon"] == pytest.approx(2e-5)
        assert "momentum" not in layer.params  # irrelevant at inference
        assert layer.params["w1"] == (3,)

    def test_symbolic_batch_dim_reads_as_one(self):
        # dim_param (symbolic) dims encode as empty Dimension messages here
        dim_msgs = wire.fs(1, wire.fs(2, "N")) + b"".join(
            wire.fs(1, wire.fv(1, d)) for d in (3, 4, 4))
        tensor_type = wire.fs(1, wire.fv(1, 1) + wire.fs(2, dim_msgs))
        vi = wire.fs(1, "data") + wire.fs(2, tensor_type)
        relu = wire.node("Relu", ["data"], ["out"], name="r")
        g = wire.graph([relu], [vi], [wire.value_info("out", (1, 3, 4, 4))])
        loaded = load_model(wire.model(g))
        assert loaded.graph_inputs[0][1] == (1, 3, 4, 4)
        assert mz.layer(infer_shapes(loaded, 8), "r").out_dims == (8, 3, 4, 4)


def _load_graph(nodes, initializers=(), data=(1, 3, 4, 4)):
    """``nodes`` read from tensor ``data`` and write tensor ``out``."""
    g = wire.graph(nodes, [wire.value_info("data", data)],
                   [wire.value_info("out", data)], initializers)
    return load_model(wire.model(g))


def _const(output: str, values) -> bytes:
    t = wire.tensor("c", (len(values),), data_type=7, int64_values=values)
    return wire.node("Constant", [], [output],
                     attrs=wire.attrs(wire.attr_tensor("value", t)))


class TestNodeIds:
    """How the reader names nodes and wires their edges."""

    def test_unnamed_nodes_count_only_non_constant_nodes(self):
        loaded = _load_graph([
            wire.node("Relu", ["data"], ["a"]),
            _const("shape", [1, 48]),
            wire.node("Reshape", ["a", "shape"], ["b"]),
            wire.node("Sigmoid", ["b"], ["out"]),
        ])
        assert list(loaded.nodes) == ["Relu_0", "Reshape_1", "Sigmoid_2"]
        assert loaded.nodes["Reshape_1"].input_ids == ["Relu_0"]
        assert loaded.nodes["Reshape_1"].params["shape"] == (1, 48)
        assert loaded.graph_outputs == ["Sigmoid_2"]

    def test_a_constant_between_named_nodes_shifts_no_id(self):
        with_const = _load_graph([
            wire.node("Relu", ["data"], ["a"]),
            _const("k", [1]),
            wire.node("Relu", ["a"], ["b"], name="n"),
            wire.node("Relu", ["b"], ["out"]),
        ])
        assert list(with_const.nodes) == ["Relu_0", "n", "Relu_2"]

    def test_duplicate_names_get_underscore_suffixes(self):
        loaded = _load_graph([
            wire.node("Relu", ["data"], ["a"], name="x"),
            wire.node("Relu", ["a"], ["b"], name="x"),
            wire.node("Relu", ["b"], ["c"], name="x_"),
            wire.node("Relu", ["c"], ["out"], name="Relu_3"),
        ])
        assert list(loaded.nodes) == ["x", "x_", "x__", "Relu_3"]
        assert [loaded.nodes[n].input_ids for n in loaded.nodes] \
            == [["data"], ["x"], ["x_"], ["x__"]]

    def test_an_unnamed_id_steps_past_a_taken_name(self):
        loaded = _load_graph([
            wire.node("Relu", ["data"], ["a"], name="Relu_1"),
            wire.node("Relu", ["a"], ["out"]),
        ])
        assert list(loaded.nodes) == ["Relu_1", "Relu_1_"]

    def test_the_later_of_two_producers_wins(self):
        loaded = _load_graph([
            wire.node("Relu", ["data"], ["t"], name="first"),
            wire.node("Sigmoid", ["data"], ["t"], name="second"),
            wire.node("Tanh", ["t"], ["out"], name="user"),
        ])
        assert loaded.nodes["user"].input_ids == ["second"]
        assert loaded.nodes["first"].output_ids == []

    @pytest.mark.parametrize("outputs", [[], [wire.value_info("nowhere", (1, 3, 4, 4))]])
    def test_without_a_produced_output_the_unconsumed_nodes_are_outputs(self, outputs):
        nodes = [
            wire.node("Relu", ["data"], ["a"], name="r"),
            wire.node("Sigmoid", ["a"], ["b"], name="s"),
            wire.node("Tanh", ["a"], ["c"], name="t"),
        ]
        g = wire.graph(nodes, [wire.value_info("data", (1, 3, 4, 4))], outputs)
        assert load_model(wire.model(g)).graph_outputs == ["s", "t"]

    def test_a_producer_later_in_the_file_feeds_an_earlier_node(self):
        loaded = _load_graph([
            wire.node("Tanh", ["t"], ["out"], name="user"),
            wire.node("Relu", ["data"], ["t"], name="maker"),
        ])
        assert loaded.nodes["user"].input_ids == ["maker"]
        assert loaded.order == ("maker", "user")

    @pytest.mark.parametrize("op, axes, data, out", [
        ("Squeeze", [1], (2, 1, 3), (2, 3)),
        ("Unsqueeze", [0, 3], (2, 3), (1, 2, 3, 1)),
    ])
    @pytest.mark.parametrize("raw", [False, True])
    def test_squeeze_axes_come_from_an_int64_initializer(self, op, axes, data, out, raw):
        init = wire.tensor("axes", (len(axes),), data_type=7, int64_values=axes,
                           raw_int64=raw)
        loaded = _load_graph([wire.node(op, ["data", "axes"], ["out"], name="s")],
                             [init], data)
        assert loaded.nodes["s"].params == {"axes": tuple(axes)}
        assert loaded.nodes["s"].input_ids == ["data"]
        assert mz.layer(infer_shapes(loaded, data[0]), "s").out_dims == out

    def test_an_initializer_named_like_a_graph_input_is_no_input(self):
        init = wire.tensor("W", (4, 3, 3, 3))
        conv = wire.node("Conv", ["data", "W"], ["out"], name="c",
                         attrs=wire.attrs(wire.attr_ints("kernel_shape", (3, 3))))
        g = wire.graph([conv], [wire.value_info("data", (1, 3, 8, 8)),
                                wire.value_info("W", (4, 3, 3, 3))],
                       [wire.value_info("out", (1, 4, 6, 6))], [init])
        loaded = load_model(wire.model(g))
        assert loaded.graph_inputs == [("data", (1, 3, 8, 8))]
        assert loaded.nodes["c"].params["w1"] == (4, 3, 3, 3)

    def test_an_unnamed_initializer_is_no_weight(self):
        with pytest.raises(ModelParseError, match="node 'r' consumes unknown tensor 'W'"):
            _load_graph([wire.node("Relu", ["data", "W"], ["out"], name="r")],
                        [wire.tensor("", (3,))])

    def test_an_attribute_tensor_name_is_never_decoded(self):
        bad_name = wire.tensor("t", (3, 5)).replace(wire.fs(8, "t"), wire.fs(8, b"\xff"))
        custom = wire.node("LookupOp", ["data"], ["out"], name="x",
                           attrs=wire.attrs(wire.attr_tensor("table", bad_name)))
        assert _load_graph([custom]).nodes["x"].params["table"] == (3, 5)


class TestWireErrors:
    def test_unknown_input_tensor_names_the_graph_offset(self):
        g = wire.graph([wire.node("Relu", ["data"], ["a"], name="r"),
                        wire.node("Relu", ["nowhere"], ["out"])],
                       [wire.value_info("data", (1, 3))], [wire.value_info("out", (1, 3))])
        data = wire.model(g)
        with pytest.raises(ModelParseError) as exc:
            load_model(data)
        assert str(exc.value).startswith("node 'Relu_1' consumes unknown tensor 'nowhere'")
        assert exc.value.offset == data.index(g)

    def test_an_initializer_name_that_is_not_utf8_reports_its_offset(self):
        bad = wire.tensor("W", (3,)).replace(wire.fs(8, "W"), wire.fs(8, b"\xff"))
        g = wire.graph([wire.node("Relu", ["data"], ["out"], name="r")],
                       [wire.value_info("data", (1, 3))], [wire.value_info("out", (1, 3))],
                       [bad])
        data = wire.model(g)
        with pytest.raises(ModelParseError, match="invalid utf-8") as exc:
            load_model(data)
        assert exc.value.offset == data.index(b"\xff")

    def test_empty_file(self):
        with pytest.raises(ModelParseError):
            load_model(b"")

    @pytest.mark.parametrize("where, field, width", [
        ("tensor", 1, 4), ("tensor", 1, 8),  # dims
        ("tensor", 7, 4), ("tensor", 7, 8),  # int64_data
        ("attribute", 8, 4), ("attribute", 8, 8),  # ints
        ("attribute", 7, 8),  # floats: a 32-bit occurrence is one float
    ])
    def test_a_fixed_width_repeated_field_reports_its_offset(self, where, field, width):
        """dims, int64_data and ints are varints; floats are 32-bit or packed."""
        bad = wire.fixed(field, b"\xab\xcd\xef\x01\x23\x45\x67\x89"[:width])
        if where == "tensor":
            w = bad + wire.fv(2, 7) + wire.fs(8, "W")
            nodes, inits = [wire.node("Add", ["data", "W"], ["out"], name="a")], [w]
        else:
            attr = wire.fs(1, "k") + bad
            nodes = [wire.node("Custom", ["data"], ["out"], name="c", attrs=wire.attrs(attr))]
            inits = []
        g = wire.graph(nodes, [wire.value_info("data", (1, 3))],
                       [wire.value_info("out", (1, 3))], inits)
        data = wire.model(g)
        with pytest.raises(ModelParseError, match="wire type") as exc:
            load_model(data)
        assert exc.value.offset == data.index(bad) + 1  # the value, past its one-byte tag

    def test_packed_floats_must_be_whole_floats(self):
        packed = struct.pack("<2f", 1.0, 2.5)
        ok = wire.fs(1, "scales") + wire.fs(7, packed) + wire.fixed(7, struct.pack("<f", 4.0))
        got = _load_graph([wire.node("Custom", ["data"], ["out"], name="c",
                                     attrs=wire.attrs(ok))]).nodes["c"].params
        assert got["scales"] == (1.0, 2.5, 4.0)
        tail = wire.fs(7, packed + b"\x01\x02")
        g = wire.graph([wire.node("Custom", ["data"], ["out"], name="c",
                                  attrs=wire.attrs(wire.fs(1, "scales") + tail))],
                       [wire.value_info("data", (1, 3))], [wire.value_info("out", (1, 3))])
        data = wire.model(g)
        with pytest.raises(ModelParseError, match="not 4-byte floats") as exc:
            load_model(data)
        assert exc.value.offset == data.index(tail) + 2  # past the tag and the length

    def test_a_varint_floats_field_reports_its_attribute(self):
        attr = wire.fs(1, "scales") + wire.fv(7, 5)
        g = wire.graph([wire.node("Custom", ["data"], ["out"], name="c",
                                  attrs=wire.attrs(attr))],
                       [wire.value_info("data", (1, 3))], [wire.value_info("out", (1, 3))])
        data = wire.model(g)
        with pytest.raises(ModelParseError, match="float field has wire type 0") as exc:
            load_model(data)
        assert exc.value.offset == data.index(attr)

    @pytest.mark.parametrize("field, bad", [
        (3, wire.fs(3, b"\x02")),  # i, length-delimited
        (3, wire.fixed(3, struct.pack("<i", 2))),  # i, 32-bit
        (2, wire.fv(2, 2)),  # f, varint
        (2, wire.fs(2, struct.pack("<f", 2.0))),  # f, length-delimited
        (4, wire.fv(4, 2)),  # s, varint
        (5, wire.fv(5, 2)),  # t, varint
        (1, wire.fv(1, 2)),  # a second name, varint
    ])
    def test_a_single_value_of_the_wrong_wire_type_reports_its_offset(self, field, bad):
        """Read as absent, the value would leave the layer its default, say group=1."""
        attr = wire.fs(1, "group") + bad
        g = wire.graph([wire.node("Custom", ["data"], ["out"], name="c",
                                  attrs=wire.attrs(attr))],
                       [wire.value_info("data", (1, 3))], [wire.value_info("out", (1, 3))])
        data = wire.model(g)
        with pytest.raises(ModelParseError, match=f"attribute field {field} has wire type") \
                as exc:
            load_model(data)
        at, wire_type = data.index(attr), bad[0] & 7
        value = at + len(attr) - len(bad) + 1 + (wire_type == 2)  # past the tag and a length
        assert exc.value.offset == (at if wire_type == 0 else value)

    def test_a_conv_group_sent_length_delimited_exits_2(self, tmp_path):
        conv = wire.node("Conv", ["data", "W"], ["out"], name="c", attrs=wire.attrs(
            wire.attr_ints("kernel_shape", (1, 1)), wire.fs(1, "group") + wire.fs(3, b"\x02")))
        g = wire.graph([conv], [wire.value_info("data", (1, 4, 3, 3))],
                       [wire.value_info("out", (1, 4, 3, 3))], [wire.tensor("W", (4, 2, 1, 1))])
        path = tmp_path / "group.onnx"
        path.write_bytes(wire.model(g))
        res = invoke(["process", str(path)])
        assert res.exit_code == 2, res.output
        assert "attribute field 3 has wire type 2" in res.output

    def test_a_fixed_width_dims_field_exits_2(self, tmp_path):
        w = wire.fixed(1, struct.pack("<i", 3)) + wire.fv(2, 1) + wire.fs(8, "W")
        g = wire.graph([wire.node("Add", ["data", "W"], ["out"], name="a")],
                       [wire.value_info("data", (1, 3))], [wire.value_info("out", (1, 3))], [w])
        path = tmp_path / "fixed.onnx"
        path.write_bytes(wire.model(g))
        res = invoke(["process", str(path)])
        assert res.exit_code == 2, res.output
        assert "wire type 5" in res.output

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
