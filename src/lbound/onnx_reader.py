"""Binary ONNX-format model reader.

Decodes the Protocol-Buffers wire format directly for the message subset a
layer-graph needs (graph, nodes, attributes, initializers, value infos).
Weight initializers are recorded by shape only; the sole exception is small
integer tensors feeding shape-metadata inputs (Reshape targets, Squeeze and
Unsqueeze axes), whose values are required for shape inference. A
tensor-valued attribute is likewise recorded by its dims, except on a
Constant node, whose tensor stands in for an initializer. Errors carry the
absolute byte offset at which decoding failed.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

from .errors import ModelParseError
from .model_ir import (
    OP_ALIASES,
    SUPPORTED_OPS,
    LayerNode,
    ModelGraph,
    TensorShape,
    validate,
)

_WIRE_VARINT = 0
_WIRE_64BIT = 1
_WIRE_LEN = 2
_WIRE_32BIT = 5

# onnx TensorProto.DataType of the int64 tensors read as literal values
_DT_INT64 = 7


def _varint(buf: bytes, pos: int, end: int) -> tuple[int, int]:
    result = 0
    shift = 0
    start = pos
    while True:
        if pos >= end:
            raise ModelParseError("truncated varint", offset=start)
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ModelParseError("varint longer than 64 bits", offset=start)


def _signed(v: int) -> int:
    return v - (1 << 64) if v >= (1 << 63) else v


def _fields(buf: bytes, start: int, end: int):
    """Yield (field_number, wire_type, value, offset) for one message span.

    Length-delimited values are (start, end) spans into ``buf``.
    """
    pos = start
    while pos < end:
        tag_offset = pos
        tag, pos = _varint(buf, pos, end)
        field_no = tag >> 3
        wire = tag & 7
        if field_no == 0:
            raise ModelParseError("field number 0", offset=tag_offset)
        if wire == _WIRE_VARINT:
            value, pos = _varint(buf, pos, end)
        elif wire == _WIRE_64BIT:
            if pos + 8 > end:
                raise ModelParseError("truncated 64-bit field", offset=pos)
            value = buf[pos:pos + 8]
            pos += 8
        elif wire == _WIRE_LEN:
            length, pos = _varint(buf, pos, end)
            if pos + length > end:
                raise ModelParseError("length-delimited field overruns buffer", offset=pos)
            value = (pos, pos + length)
            pos += length
        elif wire == _WIRE_32BIT:
            if pos + 4 > end:
                raise ModelParseError("truncated 32-bit field", offset=pos)
            value = buf[pos:pos + 4]
            pos += 4
        else:
            raise ModelParseError(f"unsupported wire type {wire}", offset=tag_offset)
        yield field_no, wire, value, tag_offset


def _span_str(buf: bytes, span: tuple[int, int]) -> str:
    try:
        return buf[span[0]:span[1]].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelParseError("invalid utf-8 string", offset=span[0]) from exc


def _packed_varints(buf: bytes, span: tuple[int, int]) -> list[int]:
    out = []
    pos, end = span
    while pos < end:
        v, pos = _varint(buf, pos, end)
        out.append(_signed(v))
    return out


class _Tensor(NamedTuple):
    dims: tuple[int, ...]
    data_type: int
    values: list[int] | None  # small int64 tensors only


def _shape_param(tensor: _Tensor) -> tuple[int, ...]:
    """How a weight or tensor attribute is recorded: by its dims alone."""
    return tensor.dims or (1,)


def _parse_tensor(buf: bytes, span: tuple[int, int]) -> _Tensor:
    """TensorProto -> its dims, data type and, for a small int64 tensor, its values."""
    dims: list[int] = []
    data_type = 0
    int_values: list[int] = []
    raw: bytes | None = None
    for field_no, wire, value, offset in _fields(buf, *span):
        if field_no == 1:  # dims
            if wire == _WIRE_VARINT:
                dims.append(_signed(value))
            else:
                dims.extend(_packed_varints(buf, value))
        elif field_no == 2 and wire == _WIRE_VARINT:  # data_type
            data_type = value
        elif field_no == 7:  # int64_data
            if wire == _WIRE_VARINT:
                int_values.append(_signed(value))
            else:
                int_values.extend(_packed_varints(buf, value))
        elif field_no == 9 and wire == _WIRE_LEN:  # raw_data
            raw = buf[value[0]:value[1]]
    values = None
    count = math.prod(dims)
    if data_type == _DT_INT64 and count <= 64:
        if int_values:
            values = int_values
        elif raw is not None and len(raw) == 8 * count:
            values = [v[0] for v in struct.iter_unpack("<q", raw)]
    return _Tensor(tuple(dims), data_type, values)


def _parse_value_info(buf: bytes, span: tuple[int, int]):
    """ValueInfoProto -> (name, dims_or_None); symbolic dims read as 1."""
    name = ""
    dims: list[int] | None = None
    for field_no, wire, value, _ in _fields(buf, *span):
        if field_no == 1 and wire == _WIRE_LEN:
            name = _span_str(buf, value)
        elif field_no == 2 and wire == _WIRE_LEN:  # TypeProto
            for f2, w2, v2, _ in _fields(buf, *value):
                if f2 == 1 and w2 == _WIRE_LEN:  # tensor_type
                    for f3, w3, v3, _ in _fields(buf, *v2):
                        if f3 == 2 and w3 == _WIRE_LEN:  # shape
                            dims = []
                            for f4, w4, v4, _ in _fields(buf, *v3):
                                if f4 == 1 and w4 == _WIRE_LEN:  # dim
                                    dim_val = None
                                    for f5, w5, v5, _ in _fields(buf, *v4):
                                        if f5 == 1 and w5 == _WIRE_VARINT:
                                            dim_val = _signed(v5)
                                    dims.append(dim_val if dim_val and dim_val > 0 else 1)
    return name, tuple(dims) if dims is not None else None


def _parse_attribute(buf: bytes, span: tuple[int, int]):
    """AttributeProto -> (name, python value)."""
    name = ""
    f_val = None
    i_val = None
    s_val = None
    t_val = None
    floats: list[float] = []
    ints: list[int] = []
    for field_no, wire, value, _ in _fields(buf, *span):
        if field_no == 1 and wire == _WIRE_LEN:
            name = _span_str(buf, value)
        elif field_no == 2 and wire == _WIRE_32BIT:
            f_val = struct.unpack("<f", value)[0]
        elif field_no == 3 and wire == _WIRE_VARINT:
            i_val = _signed(value)
        elif field_no == 4 and wire == _WIRE_LEN:
            s_val = _span_str(buf, value)
        elif field_no == 5 and wire == _WIRE_LEN:
            t_val = _parse_tensor(buf, value)
        elif field_no == 7:  # floats
            if wire == _WIRE_32BIT:
                floats.append(struct.unpack("<f", value)[0])
            else:
                pos, end = value
                while pos + 4 <= end:
                    floats.append(struct.unpack_from("<f", buf, pos)[0])
                    pos += 4
        elif field_no == 8:  # ints
            if wire == _WIRE_VARINT:
                ints.append(_signed(value))
            else:
                ints.extend(_packed_varints(buf, value))
    if ints:
        return name, tuple(ints)
    if floats:
        return name, tuple(floats)
    if i_val is not None:
        return name, i_val
    if f_val is not None:
        return name, f_val
    if s_val is not None:
        return name, s_val
    if t_val is not None:
        return name, t_val
    return name, None


def _parse_node(buf: bytes, span: tuple[int, int]):
    inputs: list[str] = []
    outputs: list[str] = []
    name = ""
    op_type = ""
    attrs: dict = {}
    for field_no, wire, value, _ in _fields(buf, *span):
        if wire != _WIRE_LEN:
            continue
        if field_no == 1:
            inputs.append(_span_str(buf, value))
        elif field_no == 2:
            outputs.append(_span_str(buf, value))
        elif field_no == 3:
            name = _span_str(buf, value)
        elif field_no == 4:
            op_type = _span_str(buf, value)
        elif field_no == 5:
            k, v = _parse_attribute(buf, value)
            attrs[k] = v
        elif field_no == 7:
            attrs["domain"] = _span_str(buf, value)
    return name, op_type, inputs, outputs, attrs


# ONNX attribute name -> canonical param key
_ATTR_RENAMES = {"kernel_shape": "kernel"}
# Attributes irrelevant to inference-time identity.
_ATTR_DROP = {"doc_string"}


def _convert_attrs(op_type: str, attrs: dict) -> dict:
    params: dict = {}
    for key, value in attrs.items():
        if key in _ATTR_DROP or value is None:
            continue
        key = _ATTR_RENAMES.get(key, key)
        params[key] = _shape_param(value) if isinstance(value, _Tensor) else value
    # An empty domain is dropped, except on Opaque layers, which keep it for diagnostics.
    if op_type != "Opaque" and "domain" in params and not params["domain"]:
        del params["domain"]
    return params


def load_model(data: bytes, name: str = "model") -> ModelGraph:
    """Decode ONNX-format bytes into a :class:`ModelGraph`."""
    if not data:
        raise ModelParseError("empty model file", offset=0)
    graph_span = None
    for field_no, wire, value, _ in _fields(data, 0, len(data)):
        if field_no == 7 and wire == _WIRE_LEN:  # ModelProto.graph
            graph_span = value
    if graph_span is None:
        raise ModelParseError("no graph message found in model", offset=len(data))

    initializers: dict[str, _Tensor] = {}
    raw_nodes = []
    inputs_vi = []
    outputs_vi = []
    graph_name = name
    for field_no, wire, value, offset in _fields(data, *graph_span):
        if wire != _WIRE_LEN:
            continue
        if field_no == 1:
            raw_nodes.append(_parse_node(data, value))
        elif field_no == 2:
            graph_name = _span_str(data, value) or name
        elif field_no == 5:
            tname = _tensor_name(data, value)
            if tname:
                initializers[tname] = _parse_tensor(data, value)
        elif field_no == 11:
            inputs_vi.append(_parse_value_info(data, value))
        elif field_no == 12:
            outputs_vi.append(_parse_value_info(data, value))

    # Constant nodes act as initializers: record their value tensor and drop
    # the node, so only declared graph inputs lack producers.
    constants: dict[str, _Tensor] = {}
    node_protos = []
    for nname, op, n_in, n_out, attrs in raw_nodes:
        if op == "Constant" and n_out:
            t = attrs.get("value")
            constants[n_out[0]] = t if isinstance(t, _Tensor) else _Tensor((1,), 0, None)
            continue
        node_protos.append((nname, op, n_in, n_out, attrs))

    # Assign unique node ids.
    used_ids: set[str] = set()
    ids: list[str] = []
    for idx, (nname, op, _n_in, _n_out, _attrs) in enumerate(node_protos):
        nid = nname or f"{op}_{idx}"
        while nid in used_ids:
            nid += "_"
        used_ids.add(nid)
        ids.append(nid)

    producer: dict[str, str] = {}
    for nid, (_n, _op, _in, n_out, _a) in zip(ids, node_protos):
        for tname in n_out:
            producer[tname] = nid

    graph_inputs: list[tuple[str, TensorShape]] = []
    for tname, dims in inputs_vi:
        if tname in initializers or tname in producer:
            continue
        graph_inputs.append((tname, TensorShape(dims if dims else (1,))))
    input_names = {n for n, _ in graph_inputs}

    nodes: dict[str, LayerNode] = {}
    for nid, (nname, onnx_op, n_in, _n_out, attrs) in zip(ids, node_protos):
        op = OP_ALIASES.get(onnx_op, onnx_op)
        if op not in SUPPORTED_OPS:
            params = _convert_attrs("Opaque", attrs)
            params["op"] = onnx_op
            op = "Opaque"
        else:
            params = _convert_attrs(op, attrs)
        input_ids: list[str] = []
        for slot, tname in enumerate(n_in):
            if not tname:
                continue
            init = initializers.get(tname) or constants.get(tname)
            if init is not None:
                if op == "Reshape" and slot == 1:
                    if init.values is not None:
                        params["shape"] = tuple(init.values)
                elif op in ("Unsqueeze", "Squeeze") and slot == 1:
                    if init.values is not None:
                        params["axes"] = tuple(init.values)
                else:
                    params[f"w{slot}"] = _shape_param(init)
            elif tname in producer:
                input_ids.append(producer[tname])
            elif tname in input_names:
                input_ids.append(tname)
            else:
                raise ModelParseError(
                    f"node {nid!r} consumes unknown tensor {tname!r}", offset=graph_span[0]
                )
        nodes[nid] = LayerNode(id=nid, op_type=op, params=params, input_ids=input_ids)

    graph_outputs = [producer[t] for t, _ in outputs_vi if t in producer]
    graph = ModelGraph(graph_name, nodes, graph_inputs, graph_outputs)
    validate(graph)
    return graph


def _tensor_name(buf: bytes, span: tuple[int, int]) -> str:
    for field_no, wire, value, _ in _fields(buf, *span):
        if field_no == 8 and wire == _WIRE_LEN:  # TensorProto.name
            return _span_str(buf, value)
    return ""
