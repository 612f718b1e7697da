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
    """Yield (field_number, wire_type, value) for one message span.

    A varint value is its integer; every other value, a length-delimited
    one or a fixed-width 32- or 64-bit one, is its (start, end) span in ``buf``.
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
            value = (pos, pos + 8)
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
            value = (pos, pos + 4)
            pos += 4
        else:
            raise ModelParseError(f"unsupported wire type {wire}", offset=tag_offset)
        yield field_no, wire, value


def _span_str(buf: bytes, span: tuple[int, int]) -> str:
    try:
        return buf[span[0]:span[1]].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelParseError("invalid utf-8 string", offset=span[0]) from exc


def _int64s(buf: bytes, wire: int, value) -> list[int]:
    """One occurrence of a repeated int64 field: a varint, or a packed run of
    them. A fixed-width occurrence raises at its value's offset."""
    if wire == _WIRE_VARINT:
        return [_signed(value)]
    pos, end = value
    if wire != _WIRE_LEN:
        raise ModelParseError(f"repeated int64 field has fixed-width wire type {wire}",
                              offset=pos)
    out = []
    while pos < end:
        v, pos = _varint(buf, pos, end)
        out.append(_signed(v))
    return out


def _floats(buf: bytes, wire: int, value, at: int) -> tuple[float, ...]:
    """One occurrence of a repeated float field: a 32-bit value, or a packed
    run of them. Any other wire type, or a run that is not a whole number
    of floats, raises at its value's offset (at ``at`` for a varint)."""
    if wire not in (_WIRE_32BIT, _WIRE_LEN):
        raise ModelParseError(f"repeated float field has wire type {wire}",
                              offset=at if wire == _WIRE_VARINT else value[0])
    pos, end = value
    if (end - pos) % 4:
        raise ModelParseError(f"packed floats of {end - pos} bytes are not 4-byte floats",
                              offset=pos)
    return struct.unpack_from(f"<{(end - pos) // 4}f", buf, pos)


class _Tensor(NamedTuple):
    dims: tuple[int, ...]
    values: list[int] | None  # small int64 tensors only


def _shape_param(tensor: _Tensor) -> tuple[int, ...]:
    """How a weight or tensor attribute is recorded: by its dims alone."""
    return tensor.dims or (1,)


def _parse_tensor(buf: bytes, span: tuple[int, int],
                  named: bool = False) -> tuple[str, _Tensor]:
    """TensorProto -> its name, its dims and, for a small int64 tensor, its
    values. The name (the first name field) is decoded only when ``named``,
    for an initializer; an attribute's tensor leaves it unread."""
    name = ""
    dims: list[int] = []
    data_type = 0
    int_values: list[int] = []
    raw: bytes | None = None
    for field_no, wire, value in _fields(buf, *span):
        if field_no == 1:  # dims
            dims.extend(_int64s(buf, wire, value))
        elif field_no == 2 and wire == _WIRE_VARINT:  # data_type
            data_type = value
        elif field_no == 7:  # int64_data
            int_values.extend(_int64s(buf, wire, value))
        elif field_no == 9 and wire == _WIRE_LEN:  # raw_data
            raw = buf[value[0]:value[1]]
        elif field_no == 8 and wire == _WIRE_LEN and named:  # name
            name, named = _span_str(buf, value), False
    values = None
    count = math.prod(dims)
    if data_type == _DT_INT64 and count <= 64:
        if int_values:
            values = int_values
        elif raw is not None and len(raw) == 8 * count:
            values = [v[0] for v in struct.iter_unpack("<q", raw)]
    return name, _Tensor(tuple(dims), values)


def _parse_value_info(buf: bytes, span: tuple[int, int]):
    """ValueInfoProto -> (name, dims_or_None); symbolic dims read as 1."""
    name = ""
    dims: list[int] | None = None
    for field_no, wire, value in _fields(buf, *span):
        if field_no == 1 and wire == _WIRE_LEN:
            name = _span_str(buf, value)
        elif field_no == 2 and wire == _WIRE_LEN:  # TypeProto
            for f2, w2, v2 in _fields(buf, *value):
                if f2 == 1 and w2 == _WIRE_LEN:  # tensor_type
                    for f3, w3, v3 in _fields(buf, *v2):
                        if f3 == 2 and w3 == _WIRE_LEN:  # shape
                            dims = []
                            for f4, w4, v4 in _fields(buf, *v3):
                                if f4 == 1 and w4 == _WIRE_LEN:  # dim
                                    dim_val = None
                                    for f5, w5, v5 in _fields(buf, *v4):
                                        if f5 == 1 and w5 == _WIRE_VARINT:
                                            dim_val = _signed(v5)
                                    dims.append(dim_val if dim_val and dim_val > 0 else 1)
    return name, tuple(dims) if dims is not None else None


# The wire type of each single-value AttributeProto field: name, f, i, s and t.
_ATTR_WIRE = {1: _WIRE_LEN, 2: _WIRE_32BIT, 3: _WIRE_VARINT, 4: _WIRE_LEN, 5: _WIRE_LEN}


def _parse_attribute(buf: bytes, span: tuple[int, int]):
    """AttributeProto -> (name, python value).

    A name or single value sent with another wire type raises at its value's
    offset (at the attribute's for a varint), as a repeated field's does.
    """
    name = ""
    f_val = None
    i_val = None
    s_val = None
    t_val = None
    floats: list[float] = []
    ints: list[int] = []
    for field_no, wire, value in _fields(buf, *span):
        if _ATTR_WIRE.get(field_no, wire) != wire:
            raise ModelParseError(f"attribute field {field_no} has wire type {wire}",
                                  offset=span[0] if wire == _WIRE_VARINT else value[0])
        if field_no == 1:
            name = _span_str(buf, value)
        elif field_no == 2:
            f_val = struct.unpack_from("<f", buf, value[0])[0]
        elif field_no == 3:
            i_val = _signed(value)
        elif field_no == 4:
            s_val = _span_str(buf, value)
        elif field_no == 5:
            t_val = _parse_tensor(buf, value)[1]
        elif field_no == 7:  # floats
            floats.extend(_floats(buf, wire, value, span[0]))
        elif field_no == 8:  # ints
            ints.extend(_int64s(buf, wire, value))
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
    for field_no, wire, value in _fields(buf, *span):
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
    for field_no, wire, value in _fields(data, 0, len(data)):
        if field_no == 7 and wire == _WIRE_LEN:  # ModelProto.graph
            graph_span = value
    if graph_span is None:
        raise ModelParseError("no graph message found in model", offset=len(data))

    # Constant nodes act as initializers: their value tensor is recorded and
    # the node dropped, so only declared graph inputs lack producers. Every
    # other node gets a unique id, its name or else ``<op>_<i>`` with i
    # counting those nodes, and becomes the producer of its outputs; the later
    # producer of a tensor wins.
    initializers: dict[str, _Tensor] = {}
    constants: dict[str, _Tensor] = {}
    node_protos: dict[str, tuple] = {}  # node id -> (op, inputs, attrs), in file order
    producer: dict[str, str] = {}
    inputs_vi = []
    outputs_vi = []
    graph_name = name
    for field_no, wire, value in _fields(data, *graph_span):
        if wire != _WIRE_LEN:
            continue
        if field_no == 1:
            nname, op, n_in, n_out, attrs = _parse_node(data, value)
            if op == "Constant" and n_out:
                t = attrs.get("value")
                constants[n_out[0]] = t if isinstance(t, _Tensor) else _Tensor((1,), None)
                continue
            nid = nname or f"{op}_{len(node_protos)}"
            while nid in node_protos:
                nid += "_"
            node_protos[nid] = (op, n_in, attrs)
            for tname in n_out:
                producer[tname] = nid
        elif field_no == 2:
            graph_name = _span_str(data, value) or name
        elif field_no == 5:
            tname, tensor = _parse_tensor(data, value, named=True)
            if tname:
                initializers[tname] = tensor
        elif field_no == 11:
            inputs_vi.append(_parse_value_info(data, value))
        elif field_no == 12:
            outputs_vi.append(_parse_value_info(data, value))

    graph_inputs: list[tuple[str, tuple[int, ...]]] = []
    for tname, dims in inputs_vi:
        if tname in initializers or tname in producer:
            continue
        graph_inputs.append((tname, dims or (1,)))
    input_names = {n for n, _ in graph_inputs}

    nodes: dict[str, LayerNode] = {}
    for nid, (onnx_op, n_in, attrs) in node_protos.items():
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
