"""Minimal protobuf encoder for building genuine ONNX-format test bytes.

Written independently of the package reader so the two implementations
cross-check each other's understanding of the wire format.
"""

from __future__ import annotations

import struct


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


def fv(field: int, value: int) -> bytes:
    return _tag(field, 0) + _varint(value)


def ff(field: int, value: float) -> bytes:
    return _tag(field, 5) + struct.pack("<f", value)


def fixed(field: int, payload: bytes) -> bytes:
    """A fixed-width field: wire type 5 for a 4-byte payload, 1 for an 8-byte one."""
    return _tag(field, {4: 5, 8: 1}[len(payload)]) + payload


def fs(field: int, payload: bytes | str) -> bytes:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return _tag(field, 2) + _varint(len(payload)) + payload


def attr_int(name: str, value: int) -> bytes:
    return fs(1, name) + fv(3, value) + fv(20, 2)


def attr_float(name: str, value: float) -> bytes:
    return fs(1, name) + ff(2, value) + fv(20, 1)


def attr_str(name: str, value: str) -> bytes:
    return fs(1, name) + fs(4, value) + fv(20, 3)


def attr_ints(name: str, values) -> bytes:
    packed = b"".join(_varint(v) for v in values)
    return fs(1, name) + fs(8, packed) + fv(20, 7)


def attr_tensor(name: str, tensor_payload: bytes) -> bytes:
    return fs(1, name) + fs(5, tensor_payload) + fv(20, 4)


def tensor(name: str, dims, data_type: int = 1, int64_values=None,
           raw_int64: bool = False) -> bytes:
    out = b"".join(fv(1, d) for d in dims)
    out += fv(2, data_type)
    if int64_values is not None:
        if raw_int64:
            out += fs(9, b"".join(struct.pack("<q", v) for v in int64_values))
        else:
            out += fs(7, b"".join(_varint(v) for v in int64_values))
    out += fs(8, name)
    return out


def node(op_type: str, inputs, outputs, name: str = "", attrs: bytes = b"",
         ) -> bytes:
    out = b"".join(fs(1, i) for i in inputs)
    out += b"".join(fs(2, o) for o in outputs)
    if name:
        out += fs(3, name)
    out += fs(4, op_type)
    out += attrs
    return out


def value_info(name: str, dims) -> bytes:
    dim_msgs = b"".join(fs(1, fv(1, d)) for d in dims)
    shape = fs(2, dim_msgs)
    tensor_type = fs(1, fv(1, 1) + shape)  # elem_type=FLOAT
    return fs(1, name) + fs(2, tensor_type)


def graph(nodes, inputs, outputs, initializers=(), name: str = "g") -> bytes:
    out = b"".join(fs(1, n) for n in nodes)
    out += fs(2, name)
    out += b"".join(fs(5, t) for t in initializers)
    out += b"".join(fs(11, vi) for vi in inputs)
    out += b"".join(fs(12, vi) for vi in outputs)
    return out


def model(graph_payload: bytes) -> bytes:
    return fv(1, 8) + fs(7, graph_payload)  # ir_version + graph


def attrs(*parts: bytes) -> bytes:
    return b"".join(fs(5, p) for p in parts)


def conv_relu_model() -> bytes:
    """data(1x3x8x8) -> Conv(4 filters 3x3 pad 1) -> Relu -> out."""
    w = tensor("W", (4, 3, 3, 3))
    b = tensor("B", (4,))
    conv = node("Conv", ["data", "W", "B"], ["conv_out"], name="conv1",
                attrs=attrs(attr_ints("kernel_shape", (3, 3)),
                            attr_ints("pads", (1, 1, 1, 1)),
                            attr_ints("strides", (1, 1)),
                            attr_int("group", 1)))
    relu = node("Relu", ["conv_out"], ["relu_out"], name="relu1")
    g = graph([conv, relu],
              inputs=[value_info("data", (1, 3, 8, 8))],
              outputs=[value_info("relu_out", (1, 4, 8, 8))],
              initializers=[w, b],
              name="convrelu")
    return model(g)
