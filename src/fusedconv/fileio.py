"""Tensor, weight, and report file formats.

Tensor file: magic "DCLF", one version byte, u32 little-endian h, w, d, then
h*w*d raw 32-bit little-endian two's-complement values in (row, column,
depth-innermost) order, i.e. exactly the stream order the pipeline consumes.

Weights file: for each conv layer in network order, u32 little-endian
k, w, d followed by k*w*w*d raw values in (filter, row, column, depth) order.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .config import Dims, NetworkSpec, ParseError, ValidationError, serialize_network
from .golden import FilterBank, Tensor3D

TENSOR_MAGIC = b"DCLF"
TENSOR_VERSION = 1


def _le_bytes(arr: np.ndarray) -> memoryview:
    """The array's values as the files store them, little-endian int32 in C
    order: a view of the array itself when it is already laid out so, which
    an int32 array on a little-endian host is, so no copy is made."""
    return memoryview(np.ascontiguousarray(arr, dtype="<i4")).cast("B")


def write_tensor(path, t: Tensor3D) -> None:
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(bytes([TENSOR_VERSION]))
        fh.write(struct.pack("<III", t.dims.height, t.dims.width, t.dims.depth))
        fh.write(_le_bytes(t.data))


def read_tensor(path) -> Tensor3D:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 17:
        raise ParseError(f"{path}: tensor header needs 17 bytes, got {len(blob)}")
    if blob[:4] != TENSOR_MAGIC:
        raise ParseError(f"{path}: bad tensor magic {blob[:4]!r}")
    if blob[4] != TENSOR_VERSION:
        raise ParseError(f"{path}: unsupported tensor version {blob[4]}")
    h, w, d = struct.unpack_from("<III", blob, 5)
    expected = 17 + 4 * h * w * d
    if len(blob) != expected:
        raise ValidationError(
            f"{path}: expected {expected} bytes for {h}x{w}x{d}, got {len(blob)}")
    arr = np.frombuffer(blob, dtype="<i4", count=h * w * d, offset=17)
    return Tensor3D(Dims(h, w, d), arr.reshape(h, w, d).astype(np.int32))


def tensor_digest(t: Tensor3D) -> str:
    """SHA-256 of the tensor's values as a tensor file stores them."""
    return hashlib.sha256(_le_bytes(t.data)).hexdigest()


def write_weights(path, banks) -> None:
    with open(path, "wb") as fh:
        for bank in banks:
            fh.write(struct.pack("<III", bank.k, bank.kernel, bank.depth))
            fh.write(_le_bytes(bank.data))


def read_weights(path, net: NetworkSpec) -> list:
    """Read and shape-check one filter bank per conv layer of the network."""
    with open(path, "rb") as fh:
        blob = fh.read()
    banks = []
    off = 0
    in_dims = net.layer_input_dims()
    for li in net.conv_indices():
        layer = net.layers[li]
        need = 12 + 4 * layer.filters * layer.kernel * layer.kernel * in_dims[li].depth
        if off + 12 > len(blob):
            raise ValidationError(
                f"{path}: truncated at layer {li}: expected {off + need} bytes "
                f"total, got {len(blob)}")
        k, w, d = struct.unpack_from("<III", blob, off)
        if (k, w, d) != (layer.filters, layer.kernel, in_dims[li].depth):
            raise ValidationError(
                f"{path}: layer {li} header ({k}, {w}, {d}) does not match "
                f"network ({layer.filters}, {layer.kernel}, {in_dims[li].depth})")
        if off + need > len(blob):
            raise ValidationError(
                f"{path}: truncated at layer {li}: expected {off + need} bytes "
                f"total, got {len(blob)}")
        arr = np.frombuffer(blob, dtype="<i4", count=k * w * w * d, offset=off + 12)
        banks.append(FilterBank(arr.reshape(k, w, w, d).astype(np.int32)))
        off += need
    if off != len(blob):
        raise ValidationError(
            f"{path}: expected {off} bytes, got {len(blob)} (trailing data)")
    return banks


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def network_digest(net: NetworkSpec) -> str:
    return hashlib.sha256(serialize_network(net).encode()).hexdigest()
