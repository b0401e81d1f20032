"""Network descriptions, fixed-point formats, fusion plans, and derived geometry.

The network document is a JSON object with one canonical encoding (sorted keys,
two-space indent):

    { "input": {"h": 5, "w": 5, "d": 3},
      "fixed_point": {"int_bits": 16, "frac_bits": 16},
      "layers": [ {"type": "conv", "kernel": 3, "filters": 3, "stride": 1,
                   "pad": 1, "relu": true},
                  {"type": "maxpool", "window": 2, "stride": 2} ] }

A fusion plan expression partitions the layer list into contiguous groups,
e.g. "0-1|2" (inclusive, zero-based). Depth parallelism is an optional
comma-separated list with one value per conv layer in network order.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional, Union


class ParseError(ValueError):
    """Malformed input text (maps to exit code 1)."""


class ValidationError(ValueError):
    """Well-formed input violating a semantic rule (maps to exit code 2)."""


class GeometryError(ValidationError):
    """Layer geometry produces an output dimension below 1."""


class InternalError(RuntimeError):
    """Simulator invariant breach (maps to exit code 3)."""


DIM_MAX = (1 << 32) - 1  # a tensor file header stores each dimension as u32


@dataclass(frozen=True)
class Dims:
    height: int
    width: int
    depth: int

    def __post_init__(self):
        for name in ("height", "width", "depth"):
            v = getattr(self, name)
            if v < 1 or v > DIM_MAX:
                bound = ">= 1" if v < 1 else f"<= {DIM_MAX}"
                raise ValidationError(f"dims: {name} must be {bound}, got {v}")
        if 4 * self.volume > sys.maxsize:
            raise ValidationError(f"dims: {self.height}x{self.width}x{self.depth} is "
                                  f"{4 * self.volume} bytes, more than an array can hold")

    @property
    def volume(self) -> int:
        return self.height * self.width * self.depth


@dataclass(frozen=True)
class ConvSpec:
    kernel: int
    filters: int
    stride: int = 1
    pad: int = 0
    relu: bool = False
    declared_depth: Optional[int] = None  # optional redundant input-depth check

    def __post_init__(self):
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValidationError(f"conv: kernel must be odd and >= 1, got {self.kernel}")
        if self.filters < 1:
            raise ValidationError(f"conv: filters must be >= 1, got {self.filters}")
        if self.stride < 1:
            raise ValidationError(f"conv: stride must be >= 1, got {self.stride}")
        if self.pad < 0 or self.pad > self.kernel - 1:
            raise ValidationError(f"conv: pad must be in [0, kernel-1], got {self.pad}")


@dataclass(frozen=True)
class PoolSpec:
    window: int
    stride: int

    def __post_init__(self):
        if self.window < 1:
            raise ValidationError(f"maxpool: window must be >= 1, got {self.window}")
        if self.stride < 1:
            raise ValidationError(f"maxpool: stride must be >= 1, got {self.stride}")


LayerSpec = Union[ConvSpec, PoolSpec]


@dataclass(frozen=True)
class FixedPointFormat:
    int_bits: int = 16
    frac_bits: int = 16

    def __post_init__(self):
        if self.frac_bits < 0:
            raise ValidationError("fixed_point: frac_bits must be >= 0")
        if self.int_bits + self.frac_bits != 32:
            raise ValidationError(
                f"fixed_point: int_bits + frac_bits must be 32, got "
                f"{self.int_bits} + {self.frac_bits}")


Q16_16 = FixedPointFormat(16, 16)


def output_dims(input_dims: Dims, layer: LayerSpec) -> Dims:
    """Floor-semantics output geometry of one layer."""
    h, w = input_dims.height, input_dims.width
    if isinstance(layer, ConvSpec):
        oh = (h + 2 * layer.pad - layer.kernel) // layer.stride + 1
        ow = (w + 2 * layer.pad - layer.kernel) // layer.stride + 1
        od = layer.filters
    else:
        oh = (h - layer.window) // layer.stride + 1
        ow = (w - layer.window) // layer.stride + 1
        od = input_dims.depth
    if oh < 1 or ow < 1:
        raise GeometryError(
            f"layer window exceeds input: {input_dims} -> ({oh}, {ow}, {od})")
    return Dims(oh, ow, od)


@dataclass(frozen=True)
class NetworkSpec:
    input_dims: Dims
    layers: tuple
    fmt: FixedPointFormat = Q16_16

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("layers nonempty: network must contain at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        dims = [self.input_dims]
        for i, layer in enumerate(self.layers):
            if isinstance(layer, ConvSpec) and layer.declared_depth is not None:
                if layer.declared_depth != dims[-1].depth:
                    raise ValidationError(
                        f"layer {i}: declared input depth {layer.declared_depth} "
                        f"does not match derived depth {dims[-1].depth}")
            try:
                dims.append(output_dims(dims[-1], layer))
            except GeometryError as e:
                raise GeometryError(f"layer {i}: {e}") from None
        # Derived once here; plain attributes stay out of ==, hash and repr.
        object.__setattr__(self, "_dims", tuple(dims))
        object.__setattr__(self, "_conv_indices", tuple(
            i for i, l in enumerate(self.layers) if isinstance(l, ConvSpec)))

    def layer_dims(self) -> list:
        """Output dims after each layer, chained from the network input."""
        return list(self._dims[1:])

    def layer_input_dims(self) -> list:
        """Input dims seen by each layer."""
        return list(self._dims[:-1])

    def conv_indices(self) -> list:
        return list(self._conv_indices)


@dataclass(frozen=True)
class FusionPlan:
    """Contiguous partition of the layer list plus per-conv depth parallelism.

    groups: tuple of (start, end) index pairs, end inclusive.
    depth_parallel: one value per conv layer in network order; each must
    divide that conv's input depth so the serial group count is integral.
    """
    groups: tuple
    depth_parallel: tuple


def check_pipeline_pool(layer: PoolSpec) -> None:
    """The pipeline pool stage keeps one row of running maxima, which cannot
    serve vertically overlapping windows, so it needs window <= stride."""
    if layer.window > layer.stride:
        raise ValidationError(
            f"pipeline pool stage requires window <= stride, got "
            f"{layer.window} > {layer.stride}")


def validate_plan(plan: FusionPlan, net: NetworkSpec) -> FusionPlan:
    n = len(net.layers)
    expected = 0
    for a, b in plan.groups:
        if a != expected:
            raise ValidationError(
                f"plan: ranges must be contiguous and non-overlapping; "
                f"expected group start {expected}, got {a}")
        if b < a:
            raise ValidationError(f"plan: empty range {a}-{b}")
        expected = b + 1
    if expected != n:
        raise ValidationError(f"plan: ranges cover [0, {expected}) but network has {n} layers")
    conv_idx = net.conv_indices()
    if len(plan.depth_parallel) != len(conv_idx):
        raise ValidationError(
            f"plan: {len(plan.depth_parallel)} depth-parallel values for "
            f"{len(conv_idx)} conv layers")
    for layer in net.layers:
        if isinstance(layer, PoolSpec):
            check_pipeline_pool(layer)
    for dp, li in zip(plan.depth_parallel, conv_idx):
        depth = net._dims[li].depth
        if dp < 1 or dp > depth:
            raise ValidationError(
                f"plan: layer {li} depth-parallel {dp} outside [1, {depth}]")
        if depth % dp != 0:
            raise ValidationError(
                f"plan: layer {li} depth-parallel {dp} does not divide depth {depth}")
    return plan


def full_depth_parallel(net: NetworkSpec) -> tuple:
    return tuple(net._dims[i].depth for i in net._conv_indices)


# --- document parsing -------------------------------------------------------

_INPUT_KEYS = {"h", "w", "d"}
_FXP_KEYS = {"int_bits", "frac_bits"}
_CONV_KEYS = {"type", "kernel", "filters", "stride", "pad", "relu", "depth"}
_POOL_KEYS = {"type", "window", "stride"}


def _require_int(obj, key, where, minimum=None):
    if key not in obj:
        raise ValidationError(f"{where}: missing key '{key}'")
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValidationError(f"{where}: '{key}' must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ValidationError(f"{where}: '{key}' must be >= {minimum}, got {v}")
    return v


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def parse_network(text: str) -> NetworkSpec:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ValidationError("network document must be an object")
    unknown = set(doc) - {"input", "fixed_point", "layers"}
    if unknown:
        raise ValidationError(f"network document: unknown keys {sorted(unknown)}")

    inp = doc.get("input")
    if not isinstance(inp, dict) or set(inp) - _INPUT_KEYS:
        raise ValidationError("'input' must be an object with keys h, w, d")
    dims = Dims(_require_int(inp, "h", "input", 1),
                _require_int(inp, "w", "input", 1),
                _require_int(inp, "d", "input", 1))

    fmt = Q16_16
    if "fixed_point" in doc:
        fx = doc["fixed_point"]
        if not isinstance(fx, dict) or set(fx) - _FXP_KEYS:
            raise ValidationError("'fixed_point' must be an object with int_bits, frac_bits")
        fmt = FixedPointFormat(_require_int(fx, "int_bits", "fixed_point"),
                               _require_int(fx, "frac_bits", "fixed_point"))

    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list):
        raise ValidationError("'layers' must be a list")
    if not raw_layers:
        raise ValidationError("layers nonempty: network must contain at least one layer")

    layers = []
    for i, entry in enumerate(raw_layers):
        where = f"layer {i}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: must be an object")
        kind = entry.get("type")
        if kind == "conv":
            unknown = set(entry) - _CONV_KEYS
            if unknown:
                raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
            relu = entry.get("relu", False)
            if not isinstance(relu, bool):
                raise ValidationError(f"{where}: 'relu' must be a boolean")
            try:
                layers.append(ConvSpec(
                    kernel=_require_int(entry, "kernel", where, 1),
                    filters=_require_int(entry, "filters", where, 1),
                    stride=_require_int(entry, "stride", where, 1) if "stride" in entry else 1,
                    pad=_require_int(entry, "pad", where, 0) if "pad" in entry else 0,
                    relu=relu,
                    declared_depth=_require_int(entry, "depth", where, 1)
                    if "depth" in entry else None))
            except ValidationError as e:
                raise ValidationError(f"{where}: {e}") from None
        elif kind == "maxpool":
            unknown = set(entry) - _POOL_KEYS
            if unknown:
                raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
            try:
                layers.append(PoolSpec(window=_require_int(entry, "window", where, 1),
                                       stride=_require_int(entry, "stride", where, 1)))
            except ValidationError as e:
                raise ValidationError(f"{where}: {e}") from None
        else:
            raise ValidationError(f"{where}: 'type' must be 'conv' or 'maxpool', got {kind!r}")

    return NetworkSpec(input_dims=dims, layers=tuple(layers), fmt=fmt)


def network_to_document(net: NetworkSpec) -> dict:
    layers = []
    for layer in net.layers:
        if isinstance(layer, ConvSpec):
            entry = {"type": "conv", "kernel": layer.kernel, "filters": layer.filters,
                     "stride": layer.stride, "pad": layer.pad, "relu": layer.relu}
            if layer.declared_depth is not None:
                entry["depth"] = layer.declared_depth
        else:
            entry = {"type": "maxpool", "window": layer.window, "stride": layer.stride}
        layers.append(entry)
    return {"input": {"h": net.input_dims.height, "w": net.input_dims.width,
                      "d": net.input_dims.depth},
            "fixed_point": {"int_bits": net.fmt.int_bits, "frac_bits": net.fmt.frac_bits},
            "layers": layers}


def serialize_network(net: NetworkSpec) -> str:
    """Canonical encoding: parse(serialize(net)) == net, byte-stable."""
    return json.dumps(network_to_document(net), sort_keys=True, indent=2) + "\n"


# --- plan parsing -----------------------------------------------------------

def parse_plan(text: str, net: NetworkSpec, dpar_text: Optional[str] = None) -> FusionPlan:
    groups = []
    for part in text.strip().split("|"):
        part = part.strip()
        if "-" in part:
            lo, _, hi = part.partition("-")
        else:
            lo = hi = part
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise ParseError(f"plan: bad group expression {part!r}") from None
        groups.append((a, b))

    if dpar_text is None or not dpar_text.strip():
        dpar = full_depth_parallel(net)
    else:
        try:
            dpar = tuple(int(x) for x in dpar_text.split(","))
        except ValueError:
            raise ParseError(f"plan: bad depth-parallel list {dpar_text!r}") from None

    return validate_plan(FusionPlan(groups=tuple(groups), depth_parallel=dpar), net)


def extend_plan_texts(texts, group) -> list:
    """The plan text of each partition in `texts` ("" for no groups) extended
    by `group`: groups as "a-b" ("a" alone when a == b), joined by "|"."""
    a, b = group
    tail = f"{a}-{b}" if a != b else str(a)
    return [f"{text}|{tail}" if text else tail for text in texts]


def plan_to_text(plan: FusionPlan) -> str:
    return functools.reduce(extend_plan_texts, plan.groups, [""])[0]


def dpar_to_text(plan: FusionPlan) -> str:
    return ",".join(str(x) for x in plan.depth_parallel)
