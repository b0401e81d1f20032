"""Closed-form latency, cycle, DSP, buffer-bit, and off-chip traffic estimates.

These mirror the accelerator's structure without running the simulator:
multipliers map to DSP slices (w^2 per channel processed in parallel), adders
to logic fabric, and on-chip storage to 18,432-bit block granularity. Each
layer is priced in one place (layer_cost); a fused group folds its layers'
rows and adds its fill chain and DRAM traffic (group_cost), and a plan's
figures, traffic included, fold over its groups (analyze). The end-to-end
estimate charges every stage's fill latency serially. The simulator overlaps
fills, so it usually finishes below the estimate, but not always: a
conv-pool-conv group can run past its bottleneck plus the fills charged here
without a stall.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .config import ConvSpec, Dims, FusionPlan, NetworkSpec, ValidationError, \
    validate_plan

BRAM_BLOCK_BITS = 18_432
DEFAULT_FREQUENCY_MHZ = 120.0
VIRTEX7_DSP = 3600
VIRTEX7_BRAM_BITS = 54_190_080  # 6.46 MB of on-chip block RAM


@dataclass(frozen=True)
class ResourceBudget:
    dsp_max: int = VIRTEX7_DSP
    bram_bits_max: int = VIRTEX7_BRAM_BITS

    def __post_init__(self):
        if self.dsp_max < 1 or self.bram_bits_max < 1:
            raise ValidationError("resource budget must be positive")


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def conv3d_latency(w: int, d_par: int) -> int:
    """Pipeline depth of the 3-D conv unit: 9 * (1 + ceil(2 log2 w) + ceil(log2 d_par)).

    The 9-cycle unit latency covers one multiplier/adder stage; the tree over
    the w*w products adds ceil(2 log2 w) stages and the cross-channel tree
    ceil(log2 d_par) more. ceil(2 log2 w) is computed exactly as
    ceil(log2 w^2).
    """
    if w < 1 or d_par < 1:
        raise ValidationError("conv3d_latency arguments must be >= 1")
    return 9 * (1 + _ceil_log2(w * w) + _ceil_log2(d_par))


def steady_cycles(layer: ConvSpec, out_dims: Dims, g: int) -> int:
    """Throughput-limited cycles: output positions x filters x serial groups."""
    if g < 1:
        raise ValidationError("serial group count must be >= 1")
    return out_dims.height * out_dims.width * layer.filters * g


@dataclass(frozen=True)
class GroupCost:
    """Modeled cost of one fused group, the unit every plan figure folds over:
    DSP and buffers are those of the widest group, cycles and traffic a sum."""
    dsp: int            # multipliers: w^2 * d_par summed over the group's convs
    buffer_bits: int
    buffer_blocks: int
    steady_cycles: int  # the slowest conv's steady cycles, 0 without a conv
    stream_cycles: int  # cycles to stream the group input, one position per cycle
    fill_cycles: int
    input_values: int   # the group input volume, streamed in once
    output_values: int  # the group output volume, streamed out once
    weight_values: int  # every conv's weights, once or once per depth group
    rows: tuple = field(default=(), compare=False, repr=False)  # layer_cost per layer

    @property
    def bottleneck(self) -> int:
        return max(self.steady_cycles, self.stream_cycles)


def _blocks(bits: int) -> int:
    return -(-bits // BRAM_BLOCK_BITS)


def layer_cost(layer, in_dims: Dims, out_dims: Dims, d_par=None) -> dict:
    """One layer's price, the row analyze reports for it. A conv: pipeline
    latency, steady cycles and w^2 * d_par DSP at its d_par, and the buffers
    backing it (a line buffer, one filter bank per tap position and an
    output-assembly row). A pool: its input positions and one row of running
    maxima. Blocks use a per-buffer ceiling at 18,432-bit granularity."""
    if isinstance(layer, ConvSpec):
        taps = layer.kernel * layer.kernel
        line = layer.kernel * (in_dims.width + 2 * layer.pad) * in_dims.depth * 32
        bank = layer.filters * in_dims.depth * 32
        assembly = out_dims.width * layer.filters * 32
        g = in_dims.depth // d_par
        return {"type": "conv", "depth_parallel": d_par, "serial_groups": g,
                "latency_cycles": conv3d_latency(layer.kernel, d_par),
                "steady_cycles": steady_cycles(layer, out_dims, g),
                "dsp": taps * d_par, "buffer_bits": line + taps * bank + assembly,
                "buffer_blocks": _blocks(line) + taps * _blocks(bank) + _blocks(assembly)}
    row = out_dims.width * in_dims.depth * 32
    return {"type": "maxpool", "latency_cycles": 0,
            "steady_cycles": in_dims.height * in_dims.width,
            "dsp": 0, "buffer_bits": row, "buffer_blocks": _blocks(row)}


def group_cost(group, d_pars, net: NetworkSpec,
               reread_weights_per_depth_group: bool = False) -> GroupCost:
    """GroupCost of one group (a, b) of a validated plan, whose convs run at
    d_pars in order: its layers' layer_cost rows, kept in `rows` and folded,
    plus the fill chain and the traffic volumes.

    Fill latency is charged for every stage at the per-element period of
    whatever feeds it: k*g of the producing conv, 1 at the group input,
    unchanged through a pool.

    Off-chip, the group streams its input volume in and its output volume
    out; weights are loaded once per group execution (they stay in on-chip
    banks across the streamed input). With the re-read flag, a conv whose
    depth is decomposed into g serial groups fetches its weights g times.
    """
    a, b = group
    dims_in = net.layer_input_dims()
    dims_out = net.layer_dims()
    d_par = iter(d_pars)
    dsp = bits = blocks = steady = fill = weights = 0
    period = 1
    rows = []
    for li in range(a, b + 1):
        layer, d_in = net.layers[li], dims_in[li]
        if isinstance(layer, ConvSpec):
            row = layer_cost(layer, d_in, dims_out[li], next(d_par))
            g = row["serial_groups"]
            steady = max(steady, row["steady_cycles"])
            fill += (layer.kernel - 1) * (d_in.width + 2 * layer.pad) * period \
                + layer.kernel + row["latency_cycles"]
            period = layer.filters * g
            weights += layer.filters * layer.kernel * layer.kernel * d_in.depth \
                * (g if reread_weights_per_depth_group else 1)
        else:
            row = layer_cost(layer, d_in, dims_out[li])
            fill += layer.window * d_in.width * period
        dsp += row["dsp"]
        bits += row["buffer_bits"]
        blocks += row["buffer_blocks"]
        rows.append(row)
    return GroupCost(dsp, bits, blocks, steady,
                     dims_in[a].height * dims_in[a].width, fill,
                     dims_in[a].volume, dims_out[b].volume, weights, tuple(rows))


def check_bytes_per_value(bytes_per_value: int) -> None:
    if bytes_per_value not in (1, 2, 4):
        raise ValidationError("bytes_per_value must be 1, 2, or 4")


def time_ms(cycles: int, frequency_mhz: float = DEFAULT_FREQUENCY_MHZ) -> float:
    return cycles / (frequency_mhz * 1000.0)


@dataclass
class CostReport:
    per_layer: list
    total_estimated_cycles: int
    milliseconds: float
    frequency_mhz: float
    dsp: int
    buffer_bits: int
    buffer_blocks: int
    traffic: dict  # reported as traffic_bytes
    bytes_per_value: int

    def to_dict(self) -> dict:
        d = asdict(self)
        d["traffic_bytes"] = d.pop("traffic")
        return d


def analyze(plan: FusionPlan, net: NetworkSpec, bytes_per_value: int = 4,
            frequency_mhz: float = DEFAULT_FREQUENCY_MHZ,
            reread_weights_per_depth_group: bool = False) -> CostReport:
    """Assemble the full analytical report for one plan."""
    validate_plan(plan, net)
    check_bytes_per_value(bytes_per_value)
    costs = [group_cost(group, plan.depth_parallel[net.conv_slice(group)], net,
                        reread_weights_per_depth_group) for group in plan.groups]
    per_layer = [{"layer": li, **row}
                 for li, row in enumerate(row for c in costs for row in c.rows)]

    # hardware is rebuilt (reused) between groups, so DSP and buffers are
    # those of the widest group (buffers: the first group with the most bits)
    widest = max(costs, key=lambda c: c.buffer_bits)
    est = sum(c.bottleneck + c.fill_cycles for c in costs)
    # off-chip transfer: the groups' volumes summed, in bytes
    inputs, outputs, weights = (sum(v) * bytes_per_value for v in zip(
        *((c.input_values, c.output_values, c.weight_values) for c in costs)))
    return CostReport(
        per_layer=per_layer,
        total_estimated_cycles=est,
        milliseconds=time_ms(est, frequency_mhz),
        frequency_mhz=frequency_mhz,
        dsp=max(c.dsp for c in costs),
        buffer_bits=widest.buffer_bits,
        buffer_blocks=widest.buffer_blocks,
        traffic={"inputs": inputs, "outputs": outputs, "weights": weights,
                 "total": inputs + outputs + weights},
        bytes_per_value=bytes_per_value)
