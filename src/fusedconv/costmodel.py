"""Closed-form latency, cycle, DSP, buffer-bit, and off-chip traffic estimates.

These mirror the accelerator's structure without running the simulator:
multipliers map to DSP slices (w^2 per channel processed in parallel), adders
to logic fabric, and on-chip storage to 18,432-bit block granularity. The
end-to-end estimate charges every stage's fill latency serially. The
simulator overlaps fills, so it usually finishes below the estimate, but not
always: a conv-pool-conv group can run past its bottleneck plus the fills
charged here without a stall.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Modeled cost of one fused group; every plan figure is a fold over these."""
    dsp: int            # multipliers: w^2 * d_par summed over the group's convs
    buffer_bits: int
    buffer_blocks: int
    steady_cycles: int  # the slowest conv's steady cycles, 0 without a conv
    stream_cycles: int  # cycles to stream the group input, one position per cycle
    fill_cycles: int

    @property
    def bottleneck(self) -> int:
        return max(self.steady_cycles, self.stream_cycles)


def _blocks(bits: int) -> int:
    return -(-bits // BRAM_BLOCK_BITS)


def _layer_buffers(layer, in_dims: Dims, out_dims: Dims):
    """(bits, blocks) of the buffers backing one layer: a conv's line buffer,
    one filter bank per tap position and an output-assembly row, or a pool
    row; blocks use a per-buffer ceiling at 18,432-bit granularity."""
    if isinstance(layer, ConvSpec):
        taps = layer.kernel * layer.kernel
        line = layer.kernel * (in_dims.width + 2 * layer.pad) * in_dims.depth * 32
        bank = layer.filters * in_dims.depth * 32
        assembly = out_dims.width * layer.filters * 32
        return (line + taps * bank + assembly,
                _blocks(line) + taps * _blocks(bank) + _blocks(assembly))
    row = out_dims.width * in_dims.depth * 32
    return row, _blocks(row)


def _conv_parallelism(plan: FusionPlan, net: NetworkSpec) -> dict:
    """Map conv layer index -> (d_par, serial depth group count g = depth / d_par)."""
    dims_in = net.layer_input_dims()
    return {li: (dp, dims_in[li].depth // dp)
            for dp, li in zip(plan.depth_parallel, net.conv_indices())}


def group_cost(group, depth_parallel, net: NetworkSpec) -> GroupCost:
    """GroupCost of one group (a, b) of a validated plan whose per-conv
    depth parallelism is depth_parallel.

    Fill latency is charged for every stage at the per-element period of
    whatever feeds it: k*g of the producing conv, 1 at the group input,
    unchanged through a pool.
    """
    a, b = group
    dims_in = net.layer_input_dims()
    dims_out = net.layer_dims()
    dpar_of = dict(zip(net.conv_indices(), depth_parallel))
    dsp = bits = blocks = steady = fill = 0
    period = 1
    for li in range(a, b + 1):
        layer = net.layers[li]
        lb, lk = _layer_buffers(layer, dims_in[li], dims_out[li])
        bits += lb
        blocks += lk
        w_in = dims_in[li].width
        if isinstance(layer, ConvSpec):
            dp = dpar_of[li]
            g = dims_in[li].depth // dp
            dsp += layer.kernel * layer.kernel * dp
            steady = max(steady, steady_cycles(layer, dims_out[li], g))
            fill += (layer.kernel - 1) * (w_in + 2 * layer.pad) * period \
                + layer.kernel + conv3d_latency(layer.kernel, dp)
            period = layer.filters * g
        else:
            fill += layer.window * w_in * period
    return GroupCost(dsp, bits, blocks, steady,
                     dims_in[a].height * dims_in[a].width, fill)


def group_costs(plan: FusionPlan, net: NetworkSpec) -> list:
    """One GroupCost per group of an already validated plan, in plan order."""
    return [group_cost(group, plan.depth_parallel, net) for group in plan.groups]


def _plan_totals(costs) -> tuple:
    """(dsp, buffer bits, buffer blocks, estimated cycles) of a plan. Hardware
    is rebuilt (reused) between groups, so DSP and buffers are those of the
    widest group (buffers: the first group with the most bits); the estimate
    sums each group's bottleneck and fills."""
    widest = max(costs, key=lambda c: c.buffer_bits)
    return (max(c.dsp for c in costs), widest.buffer_bits, widest.buffer_blocks,
            sum(c.bottleneck + c.fill_cycles for c in costs))


def traffic_bytes(plan: FusionPlan, net: NetworkSpec, bytes_per_value: int = 4,
                  reread_weights_per_depth_group: bool = False):
    """Off-chip transfer accounting of an already validated plan. Returns a
    dict itemized as {inputs, outputs, weights, total} in bytes.

    Every group streams its input volume in and its output volume out;
    weights are loaded once per group execution (they stay in on-chip banks
    across the streamed input). With the re-read flag, a conv whose depth is
    decomposed into g serial groups fetches its weights g times.
    """
    if bytes_per_value not in (1, 2, 4):
        raise ValidationError("bytes_per_value must be 1, 2, or 4")
    dims_in = net.layer_input_dims()
    dims_out = net.layer_dims()

    inputs = 0
    outputs = 0
    for a, b in plan.groups:
        inputs += dims_in[a].volume
        outputs += dims_out[b].volume

    weights = 0
    for li, (_, g) in _conv_parallelism(plan, net).items():
        layer = net.layers[li]
        vals = layer.filters * layer.kernel * layer.kernel * dims_in[li].depth
        if reread_weights_per_depth_group:
            vals *= g
        weights += vals

    return {"inputs": inputs * bytes_per_value,
            "outputs": outputs * bytes_per_value,
            "weights": weights * bytes_per_value,
            "total": (inputs + outputs + weights) * bytes_per_value}


def time_ms(cycles: int, frequency_mhz: float = DEFAULT_FREQUENCY_MHZ) -> float:
    return cycles / (frequency_mhz * 1000.0)


@dataclass
class CostReport:
    per_layer: list = field(default_factory=list)
    total_estimated_cycles: int = 0
    milliseconds: float = 0.0
    frequency_mhz: float = DEFAULT_FREQUENCY_MHZ
    dsp: int = 0
    buffer_bits: int = 0
    buffer_blocks: int = 0
    traffic: dict = field(default_factory=dict)
    bytes_per_value: int = 4

    def to_dict(self) -> dict:
        return {"per_layer": self.per_layer,
                "total_estimated_cycles": self.total_estimated_cycles,
                "milliseconds": self.milliseconds,
                "frequency_mhz": self.frequency_mhz,
                "dsp": self.dsp,
                "buffer_bits": self.buffer_bits,
                "buffer_blocks": self.buffer_blocks,
                "traffic_bytes": self.traffic,
                "bytes_per_value": self.bytes_per_value}


def analyze(plan: FusionPlan, net: NetworkSpec, bytes_per_value: int = 4,
            frequency_mhz: float = DEFAULT_FREQUENCY_MHZ,
            reread_weights_per_depth_group: bool = False) -> CostReport:
    """Assemble the full analytical report for one plan."""
    validate_plan(plan, net)
    traffic = traffic_bytes(plan, net, bytes_per_value, reread_weights_per_depth_group)
    dims_in = net.layer_input_dims()
    dims_out = net.layer_dims()
    par = _conv_parallelism(plan, net)

    per_layer = []
    for li, layer in enumerate(net.layers):
        bits, blocks = _layer_buffers(layer, dims_in[li], dims_out[li])
        if isinstance(layer, ConvSpec):
            dp, g = par[li]
            per_layer.append({
                "layer": li, "type": "conv",
                "depth_parallel": dp, "serial_groups": g,
                "latency_cycles": conv3d_latency(layer.kernel, dp),
                "steady_cycles": steady_cycles(layer, dims_out[li], g),
                "dsp": layer.kernel * layer.kernel * dp,
                "buffer_bits": bits, "buffer_blocks": blocks})
        else:
            per_layer.append({
                "layer": li, "type": "maxpool",
                "latency_cycles": 0,
                "steady_cycles": dims_in[li].height * dims_in[li].width,
                "dsp": 0, "buffer_bits": bits, "buffer_blocks": blocks})

    dsp, bits, blocks, est = _plan_totals(group_costs(plan, net))
    return CostReport(
        per_layer=per_layer,
        total_estimated_cycles=est,
        milliseconds=time_ms(est, frequency_mhz),
        frequency_mhz=frequency_mhz,
        dsp=dsp,
        buffer_bits=bits,
        buffer_blocks=blocks,
        traffic=traffic,
        bytes_per_value=bytes_per_value)
