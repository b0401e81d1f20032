"""Cycle-accurate timing of the first VGG-16 convolution at full scale:
224x224x3 input, 64 filters, 3 channels in parallel. The line buffer turns
the serial stream into one window per cycle, the engine holds each window for
the 64-filter sweep, so the layer is pinned at 224*224*64 steady cycles plus
a small fill. The max-plus model gives its ~3.2M cycles in milliseconds: no
stage is ever held, so its first pass is the schedule. The values are
computed once per layer after the schedule. Each run prints the seconds of
its schedule and of its value walk.

With --saturating it times instead a 32x32x16 3x3 conv with 16 filters on
data drawn over the whole int32 range, where nearly every value saturates and takes the checked
reductions: the best of 7 calls, with its saturation events, of the engine's
datapath at d_par 4 and 16, of the oracle's conv_layer alone, and of
simulate_plan followed by run_network, which share one list: the value walk
appends the conv layer it also reduced in the oracle's order, and the oracle
takes it from there.

With --schedule it times each schedule alone on conv1_1 at 56x56, VGG-7 at
28x28, a 16x16x16 3x3 conv with 16 filters at d_par 4 and VGG-7 at 224x224,
each fully fused, and on VGG-7's group 2-6 at 28x28, whose pool the conv
after it holds. For each it prints the cycles, the passes
dataflow.simulate_group took to settle (one where no stage is held) and its
milliseconds, the best of 7 calls.

Run: python demos/04_full_scale_timing.py [--seven-layer | --saturating | --schedule]
"""

import sys
import time

import numpy as np

from fusedconv import analyze, parse_plan, simulate_plan, time_ms
from fusedconv.config import ConvSpec, Dims, NetworkSpec
from fusedconv.dataflow import conv_datapath, simulate_group
from fusedconv.datagen import generate_tensor, generate_weights
from fusedconv.golden import FilterBank, Tensor3D, conv_layer, run_network
from fusedconv.networks import VGG7_DEFAULT_DPAR, consecutive_convs, vgg_prefix_7


def run(net, plan, label, reference_ms):
    tensor = generate_tensor(net.input_dims, seed=1)
    banks = generate_weights(net, seed=2)
    t0 = time.monotonic()
    sim = simulate_plan(net, tensor, banks, plan)
    wall = time.monotonic() - t0
    est = analyze(plan, net).total_estimated_cycles
    print(f"{label}:")
    print(f"  simulated: {sim.end_to_end_cycles:,} cycles "
          f"= {time_ms(sim.end_to_end_cycles):.3f} ms at 120 MHz "
          f"(reference {reference_ms} ms)")
    print(f"  estimate:  {est:,} cycles = {time_ms(est):.3f} ms")
    print(f"  stage completion stamps:")
    for s in sim.stamps_per_group[0]:
        print(f"    {s.name:10s} last output at cycle {s.last_out:,}")
    schedule_s, values_s = sim.seconds
    print(f"  schedule:  {schedule_s:.2f}s")
    print(f"  values:    {values_s:.2f}s")
    print(f"  ({wall:.1f}s wall, {sim.saturation_events} saturation events)")
    print()


def best_of(n, fn):
    """fn()'s events and its fastest wall time over n calls."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        events = fn()
        best = min(best, time.perf_counter() - t0)
    return events, best


def saturating():
    # activations and weights drawn uniformly over the whole int32 range
    net = NetworkSpec(Dims(32, 32, 16), (ConvSpec(3, 16, 1, 1, relu=False),))
    spec = net.layers[0]
    rng = np.random.default_rng(1)
    full = np.iinfo(np.int32)
    tensor = Tensor3D(net.input_dims, rng.integers(
        full.min, full.max, (32, 32, 16), endpoint=True, dtype=np.int32))
    bank = FilterBank(rng.integers(full.min, full.max, (16, 3, 3, 16), endpoint=True,
                                   dtype=np.int32))

    def simulate_and_check(d_par):
        taken = []
        sim = simulate_plan(net, tensor, [bank], parse_plan("0", net, str(d_par)),
                            oracle=taken)
        return sim.saturation_events, run_network(net, tensor, [bank], taken)[1]

    print("saturating 32x32x16 conv, 16 filters, full-range data (best of 7):")
    for label, fn in (
            ("conv_datapath d_par 4", lambda: conv_datapath(
                tensor.data, bank, spec, 4, 16)[1]),
            ("conv_datapath d_par 16", lambda: conv_datapath(
                tensor.data, bank, spec, 16, 16)[1]),
            ("conv_layer", lambda: conv_layer(tensor, bank, spec)[1]),
            ("simulate_plan + run_network, d_par 4", lambda: simulate_and_check(4))):
        events, seconds = best_of(7, fn)
        print(f"  {label:38s} {seconds * 1e3:7.1f} ms, events {events}")


def schedule():
    vgg7_28 = vgg_prefix_7(input_hw=28)
    cases = [("conv1_1-56", consecutive_convs(1, input_hw=56).layers, Dims(56, 56, 3), [3], 0),
             ("vgg7-28", vgg7_28.layers, vgg7_28.input_dims, list(VGG7_DEFAULT_DPAR), 0),
             ("saturating", (ConvSpec(3, 16, 1, 1, relu=False),), Dims(16, 16, 16), [4], 0),
             ("vgg7-224", vgg_prefix_7().layers, Dims(224, 224, 3), list(VGG7_DEFAULT_DPAR), 0),
             ("vgg7-28-2-6", vgg7_28.layers[2:], vgg7_28.layer_input_dims()[2],
              list(VGG7_DEFAULT_DPAR[2:]), 2)]
    print("each schedule alone, modeled (best of 7):")
    for label, layers, in_dims, d_pars, offset in cases:
        res, modeled = best_of(7, lambda: simulate_group(layers, in_dims, d_pars, offset))
        print(f"  {label:12s} {res.cycles:>11,} cycles {res.passes:>3} passes "
              f"{modeled * 1e3:7.2f} ms modeled")


def main():
    if "--saturating" in sys.argv:
        saturating()
        return
    if "--schedule" in sys.argv:
        schedule()
        return
    net = consecutive_convs(1)
    run(net, parse_plan("0", net, "3"), "conv1_1 alone", "26.764")

    if "--seven-layer" in sys.argv:
        net = vgg_prefix_7()
        dpar = ",".join(str(x) for x in VGG7_DEFAULT_DPAR)
        run(net, parse_plan("0-6", net, dpar),
            "seven layers fully fused (about 5 s of wall time)", "41.95")
    else:
        print("pass --seven-layer to also run the fully fused 7-layer stack")


if __name__ == "__main__":
    main()
