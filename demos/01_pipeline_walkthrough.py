"""Walk the smallest end-to-end example: a 5x5x3 input through two fused
3x3 convolutions and a 2x2/2 max pool, comparing the cycle-driven pipeline
against the layer-by-layer reference bit for bit, then showing the schedule
the max-plus model gives where no stage is held, in one pass, and where one
is, in a few.

Run: python demos/01_pipeline_walkthrough.py
"""

from fusedconv import parse_plan, run_network, simulate_plan, time_ms
from fusedconv.dataflow import simulate_group
from fusedconv.datagen import generate_tensor, generate_weights
from fusedconv.networks import small_test_network


def main():
    net = small_test_network()
    tensor = generate_tensor(net.input_dims, seed=1)
    banks = generate_weights(net, seed=2)

    print("network: conv 3x3x3 (pad 1) -> conv 3x3x3 (pad 1) -> maxpool 2x2/2")
    print(f"input:   {net.input_dims.height}x{net.input_dims.width}"
          f"x{net.input_dims.depth}, Q16.16 values in [-1, 1)")
    print()

    golden_outs, sat = run_network(net, tensor, banks)
    print("layer-by-layer reference dims:",
          [(t.dims.height, t.dims.width, t.dims.depth) for t in golden_outs],
          f"(saturation events: {sat})")
    print()

    for expr in ("0-2", "0-1|2", "0|1|2"):
        plan = parse_plan(expr, net)
        sim = simulate_plan(net, tensor, banks, plan)
        match = all(a.equals(b) for a, b in zip(sim.layer_outputs, golden_outs))
        print(f"plan {expr:7s}: groups take {sim.cycles_per_group} cycles, "
              f"total {sim.end_to_end_cycles:4d} "
              f"({time_ms(sim.end_to_end_cycles) * 1e6:.1f} ns at 120 MHz), "
              f"bit-exact vs reference: {match}")
    print()
    print("fusing removes the serial group boundaries, so the fully fused",
          "plan finishes first while producing identical tensors.")
    print()

    sim = simulate_plan(net, tensor, banks, parse_plan("0-2", net))
    cycles = sim.cycles_per_group[0]
    print("the fused run's schedule comes from the max-plus model: no stage is ever")
    print("held, so its first pass is the schedule, and each stage has one modeled span")
    for stamp in sim.stamps_per_group[0]:
        print(f"    {stamp.name}: modeled cycles 1..{cycles}, "
              f"last output at cycle {stamp.last_out}")
    print(f"the group's count, {cycles}, is its last cycle: the pool's last"
          " output comes earlier, and the convs still flush the row it discards.")
    print()

    plan = parse_plan("0-2", net, "3,1")
    sim = simulate_plan(net, tensor, banks, plan)
    passes = simulate_group(net.layers, net.input_dims, plan.depth_parallel).passes
    print("at d_par 3,1 the second conv holds each window 9 cycles and holds up the")
    print("first, whose engine freezes while its output waits: the model settles after")
    print(f"{passes} passes, each a floor on the schedule, the last the schedule itself:")
    for stamp in sim.stamps_per_group[0]:
        print(f"    {stamp.name}: outputs at cycles {stamp.first_out}..{stamp.last_out}, "
              f"{sim.stall_cycles[stamp.name]} stall cycles")

if __name__ == "__main__":
    main()
