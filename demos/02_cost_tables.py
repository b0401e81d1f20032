"""Reproduce the analytical figures for the 7-layer stack (conv-conv-pool-
conv-conv-pool-conv on a 224x224x3 input) that anchor the cost model:
pipeline latencies, DSP multiplier counts, buffer bits, and off-chip traffic,
next to the reference implementation's published numbers.

Run: python demos/02_cost_tables.py
"""

from fusedconv import analyze, conv3d_latency, parse_plan, time_ms
from fusedconv.costmodel import group_cost
from fusedconv.networks import VGG7_DEFAULT_DPAR, vgg_prefix_7

MB = 1_000_000


def main():
    net = vgg_prefix_7()
    dpar = ",".join(str(x) for x in VGG7_DEFAULT_DPAR)
    fused = parse_plan("0-6", net, dpar)
    split = parse_plan("0|1|2|3|4|5|6", net, dpar)

    print("pipeline latency of one 3-D conv unit")
    print(f"  w=3, 3 parallel channels:   {conv3d_latency(3, 3):3d} cycles (reference 63)")
    print(f"  w=3, 1 channel:             {conv3d_latency(3, 1):3d} cycles (reference 45)")
    print(f"  w=1, 1 channel:             {conv3d_latency(1, 1):3d} cycles (bare multiplier)")
    print()

    print(f"DSP multipliers (w^2 x d_par per conv, max over fused groups)")
    first_group = group_cost((0, 2), VGG7_DEFAULT_DPAR[:2], net)
    print(f"  conv1_1+conv1_2+pool1 group: {first_group.dsp}  (reference 605)")
    report = analyze(fused, net)
    print(f"  full fusion, d_par {VGG7_DEFAULT_DPAR}: {report.dsp}  (reference 2907)")
    print()

    print("on-chip buffers (32-bit words, 18,432-bit block granularity)")
    for row in report.per_layer[:2]:
        print(f"  layer {row['layer']} ({row['type']}): {row['buffer_bits']:>9,} bits "
              f"= {row['buffer_blocks']} blocks")
    print(f"  whole fused group: {report.buffer_bits:,} bits "
          f"= {report.buffer_blocks} blocks")
    print()

    print("off-chip traffic per input image")
    t = report.traffic
    print(f"  full fusion, 4 B/value:  {t['total'] / MB:6.3f} MB "
          f"(in {t['inputs'] / MB:.3f} + out {t['outputs'] / MB:.3f} + "
          f"weights {t['weights'] / MB:.3f}; reference 6.69)")
    t = analyze(fused, net, reread_weights_per_depth_group=True).traffic
    print(f"    with per-depth-group weight re-reads: {t['total'] / MB:6.3f} MB")
    t = analyze(split, net, 1).traffic
    print(f"  no fusion, 1 B/value:    {t['total'] / MB:6.3f} MB (reference 23.54)")
    full4 = report.traffic["total"] / MB
    print(f"  reduction vs the 77.14 MB layer-by-layer baseline: "
          f"{77.14 / full4:.1f}x")
    print()

    print("cycle estimate (bottleneck steady state + serial fills)")
    print(f"  full fusion: {report.total_estimated_cycles:,} cycles "
          f"= {report.milliseconds:.2f} ms at 120 MHz")
    print(f"  published reference count 5,034k cycles = "
          f"{time_ms(5_034_000):.2f} ms")


if __name__ == "__main__":
    main()
