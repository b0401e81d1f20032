"""Sweep all 64 contiguous fusion partitions of the 7-layer stack and chart
the DSP-vs-traffic trade-off: no fusion reuses one layer's multipliers but
round-trips every intermediate tensor; full fusion needs every group member's
multipliers at once but only touches DRAM at the ends.

Run: python demos/03_fusion_tradeoff.py [out.csv]
"""

import sys

from fusedconv.costmodel import ResourceBudget
from fusedconv.dse import fit_groups, fold_partitions
from fusedconv.networks import vgg_prefix_7

MB = 1_000_000


def main():
    net = vgg_prefix_7()
    budget = ResourceBudget(dsp_max=3600)
    # every group fitted and priced once, then every partition folded from
    # those prices into columns indexed by cut bitmask (bit i: a cut after
    # layer i)
    parts = fold_partitions(net, fit_groups(net, budget), budget)
    text, dsp, traffic, est = parts.text, parts.dsp, parts.traffic_bytes, parts.est_cycles
    front = parts.front()
    print(f"{len(parts.feasible)} partitions evaluated under a 3600-DSP budget "
          f"({len(parts.over_budget)} infeasible)")
    print()

    print("front-to-back merge chain (all singletons down to one group):")
    for k in parts.chain():
        tag = "pareto" if k in front else "      "
        print(f"  {parts.n_groups[k]} groups  {text[k]:17s} "
              f"dsp {dsp[k]:4d}  traffic {traffic[k] / MB:6.2f} MB  "
              f"est {est[k] / 1e6:5.2f}M cycles  {tag}")
    print()

    print("pareto front (ascending DSP):")
    for k in front:
        print(f"  {text[k]:17s} dsp {dsp[k]:4d}  "
              f"traffic {traffic[k] / MB:6.2f} MB")
    print()
    print("merging only ever trades traffic for multipliers: along the chain",
          "DSP never falls and traffic never rises.")

    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            fh.write("plan,groups,dsp,traffic_bytes,est_cycles,buffer_bits,pareto\n")
            for k in parts.feasible.tolist():
                fh.write(f"{text[k]},{parts.n_groups[k]},{dsp[k]},{traffic[k]},"
                         f"{est[k]},{parts.buffer_bits[k]},"
                         f"{1 if k in front else 0}\n")
        print(f"\nwrote {sys.argv[1]}")


if __name__ == "__main__":
    main()
