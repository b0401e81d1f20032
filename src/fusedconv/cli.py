"""Command-line front end.

Subcommands: gen (seeded tensors/weights), golden (layer-by-layer reference
run), simulate (cycle-driven pipeline run), analyze (closed-form costs), dse
(fusion trade-off sweep). All outputs are deterministic for fixed inputs and
flags; wall-clock timing goes to stderr only.

Exit codes: 0 success, 1 usage/parse error, 2 validation error, 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

from . import __version__, costmodel, dse
from .config import (Dims, FusionPlan, InternalError, NetworkSpec, ParseError,
                     ValidationError, dpar_to_text, parse_network, parse_plan, plan_to_text)
from .dataflow import simulate_plan
from .datagen import generate_tensor, generate_weights
from .fileio import (canonical_json, network_digest, read_tensor, read_weights,
                     tensor_digest, write_tensor, write_weights)
from .golden import check_inputs, run_network


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _load_network(path: str) -> NetworkSpec:
    with open(path) as fh:
        return parse_network(fh.read())


def _plan_from_args(args, net: NetworkSpec):
    expr = args.plan if args.plan else f"0-{len(net.layers) - 1}"
    return parse_plan(expr, net, args.dpar)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_report(out_dir, name, report: dict):
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(canonical_json(report))
    return path


def _report(command: str, net: NetworkSpec, plan: FusionPlan = None, **fields) -> dict:
    """A report: the tool, command and network digest, then the plan, its
    depth parallelism and the layer dims when a plan is given, then fields."""
    head = {"tool": {"name": "fusedconv", "version": __version__},
            "command": command, "network_digest": network_digest(net)}
    if plan is not None:
        head.update(plan=plan_to_text(plan), depth_parallel=list(plan.depth_parallel),
                    layer_dims=_dims_list(net))
    return {**head, **fields}


def _dims_list(net: NetworkSpec):
    return [[d.height, d.width, d.depth] for d in net.layer_dims()]


def cmd_gen(args) -> int:
    banks = None
    if args.network:
        net = _load_network(args.network)
        tensor = generate_tensor(net.input_dims, args.seed)
        banks = generate_weights(net, args.seed + 1)
    elif args.dims:
        try:
            h, w, d = (int(x) for x in args.dims.lower().split("x"))
        except ValueError:
            raise ParseError(f"--dims must be HxWxD, got {args.dims!r}") from None
        tensor = generate_tensor(Dims(h, w, d), args.seed)
    else:
        raise ParseError("gen requires --network or --dims")
    out = _ensure_out(args.out)  # only now, so that a refused run makes no directory
    tpath = os.path.join(out, "input.dclf")
    write_tensor(tpath, tensor)
    wrote = f"{tpath} ({tensor.dims.height}x{tensor.dims.width}x{tensor.dims.depth})"
    if banks is not None:
        wpath = os.path.join(out, "weights.bin")
        write_weights(wpath, banks)
        wrote += f" and {wpath}"
    print(f"wrote {wrote}")
    return 0


def cmd_golden(args) -> int:
    """Run the oracle and write every layer's tensor and a report; stderr
    gets the seconds of the oracle and of the writes."""
    t0 = time.monotonic()
    net = _load_network(args.network)
    tensor = read_tensor(args.input)
    banks = read_weights(args.weights, net)
    t_oracle = time.monotonic()
    outputs, saturation = run_network(net, tensor, banks)
    t_write = time.monotonic()
    out = _ensure_out(args.out)
    digests = []
    for i, t in enumerate(outputs):
        path = os.path.join(out, f"layer{i:02d}.dclf")
        write_tensor(path, t)
        digests.append(tensor_digest(t))
    report = _report("golden", net, layer_dims=_dims_list(net), layer_digests=digests,
                     saturation_events=saturation)
    _write_report(out, "report.json", report)
    print(f"golden: {len(outputs)} layer tensors -> {out} "
          f"(saturation events: {saturation})")
    t_done = time.monotonic()
    print(f"elapsed: {t_done - t0:.2f}s (oracle {t_write - t_oracle:.2f}s, "
          f"write {t_done - t_write:.2f}s)", file=sys.stderr)
    return 0


def _stamps_dict(sim):
    return [[{"stage": s.name, "first_out": s.first_out,
              "last_out": s.last_out, "emitted": s.emitted}
             for s in stamps]
            for stamps in sim.stamps_per_group]


def _write_trace(fh, sim):
    """The schedule's spans as Chrome trace-event JSON: one track per stage,
    `ts` and `dur` in cycles, cycle c spanning [c - 1, c), each group after
    the cycles of the groups before it. Each stage has one `modeled` span,
    over its group's cycles."""
    events, tid, offset = [], 0, 0
    for stamps, cycles in zip(sim.stamps_per_group, sim.cycles_per_group):
        events += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid + i,
                    "args": {"name": s.name}} for i, s in enumerate(stamps)]
        events += [{"name": "modeled", "ph": "X", "pid": 1, "tid": tid + i,
                    "ts": offset, "dur": cycles, "args": {}} for i in range(len(stamps))]
        tid += len(stamps)
        offset += cycles
    json.dump({"traceEvents": events, "otherData": {"time_unit": "cycle"}}, fh)


def cmd_simulate(args) -> int:
    """Simulate the plan, then check its output against the oracle, which
    takes by position the conv layers the simulator's value walk also
    reduced in its order. stderr gets the seconds of the schedule, of the
    value walk and of the oracle, and how many oracle conv layers it took."""
    t0 = time.monotonic()
    net = _load_network(args.network)
    tensor = read_tensor(args.input)
    banks = read_weights(args.weights, net)
    plan = _plan_from_args(args, net)
    check_inputs(net, tensor, banks)

    # opened before any work, but only once the inputs pass their checks
    trace_fh = open(args.trace, "w") if args.trace else contextlib.nullcontext()
    taken = []
    with trace_fh:
        sim = simulate_plan(net, tensor, banks, plan, oracle=taken)
        if args.trace:
            _write_trace(trace_fh, sim)
    t_oracle = time.monotonic()
    golden_outputs, golden_sat = run_network(net, tensor, banks, taken)
    t_done = time.monotonic()
    golden_match = sim.layer_outputs[-1].equals(golden_outputs[-1])
    if sim.saturation_events == golden_sat == 0 and not golden_match:
        raise InternalError("zero saturation events but simulator output "
                            "differs from the layer-by-layer reference")

    digests = [tensor_digest(t) for t in sim.layer_outputs]
    ms = costmodel.time_ms(sim.end_to_end_cycles, args.freq_mhz)
    cost = costmodel.analyze(plan, net, args.bytes_per_value, args.freq_mhz,
                             args.reread_weights_per_depth_group)
    report = _report("simulate", net, plan, cost=cost.to_dict(), simulation={
        "cycles_per_group": sim.cycles_per_group,
        "end_to_end_cycles": sim.end_to_end_cycles,
        "milliseconds": ms,
        "frequency_mhz": args.freq_mhz,
        "saturation_events": sim.saturation_events,
        "golden_match": golden_match,
        "stage_stamps": _stamps_dict(sim),
        "stall_cycles": sim.stall_cycles,
        "output_digest": digests[-1],
        "layer_output_digests": digests})
    if args.out:
        out = _ensure_out(args.out)
        write_tensor(os.path.join(out, "final.dclf"), sim.layer_outputs[-1])
        _write_report(out, "report.json", report)
    print(f"simulate: plan {plan_to_text(plan)} dpar {dpar_to_text(plan)}")
    print(f"  end-to-end cycles: {sim.end_to_end_cycles} "
          f"({ms:.3f} ms at {args.freq_mhz:g} MHz)")
    print(f"  golden match: {golden_match}  saturation events: {sim.saturation_events}")
    print(f"  output digest: {report['simulation']['output_digest']}")
    print(f"elapsed: {time.monotonic() - t0:.2f}s (schedule {sim.seconds[0]:.2f}s, "
          f"values {sim.seconds[1]:.2f}s, oracle {t_done - t_oracle:.2f}s, "
          f"{len(taken)} of {len(net.conv_indices())} oracle conv layers from the value walk)",
          file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    net = _load_network(args.network)
    plan = _plan_from_args(args, net)
    cost = costmodel.analyze(plan, net, args.bytes_per_value, args.freq_mhz,
                             args.reread_weights_per_depth_group)
    report = _report("analyze", net, plan, cost=cost.to_dict())
    if args.out:
        _write_report(_ensure_out(args.out), "report.json", report)
    sys.stdout.write(canonical_json(report))
    return 0


def cmd_dse(args) -> int:
    t0 = time.monotonic()
    net = _load_network(args.network)
    budget = costmodel.ResourceBudget(dsp_max=args.dsp_max)
    t_fit = time.monotonic()
    fits = dse.fit_groups(net, budget, args.reread_weights_per_depth_group)
    t_fold = time.monotonic()
    parts = dse.fold_partitions(net, fits, budget, args.bytes_per_value)
    if not len(parts.feasible):
        raise ValidationError("no feasible plan under the DSP budget")
    t_front = time.monotonic()
    front = parts.front()
    t_done = time.monotonic()
    text, feasible = parts.text, parts.feasible

    on_front = set(front)
    rows = zip(feasible.tolist(), *(c[feasible].tolist() for c in (
        parts.n_groups, parts.dsp, parts.traffic_bytes, parts.est_cycles, parts.buffer_bits)))
    lines = ["plan,groups,dsp,traffic_bytes,est_cycles,buffer_bits,pareto"]
    lines += [f"{text[k]},{groups},{dsp},{traffic},{est},{bits},{int(k in on_front)}"
              for k, groups, dsp, traffic, est, bits in rows]
    csv_text = "\n".join(lines) + "\n"

    def figures(k, *names):  # partition k's entries in the named columns
        return {name: getattr(parts, name)[k].item() for name in names}

    report = _report(
        "dse", net, dsp_max=args.dsp_max, bytes_per_value=args.bytes_per_value,
        plans_evaluated=len(feasible),
        infeasible=[{"plan": text[k],
                     "reason": dse.budget_reason(parts.groups(k), fits, budget)}
                    for k in parts.over_budget.tolist()],
        pareto_front=[{"plan": text[k], "depth_parallel": list(parts.depth_parallel(k)),
                       **figures(k, "dsp", "traffic_bytes", "est_cycles", "buffer_bits")}
                      for k in front],
        merge_chain=[{"groups": parts.n_groups[k].item(), "plan": text[k],
                      **figures(k, "dsp", "traffic_bytes", "est_cycles")}
                     for k in parts.chain()])
    if args.out:
        out = _ensure_out(args.out)
        with open(os.path.join(out, "dse.csv"), "w") as fh:
            fh.write(csv_text)
        _write_report(out, "report.json", report)
    else:
        sys.stdout.write(csv_text)
    first, last = report["pareto_front"][0], report["pareto_front"][-1]
    print(f"dse: {len(feasible)} plans, {len(parts.over_budget)} infeasible, "
          f"front of {len(front)} (dsp {first['dsp']}..{last['dsp']}, "
          f"traffic {last['traffic_bytes']}..{first['traffic_bytes']} bytes)")
    print(f"elapsed: {time.monotonic() - t0:.2f}s (fit {t_fold - t_fit:.2f}s, "
          f"fold {t_front - t_fold:.2f}s, front {t_done - t_front:.2f}s)", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fusedconv",
                     description="Fused line-buffer CNN accelerator model")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def frequency(text):  # finite and >= 1 kHz, so time_ms <= cycles
        value = float(text)
        if not (value * 1000.0 >= 1.0 and value < math.inf):
            raise ValueError(text)
        return value

    def common_cost_flags(p, freq=True):
        p.add_argument("--bytes-per-value", type=int, default=4, choices=(1, 2, 4))
        if freq:
            p.add_argument("--freq-mhz", type=frequency, default=costmodel.DEFAULT_FREQUENCY_MHZ)
        p.add_argument("--reread-weights-per-depth-group", action="store_true")

    p = sub.add_parser("gen", help="generate seeded tensor/weight files")
    p.add_argument("--network")
    p.add_argument("--dims", help="HxWxD for a bare tensor")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("golden", help="layer-by-layer reference run")
    p.add_argument("--network", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_golden)

    p = sub.add_parser("simulate", help="cycle-driven pipeline run")
    p.add_argument("--network", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--plan", help="fusion plan, default: all layers fused")
    p.add_argument("--dpar", help="comma-separated d_par per conv layer")
    p.add_argument("--trace", help="write the schedule's spans to this path, "
                   "as Chrome trace-event JSON")
    p.add_argument("--out")
    common_cost_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="closed-form cost report, no simulation")
    p.add_argument("--network", required=True)
    p.add_argument("--plan")
    p.add_argument("--dpar")
    p.add_argument("--out")
    common_cost_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dse", help="sweep all fusion partitions")
    p.add_argument("--network", required=True)
    p.add_argument("--dsp-max", type=int, default=costmodel.VIRTEX7_DSP)
    p.add_argument("--out")
    common_cost_flags(p, freq=False)
    p.set_defaults(func=cmd_dse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # UnicodeDecodeError: the network file is not UTF-8 text
    except (ParseError, UnicodeDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # dims within the format's bounds, too large to hold
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
