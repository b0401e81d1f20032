"""simulate_group against a clock that steps every single cycle.

`step_every_cycle` is the simulator's schedule loop as it was before quiet
spans were skipped: it calls every stage's `step` on every cycle. It drives
the same stage classes, so any difference in cycles, stamps, stalls or trace
text comes from the jumps of the clock. The schedule takes dims, not data:
values come after it, from golden.walk_layers, and the tests of
conv_datapath, of the pool values and of simulate_plan check them.
"""

import io
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from fusedconv import dataflow
from fusedconv.config import ConvSpec, Dims, FusionPlan, NetworkSpec, PoolSpec, \
    output_dims, validate_plan
from fusedconv.dataflow import ConvStage, StageStamp, TraceWriter, _build_stages, \
    simulate_group
from fusedconv.networks import consecutive_convs, reduced_vgg_prefix_7


def step_every_cycle(layers, in_dims, d_pars, trace=None, layer_offset=0):
    """Reference schedule loop: transfers for a cycle are decided from the
    previous cycle's state (ready ripples upstream), then every stage steps
    once, front to back, each passing its consumed token downstream.
    Returns the stamps, the stall cycles and the stages."""
    stages = _build_stages(layers, in_dims, d_pars, trace, layer_offset)
    n_stages = len(stages)
    n_src = in_dims.height * in_dims.width
    src_idx = 0
    remaining = n_stages
    stamps = [StageStamp(st.name) for st in stages]
    cycle = 0
    while remaining:
        cycle += 1
        consume = [False] * n_stages
        ready_down = True
        for i in range(n_stages - 1, -1, -1):
            st = stages[i]
            if st.out:
                if ready_down:
                    consume[i] = True
                else:
                    st.out_stall += 1
            ready_down = st.ready()
        carried = ready_down and src_idx < n_src
        src_idx += carried
        for i, st in enumerate(stages):
            st.step(cycle, carried, consume[i])
            carried = consume[i]
            if carried:
                stamp = stamps[i]
                if stamp.emitted == 0:
                    stamp.first_out = cycle
                stamp.last_out = cycle
                stamp.emitted += 1
                if stamp.emitted == st.out_dims.height * st.out_dims.width:
                    remaining -= 1
    return stamps, {st.name: st.out_stall for st in stages}, stages


def engine_counters(stages):
    return [(e.adv, e.issues_done, e.cur_left, e.scalars_emitted, e.windows_latched)
            for e in (st.engine for st in stages if isinstance(st, ConvStage))]


def assert_same_run(layers, in_dims, d_pars, layer_offset=0):
    """Run both loops with a trace; assert every schedule observable, and the
    engines' closed-form counters, agree. Returns the simulator's result."""
    got_trace, want_trace = io.StringIO(), io.StringIO()
    built = []

    def build(*args):
        built.extend(_build_stages(*args))
        return built

    with mock.patch.object(dataflow, "_build_stages", build):
        got = simulate_group(layers, in_dims, d_pars,
                             trace=TraceWriter(got_trace), layer_offset=layer_offset)
    stamps, stalls, want_stages = step_every_cycle(layers, in_dims, d_pars,
                                                   trace=TraceWriter(want_trace),
                                                   layer_offset=layer_offset)
    assert engine_counters(built) == engine_counters(want_stages)
    assert got.cycles == stamps[-1].last_out
    assert got.stamps == stamps
    assert got.stall_cycles == stalls
    assert got_trace.getvalue() == want_trace.getvalue()
    return got


@st.composite
def pipeline_cases(draw):
    """A random conv/pool net and a random plan with any d_par divisor."""
    dims = Dims(draw(st.integers(4, 12)), draw(st.integers(4, 12)), draw(st.integers(1, 8)))
    layers, cur, filters = [], dims, 1
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.integers(0, 3)) or cur.height < 2 or cur.width < 2:
            kernel = draw(st.sampled_from([1, 3]))
            # filter counts never shrink along the chain, as in VGG, so a
            # later stage is often the slower one and holds its feeder
            filters = draw(st.integers(filters, 8))
            spec = ConvSpec(kernel, filters,
                            draw(st.sampled_from([1, 1, 2])),
                            draw(st.integers(0, kernel - 1)), draw(st.booleans()))
        else:
            spec = PoolSpec(*draw(st.sampled_from([(2, 2), (3, 3), (2, 3)])))
        try:
            cur = output_dims(cur, spec)
        except Exception:
            continue
        layers.append(spec)
    if not layers:
        layers = [ConvSpec(1, 2)]
    net = NetworkSpec(dims, tuple(layers))
    n = len(layers)
    # fused chains are where a slow stage holds a fast one's output
    cuts = draw(st.sampled_from([0, draw(st.integers(0, (1 << (n - 1)) - 1))]))
    groups, start = [], 0
    for i in range(n - 1):
        if cuts >> i & 1:
            groups.append((start, i))
            start = i + 1
    groups.append((start, n - 1))
    din = net.layer_input_dims()
    # every divisor may be drawn; the full depth (fastest) comes first
    dpar = tuple(draw(st.sampled_from([x for x in range(din[li].depth, 0, -1)
                                       if din[li].depth % x == 0]))
                 for li in net.conv_indices())
    return net, validate_plan(FusionPlan(tuple(groups), dpar), net)


@given(pipeline_cases())
def test_simulate_group_matches_per_cycle_reference(case):
    net, plan = case
    din = net.layer_input_dims()
    dpar_of = dict(zip(net.conv_indices(), plan.depth_parallel))
    for a, b in plan.groups:
        assert_same_run(net.layers[a:b + 1], din[a],
                        [dpar_of[li] for li in range(a, b + 1) if li in dpar_of],
                        layer_offset=a)


@pytest.mark.parametrize("d_par, stalls", [
    ((3, 1, 1, 1, 1), {"l0.conv": 59689}),
    ((3, 8, 8, 1, 16), {"l0.conv": 36357, "l1.conv": 37477, "l2.pool": 42678,
                        "l3.conv": 55441})])
def test_stalling_chain_matches_per_cycle_reference(d_par, stalls):
    # a fast stage feeding a slow one is held for most of the run
    net = reduced_vgg_prefix_7()
    res = assert_same_run(net.layers, net.input_dims, list(d_par))
    assert {k: v for k, v in res.stall_cycles.items() if v} == stalls


def test_held_windows_skip_most_conv_steps(monkeypatch):
    # a 64-filter conv holds each window for 64 cycles: only the cycles on
    # which something moves may run the stage's step
    net = consecutive_convs(1, input_hw=16)
    step, calls = ConvStage.step, []

    def counted(self, *args):
        calls.append(self)
        return step(self, *args)

    monkeypatch.setattr(ConvStage, "step", counted)
    res = simulate_group(net.layers, net.input_dims, [3])
    assert res.cycles == 16_467
    assert len(calls) * 8 <= res.cycles
    assert calls[0].engine.scalars_emitted == 16 * 16 * 64
