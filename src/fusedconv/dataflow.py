"""Cycle-driven simulation of the fused line-buffer pipeline.

One fused group is a chain of stages (see stages.py):

    input stream -> [line buffer -> conv engine -> assembler] per conv layer
                 -> [pool row buffer] per pool layer -> collector

Transfer decisions for a cycle are taken from previous-cycle state (ready
ripples from the sink upstream, data moves downstream), so evaluation order
cannot change results. Ripple within a stage is combinational, which is
what sustains one window per cycle when a conv layer has a single filter and
no depth decomposition.

Cycle accounting is exact: a group's cycle count is the last cycle on which
any of its stages emits, pipeline flush and a pool's discarded rows included.

The schedule never reads a value, so simulate_group takes layer dims and
d_par, not data, and refuses them through config.validate_plan, as a plan of
one fused group. Values do not depend on the schedule or on group
boundaries: once every group's schedule has run, simulate_plan computes each
layer's values once, through golden.walk_layers, the layer loop the oracle
also runs. A conv layer's values come from golden.conv_values, which reduces
the values that may clamp in adder_tree's order, the engine's, counting
saturation events; a pool layer's are golden.maxpool_layer's. Given an
`oracle` list, simulate_plan also reduces the same products in the oracle's
order while the oracle's stream is still the walk's, and golden.run_network
takes those layers by position.

One element moves per handshake, so every event cycle of a group is a
maximum of earlier event cycles plus constants: each stage's output cycles
are running maxima of its arrival cycles, a max-plus recurrence (Baccelli,
Cohen, Olsder and Quadrat, "Synchronization and Linearity", 1992).
model_group computes them in numpy. It leaves out the refusals of every
stage but the first, so its cycles are a floor; it certifies a group where
none of them would bind at the modeled arrival cycles, and a certified model
is the schedule, stamps included, with no stall. simulate_group returns a
certified model and steps only a group the model cannot certify, one where a
stage is held, through _stepped, whose clocks the next two paragraphs
describe.

Each stage keeps its own clock, as in conservative discrete-event simulation
with one clock per process (Chandy and Misra, IEEE TSE 1979). After each
step a stage reports how many upcoming cycles it only moves counters (a conv
engine holding a window for its k*g filter sweep), which sets the next cycle
it acts on, and counts its own emissions and blocked cycles; the clock
stamps its first and final emission. An event cycle is the next one if an
element can cross a stage boundary, else the first one a stage is due, and
only the stages that act step on it: the due ones, the one an element enters
and those whose output leaves. A quiet stage's out flag and ready() cannot
change (see stages.py), so handshakes read them as its last step left them,
and an idle stage catches up through `skip`, in closed form, only when it
steps, at a row snapshot and at the end.

And above its bottom boundary rows the pipeline is row-periodic: every P
source rows, P the group's strides multiplied, each stage repeats the same
counter changes. At each source-row boundary up to the rows where a bottom
clamp can act, the clock compares the state with the state P rows earlier;
once it is that state translated by one period, and no line buffer's top
clamp overrode its unclamped rule in between, the clock jumps whole
periods at once (_fast_forward). Stepped, fused VGG-7 at 28x28 makes 7,281
stage steps and jumps two periods from source row 19 (10,209 steps without
the jump, 45,745 when each event cycle stepped all seven stages); the model
certifies it and takes none. No shortcut changes a cycle count, stamp or
stall. A trace records the spans these clocks take: each stage's steps, its
quiet skips and the periodic jumps, or one modeled span per stage of a
certified group, which cover every cycle of the stage once.
"""
from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import ConvSpec, Dims, FusionPlan, InternalError, NetworkSpec, output_dims, \
    validate_plan
from .fixedpoint import fx_clamp_count
from .golden import FilterBank, Tensor3D, check_inputs, conv_values, sequential_sum, \
    walk_layers
from .stages import ConvStage, PoolStage

_TREE_NODES = 1 << 17  # int64 leaves per adder-tree chunk (1 MiB), a column per value


@dataclass
class StageStamp:
    """A stage's emissions when its group ends: the cycles of its first and
    final output and how many it emitted."""
    name: str
    first_out: int = 0
    last_out: int = 0
    emitted: int = 0


@dataclass
class GroupResult:
    """One group's schedule: its cycle count, stamps and stalls per stage,
    and whether the max-plus model gave it rather than stepping."""
    cycles: int
    stamps: list
    stall_cycles: dict
    modeled: bool = field(default=False, compare=False)


@dataclass
class SimResult:
    """Functional outputs plus exact cycle accounting for a whole plan."""
    output: Tensor3D
    layer_outputs: list
    cycles_per_group: list
    end_to_end_cycles: int
    stamps_per_group: list
    stall_cycles: dict
    saturation_events: int
    # wall seconds of the group schedules and of the value walk, and how
    # many groups the max-plus model gave; not results
    seconds: tuple = field(compare=False, repr=False)
    modeled: int = field(compare=False, repr=False)


def _tree(a: np.ndarray):
    """A pairwise adder tree over a's leading axis, every node clamped and
    counted; an unpaired last node passes a level as it would with a zero
    pad, which never clamps an in-range node. Returns (the root, events)."""
    events = 0
    while len(a) > 1:
        h = len(a) // 2
        nxt = np.empty((len(a) - h,) + a.shape[1:], dtype=np.int64)
        np.add(a[0:2 * h:2], a[1:2 * h:2], out=nxt[:h])
        if len(a) % 2:
            nxt[h] = a[-1]
        events += fx_clamp_count(nxt[:h])
        a = nxt
    return a[0], events


def adder_tree(w: int, g: int, d_par: int):
    """The engine's order, as a golden.conv_values reduction, for w x w
    kernels over g serial depth groups of d_par channels: per value, a
    pairwise adder tree over each channel's w*w products, one over the d_par
    channels of each group, then a running sum over the groups, with every
    node and sum clamped and counted."""
    def reduce(prod):
        vals = np.empty(prod.shape[1], dtype=np.int64)
        n = max(1, _TREE_NODES // len(prod))
        events = 0
        for i in range(0, len(vals), n):
            # a value's taps (row, column, depth) split as (w*w, g, d_par)
            chans, ev = _tree(prod[:, i:i + n].reshape(w * w, g, d_par, -1))
            groups, ev2 = _tree(chans.swapaxes(0, 1))
            events += ev + ev2
            acc = groups[0]
            for j in range(1, g):
                acc = acc + groups[j]
                events += fx_clamp_count(acc)
            vals[i:i + n] = acc
        return vals, events
    return reduce


def conv_datapath(x: np.ndarray, bank: FilterBank, spec: ConvSpec, d_par: int,
                  frac_bits: int):
    """One conv layer's values in the engine's order (see adder_tree) where
    they may clamp. Returns ((h_out, w_out, k) int32, saturation events)."""
    tree = adder_tree(bank.kernel, bank.depth // d_par, d_par)
    return conv_values(x, bank.data, spec, frac_bits, (tree,))[0]


def _build_stages(layers, in_dims, d_pars, layer_offset):
    stages, dims, d_pars = [], in_dims, iter(d_pars)
    for i, layer in enumerate(layers, layer_offset):
        if isinstance(layer, ConvSpec):
            stages.append(ConvStage(layer, dims, next(d_pars), name=f"l{i}.conv"))
        else:
            stages.append(PoolStage(layer, dims, name=f"l{i}.pool"))
        dims = stages[-1].out_dims
    return stages


def _fast_forward(old, new, stages, periods, max_cycles):
    """Skip whole periods from snapshot `new`, given `old`, one period before
    it; a snapshot is a cycle and each stage's state() at its end. Skips
    nothing unless each stage's state is its old state translated by one
    period, with every delta its row_period fixes. The rules each decision
    reads the counters through commute with the translation, so m more
    periods land on the state translated m times, except where a boundary
    clamp acts. A bottom clamp acts past a row_period bound; every counter
    only grows, so the landing state's counters bound m. The one top clamp
    that decides anything, ready()'s, changes a transition only where it
    admits an element the unclamped rule refuses. The override count, whose
    fixed delta is 0, refuses a period with one; a period without took the
    unclamped rules' decisions, as every later one does. (_set_threshold's
    r_top feeds only the overwrite guard, which translate recomputes.) A
    stage's fixed emitted delta is at least 1, so at `new` it has made its
    first emission, where the clock set first_out; the emitted bound, n_out
    - 1, leaves its final one, where the clock sets last_out, to a stepped
    cycle. The landing cycle stays within the watchdog's max_cycles. Returns
    (m, cycles per period)."""
    (c0, snap0), (c1, snap1) = old, new
    dc = c1 - c0
    m = (max_cycles - c1) // dc
    deltas = []
    for (cnt0, rest0), (cnt1, rest1), (fixed, bounds) in zip(snap0, snap1, periods):
        delta = tuple(b - a for a, b in zip(cnt0, cnt1))
        if rest0 != rest1 or any(f is not None and f != d for f, d in zip(fixed, delta)):
            return 0, dc
        for c, d, hi in zip(cnt1, delta, bounds):
            if hi is not None:
                m = min(m, (hi - c) // d)
        deltas.append(delta)
    if m > 0:
        for st, delta in zip(stages, deltas):
            st.translate(m, delta)
    return max(m, 0), dc


def _last_covering(x, pad: int, stride: int, n_out: int, w: int):
    """stages._last_needing over an array of coordinates; -1 where no window
    covers one."""
    idx = np.minimum((x + pad) // stride, n_out - 1)
    return np.where(x <= idx * stride - pad + w - 1, idx, -1)


def _timing(st):
    """Stage st's max-plus map: from the arrival cycles of its input elements,
    in raster order, to (the cycles its output elements leave it, the first
    cycle on which ready() admits each input element, 0 where it always
    does), for a stage whose output is never held."""
    if isinstance(st, PoolStage):
        n, s, win = st.w_out, st.stride, st.window
        rows = np.arange(st.h_out) * n
        # row rho drains from D = max(its trigger's arrival + 1, D' + n), D'
        # the previous row's; an element of row rho + 1 lands in slot j once
        # slot j of row rho has drained, on D + j
        trigger = (np.arange(st.h_out) * s + win - 1) * st.w_in + (n - 1) * s + win - 1
        r, c = np.arange(st.h_in), np.arange(st.w_in)
        prev = np.where((r % s < win) & (r // s < st.h_out), r // s - 1, -1)
        slot = np.where((c % s < win) & (c // s < n), c // s, -1)
        gate = (prev >= 0)[:, None] & (slot >= 0)

        def times(a):
            drain = np.maximum.accumulate(a[trigger] + 1 - rows) + rows
            release = np.where(gate, drain[prev][:, None] + slot + 1, 0)
            return (drain[:, None] + np.arange(1, n + 1)).ravel(), release.ravel()
        return times
    # window j leaves the line buffer at S = max(A, T'), A its last element's
    # arrival + 1 and T' the cycle the engine took window j - 1, and is
    # taken at T = max(A + 1, T' + kg); its element leaves kg + latency later
    kg = np.arange(st.n_windows) * st.kg
    last = (np.minimum(np.arange(st.h_out) * st.s - st.p + st.w - 1, st.h - 1)[:, None]
            * st.w_in + np.minimum(np.arange(st.w_out) * st.s - st.p + st.w - 1,
                                   st.w_in - 1)).ravel()
    # element (r, c) waits for the last window covering (r - w, c) to leave;
    # the top clamp admits the first w rows
    rho = _last_covering(np.arange(st.h) - st.w, st.p, st.s, st.h_out, st.w)
    rho[:st.w] = -1
    gam = _last_covering(np.arange(st.w_in), st.p, st.s, st.w_out, st.w)
    gated = ((rho >= 0)[:, None] & (gam >= 0)).ravel()
    gate = np.where(gated, (rho[:, None] * st.w_out + gam).ravel(), 0)

    def times(a):
        done = a[last] + 1
        start = np.maximum.accumulate(done + 1 - kg) + kg
        leave = np.maximum(done, np.concatenate(([0], start[:-1])))
        return start + st.kg + st.latency, np.where(gated, leave[gate] + 1, 0)
    return times


def model_group(layers, in_dims: Dims, d_pars, layer_offset: int = 0):
    """One fused group's schedule as a max-plus model (Baccelli, Cohen,
    Olsder and Quadrat, "Synchronization and Linearity", 1992): each event
    cycle is a maximum of earlier event cycles plus constants, so each
    stage's output cycles are running maxima of its arrival cycles
    (_timing), computed in numpy with no per-cycle loop. The first stage's
    arrivals are the source's, which offers element e one cycle after it
    took element e - 1 and waits while the stage refuses it: they are
    iterated from e + 1 to the fixed point a = e + cummax(max(release - e,
    1)), release the cycle from which the stage admits e, which depends on
    earlier arrivals only. Every later stage takes its feeder's outputs as
    they leave.

    A floor: the model keeps every term of the schedule's maxima except
    those a later stage's ready() adds, where it refuses an element, holds
    its feeder's output and may freeze its engine. Dropping a term from a
    maximum can only lower it, and every later event is a maximum over
    earlier ones, so no modeled cycle exceeds the stepped schedule's.

    Certified where the dropped terms never bind: every later stage's
    arrivals are at or after its release cycles, so every output leaves the
    cycle after it is ready and no stage is held. Then the model is the
    schedule, cycle for cycle. Returns (GroupResult, with every stall 0,
    certified)."""
    stages = _build_stages(layers, in_dims, d_pars, layer_offset)
    idx = np.arange(in_dims.height * in_dims.width)
    first, arrive = _timing(stages[0]), idx + 1
    while True:
        out, release = first(arrive)
        fixed = idx + np.maximum.accumulate(np.maximum(release - idx, 1))
        if np.array_equal(fixed, arrive):
            break
        arrive = fixed
    emits, certified = [out], True
    for st in stages[1:]:
        out, release = _timing(st)(emits[-1])
        certified = certified and bool((emits[-1] >= release).all())
        emits.append(out)
    stamps = [StageStamp(st.name, int(e[0]), int(e[-1]), len(e))
              for st, e in zip(stages, emits)]
    return GroupResult(max(s.last_out for s in stamps), stamps,
                       {st.name: 0 for st in stages}, modeled=True), certified


def simulate_group(layers, in_dims: Dims, d_pars, trace=None,
                   layer_offset: int = 0) -> GroupResult:
    """Run one fused group's schedule on an in_dims input: the input streams
    one element per cycle while the chain accepts, then flush cycles run
    until every stage has emitted its complete output (trailing rows a pool
    discards still flow through). The group's cycle count is the last of
    these cycles: the last stage's last output, or a later one of an earlier
    stage where a pool discards trailing rows. Only presence tokens move, so
    no value is read or computed here.

    Where model_group certifies the group, returns its result and steps
    nothing; otherwise steps the schedule (_stepped). Given a list as
    `trace`, appends the spans the schedule takes, each (stage index, kind,
    first cycle, cycles, periods): per stage one "modeled" span of a
    certified group, or those of _stepped. Each stage's spans cover the
    schedule's cycles once, from 1 to the group's count. Raises
    ValidationError on a chain or d_pars that config.validate_plan refuses
    as one fused group."""
    validate_plan(FusionPlan(((0, len(layers) - 1),), d_pars), NetworkSpec(in_dims, layers))
    res, certified = model_group(layers, in_dims, d_pars, layer_offset)
    if not certified:
        return _stepped(layers, in_dims, d_pars, trace, layer_offset)
    if trace is not None:
        trace.extend((i, "modeled", 1, res.cycles, 0) for i in range(len(layers)))
    return res


def _stepped(layers, in_dims: Dims, d_pars, trace=None, layer_offset: int = 0) -> GroupResult:
    """simulate_group's schedule stepped by the stages' own clocks, for any
    chain validate_plan admits. A trace gets a 1-cycle "step" span, a
    "quiet" skip, and per stage a "periodic" jump over `periods` periods."""
    stages = _build_stages(layers, in_dims, d_pars, layer_offset)
    n_stages = len(stages)

    n_src = in_dims.height * in_dims.width
    src_idx = 0

    expected = [st.out_dims.height * st.out_dims.width for st in stages]
    remaining = n_stages

    readys = [st.ready for st in stages]
    steps = [st.step for st in stages]
    quiet = [st.quiet_for for st in stages]
    skips = [st.skip for st in stages]

    budget = n_src
    for st, n_out in zip(stages, expected):
        budget += n_out * (st.kg if isinstance(st, ConvStage) else 1)
    max_cycles = 16 * budget + 100_000

    # row-periodic fast-forward: a period is as many source rows as the
    # group's strides multiply to; stage i takes period // S_i input rows of
    # it, S_i the strides before it multiplied. Up to source row hi no
    # stage's bottom clamp can act.
    period = math.prod(layer.stride for layer in layers)
    width = in_dims.width
    periods, hi, rows = [], in_dims.height - 1, period
    for st, layer in zip(stages, layers):
        periods.append(st.row_period(rows))
        hi = min(hi, (periods[-1][1][0] + 1) * (period // rows) - 1)
        rows //= layer.stride
    # snapshot rows 1 to hi - period, and only if they span three periods,
    # so that a jump skips one at least
    probe_at = -1 if hi - 1 < 3 * period else width
    last_probe = (hi - period) * width
    history = deque(maxlen=period + 1)

    # per stage: the cycle it has run to, the next cycle it acts on its own,
    # and its out flag and ready() there, which hold while it stays quiet
    clock = [0] * n_stages
    due = [1 + q() for q in quiet]
    outs = [False] * n_stages
    rdys = [r() for r in readys]
    consume = [False] * n_stages
    stage_range = range(n_stages)
    cycle = 0

    def catch_up(to):  # skip every stage that lags to cycle `to`
        for i in stage_range:
            if clock[i] < to:
                skips[i](to - clock[i])
                clock[i] = to

    if trace is not None:
        def spans(i, step, skip):
            def traced_step(in_elem, out_consumed):
                trace.append((i, "step", cycle, 1, 0))
                step(in_elem, out_consumed)

            def traced_skip(n):
                trace.append((i, "quiet", clock[i] + 1, n, 0))
                skip(n)
            return traced_step, traced_skip
        steps, skips = zip(*(spans(i, *f) for i, f in enumerate(zip(steps, skips))))

    while remaining:
        # transfers are decided from the state at the end of `cycle`; with
        # none, the next event is the first cycle on which a stage is due,
        # past the budget when none is, so that a stuck pipeline trips it
        ready_down = True
        for i in range(n_stages - 1, -1, -1):
            consume[i] = outs[i] and ready_down
            ready_down = rdys[i]
        carried = ready_down and src_idx < n_src
        cycle = cycle + 1 if carried or True in consume else min(due)
        if cycle > max_cycles:
            raise InternalError(
                f"pipeline made no progress within {max_cycles} cycles "
                f"(collected {stages[-1].emitted}/{expected[-1]})")
        src_idx += carried

        # step the stages that act: due, fed or drained, each first skipped
        # across the quiet cycles since it last ran
        for i in stage_range:
            c = consume[i]
            if carried or c or due[i] == cycle:
                n = cycle - 1 - clock[i]
                if n:
                    skips[i](n)
                steps[i](carried, c)
                clock[i] = cycle
                due[i] = cycle + 1 + quiet[i]()
                rdys[i] = readys[i]()
                st = stages[i]
                outs[i] = st.out
                if c:
                    if st.emitted == 1:
                        st.first_out = cycle
                    if st.emitted == expected[i]:
                        st.last_out = cycle
                        remaining -= 1
            carried = c

        if src_idx == probe_at:
            # a source row is complete; only a carrying cycle gets here
            catch_up(cycle)
            history.append((cycle, [st.state() for st in stages]))
            probe_at += width
            if len(history) > period:
                m, dc = _fast_forward(history[0], history[-1], stages, periods, max_cycles)
                if m:
                    if trace is not None:
                        trace.extend((i, "periodic", cycle + 1, m * dc, m) for i in stage_range)
                    cycle += m * dc
                    src_idx += m * period * width
                    probe_at = -1
                    for i in stage_range:
                        clock[i] = cycle
                        due[i] = cycle + 1 + quiet[i]()
                        rdys[i] = readys[i]()
            if probe_at > last_probe:
                probe_at = -1

    catch_up(cycle)
    return GroupResult(
        cycles=cycle,
        stamps=[StageStamp(st.name, st.first_out, st.last_out, st.emitted) for st in stages],
        stall_cycles={st.name: st.out_stall for st in stages})


def simulate_plan(net: NetworkSpec, input_t: Tensor3D, weights, plan: FusionPlan,
                  trace=None, oracle=None) -> SimResult:
    """Run the plan's group schedules in turn; each group boundary
    round-trips a full tensor (the traffic model charges it; transfer cycles
    are not simulated). Total cycles are the sum of group cycles. Values do
    not depend on group boundaries, so every layer's values then come from
    one golden.walk_layers over the network, each conv layer's reduced in
    the engine's order at its d_par. Given a list as `trace`, appends each
    group's spans to it, as one list per group (see simulate_group). Given a
    list as `oracle`, also reduces each conv layer in the oracle's order
    while the oracle's stream is still the walk's (no earlier conv layer's
    orders gave two arrays), and appends its (values, events) there."""
    validate_plan(plan, net)
    check_inputs(net, input_t, weights)
    in_dims = net.layer_input_dims()
    t0 = time.monotonic()
    groups = []
    for a, b in plan.groups:
        spans = None if trace is None else []
        groups.append(simulate_group(net.layers[a:b + 1], in_dims[a],
                                     plan.depth_parallel[net.conv_slice((a, b))], spans,
                                     layer_offset=a))
        if trace is not None:
            trace.append(spans)
    shared = oracle is not None

    def datapath(t, bank, spec, i):
        nonlocal shared
        d_par = plan.depth_parallel[i]
        tree = adder_tree(bank.kernel, bank.depth // d_par, d_par)
        (x, events), *theirs = conv_values(t.data, bank.data, spec, net.fmt.frac_bits,
                                           (tree, sequential_sum) if shared else (tree,))
        if theirs:
            oracle.append(theirs[0])
            shared = theirs[0][0] is x
        return Tensor3D(output_dims(t.dims, spec), x), events

    t1 = time.monotonic()
    layer_outputs, events = walk_layers(net, input_t, weights, datapath)
    cycles_per_group = [g.cycles for g in groups]
    return SimResult(
        output=layer_outputs[-1],
        layer_outputs=layer_outputs,
        cycles_per_group=cycles_per_group,
        end_to_end_cycles=sum(cycles_per_group),
        stamps_per_group=[g.stamps for g in groups],
        stall_cycles={name: n for g in groups for name, n in g.stall_cycles.items()},
        saturation_events=events,
        seconds=(t1 - t0, time.monotonic() - t1),
        modeled=sum(g.modeled for g in groups))
