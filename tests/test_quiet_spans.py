"""simulate_group against a clock that steps every single cycle.

`step_every_cycle` is the simulator's schedule loop as it was before quiet
spans were skipped, row-periodic stretches fast-forwarded and each stage
given its own clock: it calls every stage's `step` on every cycle. It drives
the same stage classes, so any difference in cycles, stamps or stalls comes
from the jumps of the clocks (dataflow._stepped) or from the max-plus model
(dataflow.model_group), which simulate_group returns where it certifies a
group. The model must never exceed the schedule, and must equal it where it
certifies. A traced run takes the same steps and jumps as an untraced one
and records them as spans, which must cover each stage's cycles once. The
schedule takes dims, not data:
values come after it, from golden.walk_layers, and the tests of
conv_datapath, of the pool values and of simulate_plan check them.
"""

import copy
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fusedconv import dataflow
from fusedconv.config import ConvSpec, Dims, FusionPlan, NetworkSpec, PoolSpec, \
    output_dims, validate_plan
from fusedconv.dataflow import GroupResult, StageStamp, _build_stages, _stepped, model_group, \
    simulate_group
from fusedconv.networks import VGG7_DEFAULT_DPAR, consecutive_convs, vgg_prefix_7
from fusedconv.stages import _FOREVER, ConvStage, PoolStage

from conftest import reduced_vgg_prefix_7


def step_every_cycle(layers, in_dims, d_pars, layer_offset=0, until=None, watch=None):
    """Reference schedule loop: transfers for a cycle are decided from the
    previous cycle's state (ready ripples upstream), then every stage steps
    once, front to back, each passing its consumed token downstream. Runs
    to the end, or to cycle `until`, and calls watch(cycle, stages) after
    every cycle, if given. Returns the stamps, the stall cycles and the
    stages. It keeps its own stamps and stall counts, never the ones the
    stages book themselves."""
    stages = _build_stages(layers, in_dims, d_pars, layer_offset)
    n_stages = len(stages)
    n_src = in_dims.height * in_dims.width
    src_idx = 0
    remaining = n_stages
    stamps = [StageStamp(st.name) for st in stages]
    stalls = {st.name: 0 for st in stages}
    cycle = 0
    while remaining and cycle != until:
        cycle += 1
        consume = [False] * n_stages
        ready_down = True
        for i in range(n_stages - 1, -1, -1):
            st = stages[i]
            if st.out:
                if ready_down:
                    consume[i] = True
                else:
                    stalls[st.name] += 1
            ready_down = st.ready()
        carried = ready_down and src_idx < n_src
        src_idx += carried
        for i, st in enumerate(stages):
            st.step(carried, consume[i])
            carried = consume[i]
            if carried:
                stamp = stamps[i]
                if stamp.emitted == 0:
                    stamp.first_out = cycle
                stamp.last_out = cycle
                stamp.emitted += 1
                if stamp.emitted == st.out_dims.height * st.out_dims.width:
                    remaining -= 1
        if watch:
            watch(cycle, stages)
    return stamps, stalls, stages


def engine_counters(stages):
    return [(st.adv, st.cur_left, st.skid, tuple(st.emq), st.widx)
            for st in stages if isinstance(st, ConvStage)]


def counted_run(layers, in_dims, d_pars, layer_offset=0, trace=None):
    """The stepped schedule, _stepped, counting its stage steps and keeping
    its jumps.
    Returns the result, the stages, the step count and each jump's
    (periods, cycles per period)."""
    built, steps, jumps = [], [], []
    fast_forward = dataflow._fast_forward

    def build(*args):
        built.extend(_build_stages(*args))
        for st in built:
            st.step = lambda *a, step=st.step: steps.append(1) or step(*a)
        return built

    def jump(*args):
        m, dc = fast_forward(*args)
        if m:
            jumps.append((m, dc))
        return m, dc

    with mock.patch.object(dataflow, "_build_stages", build), \
            mock.patch.object(dataflow, "_fast_forward", jump):
        res = _stepped(layers, in_dims, d_pars, trace, layer_offset=layer_offset)
    return res, built, len(steps), jumps


def assert_spans_tile(spans, n_stages, cycles):
    """In the order recorded, each stage's spans cover cycles 1..cycles once:
    one modeled span, or steps, quiet skips and periodic jumps."""
    for i in range(n_stages):
        end = 0
        for _, kind, first, n, m in (s for s in spans if s[0] == i):
            assert first == end + 1 and n >= 1
            assert (kind, n, m) == ("step", 1, 0) or (kind == "quiet" and m == 0) \
                or (kind == "periodic" and m >= 1 and n % m == 0) \
                or (kind, first, n, m) == ("modeled", 1, cycles, 0)
            end += n
        assert end == cycles


def assert_traced_like_untraced(layers, in_dims, d_pars, layer_offset=0):
    """A traced run takes an untraced run's steps and jumps, to the same
    result, and its spans tile every stage's cycles. Returns the traced
    result, its spans and its stages."""
    spans = []
    got, built, steps, jumps = counted_run(layers, in_dims, d_pars, layer_offset, spans)
    untraced, _, untraced_steps, untraced_jumps = counted_run(
        layers, in_dims, d_pars, layer_offset)
    assert got == untraced
    assert (steps, jumps) == (untraced_steps, untraced_jumps)
    assert steps == sum(kind == "step" for _, kind, *_ in spans)
    assert [(m, n // m) for _, kind, _, n, m in spans if kind == "periodic"] == \
        [jump for jump in jumps for _ in built]
    assert_spans_tile(spans, len(built), got.cycles)
    return got, spans, built


def assert_same_run(layers, in_dims, d_pars, layer_offset=0):
    """Run the stepped schedule traced and untraced, simulate_group, the
    max-plus model and the reference loop. Assert every schedule observable
    of the first two, and the engines' closed-form counters, agree with the
    reference; that the model's cycles are a floor, and that where it
    certifies the group it is the reference and simulate_group steps
    nothing. Returns the stepped traced result and its spans."""
    got, spans, built = assert_traced_like_untraced(layers, in_dims, d_pars, layer_offset)
    stamps, stalls, want_stages = step_every_cycle(layers, in_dims, d_pars, layer_offset)
    assert engine_counters(built) == engine_counters(want_stages)
    want = GroupResult(max(s.last_out for s in stamps), stamps, stalls)
    assert got == want
    modeled, certified = model_group(layers, in_dims, d_pars, layer_offset)
    assert modeled.cycles <= want.cycles
    dispatched = []
    assert simulate_group(layers, in_dims, d_pars, dispatched, layer_offset) == want
    assert_spans_tile(dispatched, len(built), want.cycles)
    if certified:
        assert modeled == want and not any(stalls.values())
        assert {kind for _, kind, *_ in dispatched} == {"modeled"}
    else:
        assert dispatched == spans
    return got, spans


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


def test_traced_conv1_1_jumps_like_the_reference():
    # conv1_1 at 56x56 fast-forwards its periodic rows with a trace too
    net = consecutive_convs(1, input_hw=56)
    res, spans = assert_same_run(net.layers, net.input_dims, [3])
    assert any(kind == "periodic" for _, kind, *_ in spans)
    assert_spans_tile(spans, 1, res.cycles)


def test_traced_fused_vgg7_tiles_every_stage():
    net = vgg_prefix_7(input_hw=28)
    res, spans, _ = assert_traced_like_untraced(net.layers, net.input_dims,
                                                list(VGG7_DEFAULT_DPAR))
    assert_spans_tile(spans, 7, 65_410)
    assert {i for i, *_ in spans} == set(range(7))


STALLING_CHAINS = [
    ((3, 1, 1, 1, 1), {"l0.conv": 59689}),
    ((3, 8, 8, 1, 16), {"l0.conv": 36357, "l1.conv": 37477, "l2.pool": 42678,
                        "l3.conv": 55441})]


@pytest.mark.parametrize("d_par, stalls", STALLING_CHAINS)
def test_stalling_chain_matches_per_cycle_reference(d_par, stalls):
    # a fast stage feeding a slow one is held for most of the run: the
    # max-plus model cannot certify the chain, and it is stepped
    net = reduced_vgg_prefix_7()
    res, _ = assert_same_run(net.layers, net.input_dims, list(d_par))
    assert {k: v for k, v in res.stall_cycles.items() if v} == stalls
    assert not model_group(net.layers, net.input_dims, list(d_par))[1]
    assert simulate_group(net.layers, net.input_dims, list(d_par)) == res


@pytest.mark.parametrize("d_par, stalls", STALLING_CHAINS)
def test_stalling_chain_fast_forwards_like_per_cycle_reference(d_par, stalls):
    # the schedule may fast-forward across the held rows too: the first
    # chain jumps two periods of 8192 cycles, the second one
    net = reduced_vgg_prefix_7()
    res, spans = assert_same_run(net.layers, net.input_dims, list(d_par))
    assert {k: v for k, v in res.stall_cycles.items() if v} == stalls
    jumped = sum(n for i, kind, _, n, _ in spans if kind == "periodic" and i == 0)
    assert jumped == {(3, 1, 1, 1, 1): 16384, (3, 8, 8, 1, 16): 8192}[d_par]


@st.composite
def tall_chains(draw):
    """A fused conv/pool chain over up to 40 rows, narrow enough for the
    per-cycle reference: strides 1 and 2, pools, odd heights and any d_par
    divisor."""
    dims = Dims(draw(st.integers(6, 40)), draw(st.integers(3, 7)), draw(st.integers(1, 4)))
    layers, cur, filters = [], dims, 1
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 2)) or cur.height < 2 or cur.width < 2:
            kernel = draw(st.sampled_from([1, 3]))
            filters = draw(st.integers(filters, 4))
            spec = ConvSpec(kernel, filters, draw(st.sampled_from([1, 1, 2])),
                            draw(st.integers(0, kernel - 1)))
        else:
            spec = PoolSpec(*draw(st.sampled_from([(2, 2), (3, 3), (2, 3)])))
        try:
            cur = output_dims(cur, spec)
        except Exception:
            continue
        layers.append(spec)
    if not layers:
        layers = [ConvSpec(3, 2, 1, 1)]
    net = NetworkSpec(dims, tuple(layers))
    din = net.layer_input_dims()
    d_pars = [draw(st.sampled_from([x for x in range(din[li].depth, 0, -1)
                                    if din[li].depth % x == 0]))
              for li in net.conv_indices()]
    return net, d_pars


@st.composite
def certificate_chains(draw):
    """Fused chains at the edges of the max-plus model's certificate: a 5x5
    conv on a narrow input, whose line buffer refuses the source; a pool
    fed by the source, which refuses it until a slot drains; and a fast
    conv feeding a pool that a slower conv after it holds. Up to two more
    convs follow, at any d_par divisor."""
    kind = draw(st.sampled_from(["narrow", "pool first", "held by a pool"]))
    width = draw(st.integers(2, 6) if kind == "narrow" else st.integers(4, 10))
    dims = Dims(draw(st.integers(6, 24)), width, draw(st.integers(1, 4)))
    if kind == "narrow":
        layers = [ConvSpec(5, draw(st.integers(1, 4)), draw(st.sampled_from([1, 2])),
                           draw(st.integers(max(0, (6 - width) // 2), 4)))]
    elif kind == "pool first":
        layers = [PoolSpec(*draw(st.sampled_from([(2, 2), (3, 3), (2, 3)])))]
    else:
        kernel = draw(st.sampled_from([1, 3]))
        layers = [ConvSpec(kernel, draw(st.integers(1, 2)), 1, kernel // 2), PoolSpec(2, 2)]
    cur = dims
    for spec in layers:
        cur = output_dims(cur, spec)
    for _ in range(draw(st.integers(kind != "narrow", 2))):
        kernel = draw(st.sampled_from([1, 3, 5]))
        spec = ConvSpec(kernel, draw(st.integers(1, 8)), 1, draw(st.integers(0, kernel - 1)))
        try:
            cur = output_dims(cur, spec)
        except Exception:
            break
        layers.append(spec)
    net = NetworkSpec(dims, tuple(layers))
    din = net.layer_input_dims()
    return net, [draw(st.sampled_from([x for x in range(din[li].depth, 0, -1)
                                       if din[li].depth % x == 0]))
                 for li in net.conv_indices()]


@settings(max_examples=60)
@given(certificate_chains())
def test_certificate_holds_exactly_or_the_group_is_stepped(case):
    # assert_same_run: a certified draw is the per-cycle reference, stalls
    # and stamps included, and an uncertified one runs the stepped path
    net, d_pars = case
    assert_same_run(net.layers, net.input_dims, d_pars)


# its engines' counters advance as the geometry says over a period before
# their phase within a window settles: a jump must wait for that too
DRIFTING_PHASE = (
    NetworkSpec(Dims(20, 3, 1), (PoolSpec(2, 2), ConvSpec(1, 3), ConvSpec(1, 3))), [1, 1])

# when its state first repeats, the deepest conv has taken one input row
# and emitted nothing: the jump starts in that conv's top rows
DEEP_STAGE_IN_TOP_ROWS = (
    NetworkSpec(Dims(40, 7, 1), (ConvSpec(3, 2, 1, 1), PoolSpec(2, 2), ConvSpec(1, 4),
                                 PoolSpec(2, 2), ConvSpec(3, 4, 1, 2))), [1, 1, 4])


@settings(max_examples=40)
@example(DRIFTING_PHASE)
@example(DEEP_STAGE_IN_TOP_ROWS)
@given(tall_chains())
def test_row_periodic_jumps_match_per_cycle_reference(case):
    net, d_pars = case
    assert_same_run(net.layers, net.input_dims, d_pars)


@settings(max_examples=40)
@example(DRIFTING_PHASE, 500, 300)
@given(tall_chains(), st.integers(0, 1000), st.integers(0, 300))
def test_quiet_stage_keeps_its_ready_and_out(case, permille, cap):
    # the schedule reads an idle stage's ready() and out flag as its last
    # step left them, and its next event from quiet_for() taken there: at a
    # random cycle of the run, n <= quiet_for() quiet cycles, skipped or
    # stepped, move neither and count the quiet span down by n
    net, d_pars = case
    total = simulate_group(net.layers, net.input_dims, d_pars).cycles
    *_, stages = step_every_cycle(net.layers, net.input_dims, d_pars,
                                  until=total * permille // 1000)
    for skipped in stages:
        q = skipped.quiet_for()
        n = min(q, cap)
        stepped = copy.deepcopy(skipped)
        before = (skipped.ready(), skipped.out)
        skipped.skip(n)
        for _ in range(n):
            stepped.step(False, False)
        assert (skipped.ready(), skipped.out) == before == (stepped.ready(), stepped.out)
        assert skipped.quiet_for() == stepped.quiet_for() == \
            (q if q == _FOREVER else q - n)


def test_conv1_1_fast_forwards_its_periodic_rows(monkeypatch):
    # conv1_1 at 56x56 repeats with a period of one row from row 3 on: with
    # the stretch fast-forwarded, the stage steps on far fewer cycles than
    # its 3136 windows' quiet spans alone allow (about 12,500 steps)
    net = consecutive_convs(1, input_hw=56)
    step, calls = ConvStage.step, []

    def counted(self, *args):
        calls.append(self)
        return step(self, *args)

    monkeypatch.setattr(ConvStage, "step", counted)
    res = _stepped(net.layers, net.input_dims, [3])
    assert res.cycles == 200_827
    assert len(calls) * 100 <= res.cycles
    assert res.stamps[0].emitted == 56 * 56


def test_held_windows_skip_most_conv_steps(monkeypatch):
    # a 64-filter conv holds each window for 64 cycles: only the cycles on
    # which something moves may run the stage's step
    net = consecutive_convs(1, input_hw=16)
    step, calls = ConvStage.step, []

    def counted(self, *args):
        calls.append(self)
        return step(self, *args)

    monkeypatch.setattr(ConvStage, "step", counted)
    res = _stepped(net.layers, net.input_dims, [3])
    assert res.cycles == 16_467
    assert len(calls) * 8 <= res.cycles
    assert res.stamps[0].emitted == 16 * 16


def test_fused_vgg7_steps_only_the_stages_that_act(monkeypatch):
    # each of the seven stages keeps its own clock: a cycle on which one
    # stage acts steps that stage alone (7,281 steps beside a jump of two
    # periods; 10,209 without the jump, 45,745 when every stage stepped on
    # each such cycle)
    net = vgg_prefix_7(input_hw=28)
    calls = []
    for cls in (ConvStage, PoolStage):
        monkeypatch.setattr(cls, "step", lambda self, *args, step=cls.step:
                            calls.append(self) or step(self, *args))
    res = _stepped(net.layers, net.input_dims, list(VGG7_DEFAULT_DPAR))
    assert res.cycles == 65_410
    assert len(calls) <= 15_000


def bottleneck_cycles_per_period(net, d_pars):
    """A period's source elements times the largest work per source element
    among the group's convs: k*g cycles per window, scaled by the conv's
    output positions over the source's."""
    din, dout = net.layer_input_dims(), net.layer_dims()
    d_par = dict(zip(net.conv_indices(), d_pars))
    src = net.input_dims.height * net.input_dims.width
    period = math.prod(layer.stride for layer in net.layers) * net.input_dims.width
    return max(Fraction(period * net.layers[i].filters * (din[i].depth // d)
                        * dout[i].height * dout[i].width, src)
               for i, d in d_par.items())


# the four geometries demo 04's --schedule times, fully fused, with cycles
PINNED_GEOMETRIES = {
    "conv1_1-56": (consecutive_convs(1, input_hw=56), [3], 200_827),
    "vgg7-28": (vgg_prefix_7(input_hw=28), list(VGG7_DEFAULT_DPAR), 65_410),
    "saturating": (NetworkSpec(Dims(16, 16, 16), (ConvSpec(3, 16, 1, 1, relu=False),)), [4],
                   16_467),
    "vgg7-224": (vgg_prefix_7(), list(VGG7_DEFAULT_DPAR), 3_327_046)}


@pytest.mark.parametrize("name, steps, jumped, per_period", [
    ("conv1_1-56", 1_342, 179_200, 3_584), ("vgg7-28", 7_281, 14_336, 7_168),
    ("saturating", 479, 10_240, 1_024), ("vgg7-224", 58_412, 2_924_544, 57_344)],
    ids=list(PINNED_GEOMETRIES))
def test_schedule_work_is_pinned(name, steps, jumped, per_period):
    # the stage steps the stepped schedule's clocks take and the cycles
    # they jump over are its cost; a change to a stage's state must keep
    # both. Every jumped period runs at the rate of the slowest conv, as the
    # cycle time of a synchronous dataflow graph is that of its slowest cycle
    net, d_pars, _ = PINNED_GEOMETRIES[name]
    _, _, got_steps, jumps = counted_run(net.layers, net.input_dims, d_pars)
    assert (got_steps, sum(m * dc for m, dc in jumps)) == (steps, jumped)
    assert {dc for _, dc in jumps} == {per_period} == {bottleneck_cycles_per_period(net, d_pars)}


@pytest.mark.parametrize("net, d_pars, cycles", [
    *PINNED_GEOMETRIES.values(), (consecutive_convs(1), [3], 3_211_555)],
    ids=[*PINNED_GEOMETRIES, "conv1_1-224"])
def test_certified_groups_take_no_stage_step(net, d_pars, cycles, monkeypatch):
    # the max-plus model certifies these stall-free groups: simulate_group
    # returns its result, steps no stage and traces one span per stage
    calls = []
    for cls in (ConvStage, PoolStage):
        for method in ("step", "skip"):
            monkeypatch.setattr(cls, method, lambda self, *args: calls.append(self))
    spans = []
    res = simulate_group(net.layers, net.input_dims, d_pars, spans)
    assert (res.cycles, len(calls), res.modeled) == (cycles, 0, True)
    assert not any(res.stall_cycles.values())
    assert spans == [(i, "modeled", 1, cycles, 0) for i in range(len(net.layers))]


def vgg7_28_groups():
    """The 28 groups of the 64 partitions of VGG-7 at 28x28, at
    VGG7_DEFAULT_DPAR: {(a, b): (layers, in_dims, d_pars)}."""
    net = vgg_prefix_7(input_hw=28)
    dpar_of = dict(zip(net.conv_indices(), VGG7_DEFAULT_DPAR))
    return {(a, b): (net.layers[a:b + 1], net.layer_input_dims()[a],
                     [dpar_of[i] for i in range(a, b + 1) if i in dpar_of])
            for a in range(7) for b in range(a, 7)}


@pytest.mark.parametrize("group, layers, in_dims, d_pars", [
    *((None, net.layers, net.input_dims, d_pars)
      for net, d_pars, _ in PINNED_GEOMETRIES.values()),
    *((group, *case) for group, case in vgg7_28_groups().items())],
    ids=[*PINNED_GEOMETRIES, *(f"vgg7-28-{a}-{b}" for a, b in vgg7_28_groups())])
def test_model_is_the_stepped_schedule_where_nothing_is_held(group, layers, in_dims, d_pars):
    # the model's cycles are the stepped schedule's on the pinned
    # geometries and the 28 groups of VGG-7's partitions. Where a stage is
    # held (here the groups from a pool to a conv, the conv holding the
    # pool) the model is not certified and the held stage's last output
    # comes later than modeled; every other stamp is exact
    offset = group[0] if group else 0
    modeled, certified = model_group(layers, in_dims, d_pars, offset)
    stepped = _stepped(layers, in_dims, d_pars, layer_offset=offset)
    held = {name for name, n in stepped.stall_cycles.items() if n}
    assert modeled.cycles == stepped.cycles
    assert certified == (not held) == (group not in {(2, 3), (2, 4), (2, 5), (2, 6), (5, 6)})
    assert [s for s in modeled.stamps if s.name not in held] == \
        [s for s in stepped.stamps if s.name not in held]


@pytest.mark.parametrize("kernel, stride, pad", [
    (1, 1, 0), (3, 1, 0), (3, 1, 1), (3, 2, 1), (3, 3, 2), (5, 2, 2), (1, 2, 0)])
@pytest.mark.parametrize("height", [5, 6, 9, 12])
def test_row_period_bounds_are_the_clamp_free_rows(kernel, stride, pad, height):
    # the fast-forward relies on these bounds: every value up to them, and
    # none past them, leaves each bottom clamp a stage reads it through idle
    in_dims = Dims(height, 7, 1)
    spec = ConvSpec(kernel, 2, stride, pad)
    conv = ConvStage(spec, in_dims, 1)
    out = conv.out_dims
    hi, w_hi, *_ = conv.row_period(stride)[1]

    def row_clamped(r):  # the ready check's, on the next row to arrive
        return r >= height or (r - kernel + pad) // stride >= out.height

    def window_clamped(widx):  # _set_threshold's, on the next window
        return widx >= out.height * out.width \
            or widx // out.width * stride - pad + kernel - 1 > height - 1

    def assert_free_up_to(values, clamped, hi):
        assert [v for v in values if not clamped(v)] == [v for v in values if v <= hi]

    assert_free_up_to(range(-2, height + 4), row_clamped, hi)
    assert_free_up_to(range(out.height * out.width + out.width), window_clamped, w_hi)

    if stride > 1:
        pool = PoolStage(PoolSpec(min(kernel, stride), stride), in_dims)
        hi, *_ = pool.row_period(stride)[1]
        h_out = pool.out_dims.height
        assert_free_up_to(range(height + 4), lambda r: r >= height or r // stride >= h_out, hi)


# its second conv's top rows admit padding-row overwrites on the same
# schedule one period after another, so its state repeats across them
OVERRIDE_IN_PERIOD = (
    NetworkSpec(Dims(13, 2, 3), (ConvSpec(3, 6, 1, 2), ConvSpec(7, 1, 1, 4))), [3, 2])


@pytest.mark.parametrize("net, d_pars, overrides", [
    (consecutive_convs(1, input_hw=16), [3], [15]),
    (vgg_prefix_7(input_hw=28), list(VGG7_DEFAULT_DPAR), [27, 0, 0, 0, 0]),
    (*OVERRIDE_IN_PERIOD, [4, 4]),
    (NetworkSpec(Dims(9, 5, 2), (ConvSpec(5, 3, 2, 4), ConvSpec(3, 2, 1, 0))), [1, 3], [18, 0])])
def test_override_count_is_the_unclamped_rule(net, d_pars, overrides, monkeypatch):
    # a conv stage counts the elements it accepts while their row slot
    # still holds a row, padding or real, that an unemitted window covers:
    # only ready()'s top clamp lets such an element in, in the first rows
    counts, step = {}, ConvStage.step

    def counted(st, elem, out_consumed):
        x, y = st._r_in - st.w, st._c_in
        covered = ((rho * st.s - st.p, gam * st.s - st.p)
                   for rho, gam in (divmod(i, st.w_out) for i in range(st.widx, st.n_windows)))
        counts[st] = counts.get(st, 0) + (elem and any(
            top <= x < top + st.w and left <= y < left + st.w for top, left in covered))
        return step(st, elem, out_consumed)

    monkeypatch.setattr(ConvStage, "step", counted)
    *_, stages = step_every_cycle(net.layers, net.input_dims, d_pars)
    convs = [st for st in stages if isinstance(st, ConvStage)]
    assert [st.overrides for st in convs] == [counts[st] for st in convs] == overrides


def test_a_period_with_an_override_is_not_jumped(monkeypatch):
    # a jump from such a period would carry the top clamp into rows where
    # the unclamped rule refuses: with the override count left out of the
    # check, it jumps and lands on the wrong stalls
    net, d_pars = OVERRIDE_IN_PERIOD
    got, spans = assert_same_run(net.layers, net.input_dims, d_pars)
    assert not any(kind == "periodic" for _, kind, *_ in spans)
    row_period = ConvStage.row_period

    def unchecked(self, rows):
        fixed, bounds = row_period(self, rows)
        return fixed[:-1] + (None,), bounds

    monkeypatch.setattr(ConvStage, "row_period", unchecked)
    _, _, _, jumps = counted_run(net.layers, net.input_dims, d_pars)
    assert jumps and _stepped(net.layers, net.input_dims, d_pars) != got
