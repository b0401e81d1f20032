"""simulate_group, the max-plus model, against a clock that steps every
single cycle.

reference.step_every_cycle calls every reference stage's `step` on every
cycle: the per-cycle schedule, coded stage by stage, that simulate_group is
checked against. The model must equal it in cycles, stamps and stalls on
every chain config.validate_plan admits, held stages included, and settle in
its first pass exactly where no stage is held. The schedule
takes dims, not data: values come after it, from golden.walk_layers, and the
tests of conv_datapath, of the pool values and of simulate_plan check them.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from fusedconv.config import ConvSpec, Dims, FusionPlan, NetworkSpec, PoolSpec, \
    output_dims, validate_plan
from fusedconv.dataflow import GroupResult, simulate_group
from fusedconv.networks import VGG7_DEFAULT_DPAR, consecutive_convs, vgg_prefix_7

from conftest import reduced_vgg_prefix_7
from reference import step_every_cycle


def assert_same_run(layers, in_dims, d_pars, layer_offset=0):
    """Assert simulate_group gives the per-cycle reference's cycles, stamps
    and stalls, and that the model settles in its first pass exactly where
    the reference holds no stage. Returns the result."""
    stamps, stalls = step_every_cycle(layers, in_dims, d_pars, layer_offset)
    # the reference steps cycles and takes no passes
    want = GroupResult(max(s.last_out for s in stamps), stamps, stalls, passes=None)
    got = simulate_group(layers, in_dims, d_pars, layer_offset)
    assert got == want
    assert (got.passes == 1) == (not any(stalls.values()))
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


def test_traced_fused_vgg7_tiles_every_stage():
    # --trace gives each stage one span over its group's cycles, checked on
    # the trace file itself (tests/test_cli.py, tests/test_trace_digests.py)
    net = vgg_prefix_7(input_hw=28)
    res = simulate_group(net.layers, net.input_dims, list(VGG7_DEFAULT_DPAR))
    assert res.cycles == 65_410


STALLING_CHAINS = [
    ((3, 1, 1, 1, 1), {"l0.conv": 59689}),
    ((3, 8, 8, 1, 16), {"l0.conv": 36357, "l1.conv": 37477, "l2.pool": 42678,
                        "l3.conv": 55441})]


@pytest.mark.parametrize("d_par, stalls", STALLING_CHAINS)
def test_stalling_chain_matches_per_cycle_reference(d_par, stalls):
    # a fast stage feeding a slow one is held for most of the run: its
    # engine freezes, or its pooled row waits, and the model takes more
    # than one pass
    net = reduced_vgg_prefix_7()
    res = assert_same_run(net.layers, net.input_dims, list(d_par))
    assert {k: v for k, v in res.stall_cycles.items() if v} == stalls
    assert res.passes > 1


@pytest.mark.parametrize("d_par, stalls", STALLING_CHAINS)
def test_stalling_chain_fast_forwards_like_per_cycle_reference(d_par, stalls):
    # the model crosses the held rows in whole passes, with no per-cycle
    # loop, to the reference's cycles and stalls: the first chain settles
    # in two passes, the second in five
    net = reduced_vgg_prefix_7()
    res = simulate_group(net.layers, net.input_dims, list(d_par))
    assert {k: v for k, v in res.stall_cycles.items() if v} == stalls
    assert (res.cycles, res.passes) == {(3, 1, 1, 1, 1): (86_837, 2),
                                    (3, 8, 8, 1, 16): (68_271, 5)}[d_par]


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
    # the model is the per-cycle reference on every draw, stalls and stamps
    # included, and certifies its first pass where no stage is held
    net, d_pars = case
    assert_same_run(net.layers, net.input_dims, d_pars)


# a source-fed pool ahead of two 1x1 convs, on a 3-wide input
DRIFTING_PHASE = (
    NetworkSpec(Dims(20, 3, 1), (PoolSpec(2, 2), ConvSpec(1, 3), ConvSpec(1, 3))), [1, 1])

# five stages over 40 rows, the deepest a 3x3 conv with padding 2
DEEP_STAGE_IN_TOP_ROWS = (
    NetworkSpec(Dims(40, 7, 1), (ConvSpec(3, 2, 1, 1), PoolSpec(2, 2), ConvSpec(1, 4),
                                 PoolSpec(2, 2), ConvSpec(3, 4, 1, 2))), [1, 1, 4])

# line buffers whose top clamp admits elements onto rows, padding or real,
# that a window not yet out still covers: the first, in its second conv's
# top rows, on the same schedule one row after another
TOP_CLAMP_OVERRIDES = [
    (NetworkSpec(Dims(13, 2, 3), (ConvSpec(3, 6, 1, 2), ConvSpec(7, 1, 1, 4))), [3, 2]),
    (NetworkSpec(Dims(9, 5, 2), (ConvSpec(5, 3, 2, 4), ConvSpec(3, 2, 1, 0))), [1, 3])]


@settings(max_examples=40)
@example(DRIFTING_PHASE)
@example(DEEP_STAGE_IN_TOP_ROWS)
@example(TOP_CLAMP_OVERRIDES[0])
@example(TOP_CLAMP_OVERRIDES[1])
@given(tall_chains())
def test_row_periodic_jumps_match_per_cycle_reference(case):
    # tall chains run over many row periods, held stages included
    net, d_pars = case
    assert_same_run(net.layers, net.input_dims, d_pars)


def test_traced_conv1_1_jumps_like_the_reference():
    # conv1_1 at 56x56 settles in the model's first pass
    net = consecutive_convs(1, input_hw=56)
    res = assert_same_run(net.layers, net.input_dims, [3])
    assert (res.cycles, res.passes) == (200_827, 1)


# the four geometries demo 04's --schedule times, fully fused, with cycles
PINNED_GEOMETRIES = {
    "conv1_1-56": (consecutive_convs(1, input_hw=56), [3], 200_827),
    "vgg7-28": (vgg_prefix_7(input_hw=28), list(VGG7_DEFAULT_DPAR), 65_410),
    "saturating": (NetworkSpec(Dims(16, 16, 16), (ConvSpec(3, 16, 1, 1, relu=False),)), [4],
                   16_467),
    "vgg7-224": (vgg_prefix_7(), list(VGG7_DEFAULT_DPAR), 3_327_046)}


@pytest.mark.parametrize("net, d_pars, cycles", [
    *PINNED_GEOMETRIES.values(), (consecutive_convs(1), [3], 3_211_555)],
    ids=[*PINNED_GEOMETRIES, "conv1_1-224"])
def test_certified_groups_take_no_stage_step(net, d_pars, cycles):
    # no stage of these groups is held: the model's first pass is the
    # schedule, with no stall
    res = simulate_group(net.layers, net.input_dims, d_pars)
    assert res.passes == 1
    assert res.cycles == cycles and not any(res.stall_cycles.values())


def vgg7_28_groups():
    """The 28 groups of the 64 partitions of VGG-7 at 28x28, at
    VGG7_DEFAULT_DPAR: {(a, b): (layers, in_dims, d_pars)}."""
    net = vgg_prefix_7(input_hw=28)
    dpar_of = dict(zip(net.conv_indices(), VGG7_DEFAULT_DPAR))
    return {(a, b): (net.layers[a:b + 1], net.layer_input_dims()[a],
                     [dpar_of[i] for i in range(a, b + 1) if i in dpar_of])
            for a in range(7) for b in range(a, 7)}


# cycles per VGG-7 group at 28x28, as the stepped schedule gave them, and
# where a stage is held (a pool, by the conv after it), that stage's stalls
# and last output
VGG7_28_SCHEDULES = {
    (0, 0): 50_271, (0, 1): 52_292, (0, 2): 52_307, (0, 3): 55_980, (0, 4): 58_138,
    (0, 5): 58_146, (0, 6): 65_410, (1, 1): 50_307, (1, 2): 50_322, (1, 3): 53_995,
    (1, 4): 56_153, (1, 5): 56_161, (1, 6): 63_425, (2, 2): 812, (2, 3): 25_305,
    (2, 4): 27_463, (2, 5): 27_471, (2, 6): 34_735, (3, 3): 25_205, (3, 4): 27_363,
    (3, 5): 27_371, (3, 6): 34_635, (4, 4): 25_214, (4, 5): 25_222, (4, 6): 32_486,
    (5, 5): 210, (5, 6): 25_249, (6, 6): 25_198}
VGG7_28_HELD = {**{(2, b): ("l2.pool", 20_686, 21_368) for b in range(3, 7)},
                (5, 6): ("l5.pool", 16_768, 16_960)}


@pytest.mark.parametrize("group, layers, in_dims, d_pars, cycles", [
    *((None, net.layers, net.input_dims, d_pars, cycles)
      for net, d_pars, cycles in PINNED_GEOMETRIES.values()),
    *((group, *case, VGG7_28_SCHEDULES[group]) for group, case in vgg7_28_groups().items())],
    ids=[*PINNED_GEOMETRIES, *(f"vgg7-28-{a}-{b}" for a, b in vgg7_28_groups())])
def test_model_is_the_stepped_schedule_where_nothing_is_held(group, layers, in_dims, d_pars,
                                                             cycles):
    # the cycles on the pinned geometries and the 28 groups of VGG-7's
    # partitions, and the held stage's stalls and last output where a pool
    # is held; the model settles in its first pass exactly where nothing is
    # held
    res = simulate_group(layers, in_dims, d_pars, group[0] if group else 0)
    held = {s.name: (n, s.last_out) for s, n in zip(res.stamps, res.stall_cycles.values())
            if n}
    name, *want = VGG7_28_HELD.get(group, (None,))
    assert res.cycles == cycles
    assert held == ({name: tuple(want)} if name else {})
    assert (res.passes == 1) == (not name)
