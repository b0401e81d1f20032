import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusedconv import dataflow, golden
from fusedconv.config import ConvSpec, Dims, FusionPlan, InternalError, NetworkSpec, \
    PoolSpec, ValidationError, parse_plan
from fusedconv.dataflow import conv_datapath, simulate_group, simulate_plan
from fusedconv.costmodel import conv3d_latency
from fusedconv.datagen import generate_tensor, generate_weights
from fusedconv.golden import FilterBank, Tensor3D, run_network

from conftest import EXACTNESS_EDGES, diverging_chain, identity_bank, random_network, \
    random_plan, tensor_from_reals
from reference import ConvStage, PoolStage, _last_needing, engine_reference, step_every_cycle


# --- line buffer -------------------------------------------------------------


def feed_linebuffer(in_dims, spec, n_elems):
    """Stream one element per cycle into a one-filter conv stage at full
    d_par, whose engine takes each window the cycle after it leaves the
    line buffer, with an always-ready consumer; return the cycles on which
    windows left the line buffer."""
    stage = ConvStage(ConvSpec(spec.kernel, 1, spec.stride, spec.pad), in_dims, in_dims.depth)
    out = []
    idx = 0
    for cyc in range(1, n_elems + 65):
        elem = idx < n_elems and stage.ready()
        idx += elem
        widx = stage.widx
        stage.step(elem, stage.out)
        if stage.widx > widx:
            out.append(cyc)
    return out


def datapath_windows(t, spec):
    """The windows conv_datapath reduces, read back through one filter per
    tap (weight 1.0 at that tap): (h_out, w_out, w, w, d)."""
    w, d = spec.kernel, t.dims.depth
    n = w * w * d
    bank = np.zeros((n, n), dtype=np.int32)
    np.fill_diagonal(bank, 1 << 16)
    vals, events = conv_datapath(t.data, FilterBank(bank.reshape(n, w, w, d)),
                                 spec, d, 16)
    assert events == 0
    return vals.reshape(vals.shape[0], vals.shape[1], w, w, d)


def test_linebuffer_first_padded_window():
    t = generate_tensor(Dims(5, 5, 1), seed=4)
    spec = ConvSpec(3, 1, 1, 1)
    cycles = feed_linebuffer(t.dims, spec, 25)
    assert len(cycles) == 25
    # data-complete once element (1,1) has arrived, emitted the cycle after
    assert cycles[0] == 8
    first = datapath_windows(t, spec)[0, 0]
    # window for output (0,0) covers rows/cols -1..1: 5 synthesized zeros
    # and the 4 interior values
    assert np.count_nonzero(first == 0) >= 5
    assert first[0, 0, 0] == first[0, 1, 0] == first[0, 2, 0] == 0
    assert first[1, 0, 0] == first[2, 0, 0] == 0
    assert first[1, 1, 0] == t.data[0, 0, 0]
    assert first[1, 2, 0] == t.data[0, 1, 0]
    assert first[2, 1, 0] == t.data[1, 0, 0]
    assert first[2, 2, 0] == t.data[1, 1, 0]


def test_linebuffer_unpadded_window_count():
    t = generate_tensor(Dims(5, 5, 1), seed=6)
    spec = ConvSpec(3, 1, 1, 0)
    assert len(feed_linebuffer(t.dims, spec, 25)) == 9
    # window contents match direct slices
    wins = datapath_windows(t, spec)
    for r in range(3):
        for c in range(3):
            assert np.array_equal(wins[r, c, :, :, 0], t.data[r:r + 3, c:c + 3, 0])


def test_linebuffer_steady_state_one_window_per_cycle():
    t = generate_tensor(Dims(10, 8, 2), seed=8)
    cycles = feed_linebuffer(t.dims, ConvSpec(3, 1, 1, 1), 80)
    assert len(cycles) == 80
    # after the fill latency a new window exists every cycle
    assert cycles == list(range(cycles[0], cycles[0] + 80))


def test_linebuffer_stride_two():
    t = generate_tensor(Dims(7, 7, 2), seed=10)
    spec = ConvSpec(3, 1, 2, 0)
    assert len(feed_linebuffer(t.dims, spec, 49)) == 9
    wins = datapath_windows(t, spec)
    for r in range(3):
        for c in range(3):
            assert np.array_equal(wins[r, c], t.data[2 * r:2 * r + 3, 2 * c:2 * c + 3])


def permissive_linebuffer_ready(self):
    """ConvStage.ready with >= for >: it also admits the element
    that overwrites the oldest element of the next window to emit."""
    if self._r_in >= self.h:
        return False
    r_d = self._r_in - self.w
    if r_d < 0:
        return True
    rho = _last_needing(r_d, self.p, self.s, self.h_out, self.w)
    gam = _last_needing(self._c_in, self.p, self.s, self.w_out, self.w)
    if rho is None or gam is None:
        return True
    return self.widx >= rho * self.w_out + gam


def test_permissive_linebuffer_ready_trips_window_guard(monkeypatch, small_net):
    # the guard is the reference stage's: the max-plus model reads no
    # ready()
    monkeypatch.setattr(ConvStage, "ready", permissive_linebuffer_ready)
    with pytest.raises(InternalError, match="overwrote window 6 before emitting it"):
        step_every_cycle(small_net.layers, small_net.input_dims, [3, 3])


def test_refusing_linebuffer_trips_the_cycle_budget(monkeypatch, small_net):
    # a line buffer that never accepts stalls the whole chain: the reference
    # loop gives up at the derived cycle budget
    monkeypatch.setattr(ConvStage, "ready", lambda self: False)
    with pytest.raises(InternalError, match=r"no progress within \d+ cycles "
                                            r"\(collected 0/4\)"):
        step_every_cycle(small_net.layers, small_net.input_dims, [3, 3])


# --- conv engine -------------------------------------------------------------


def _one_window_stage(k=1, w=3, d=3, d_par=None):
    """A conv stage over an input exactly one window in size."""
    return ConvStage(ConvSpec(w, k), Dims(w, w, d), d_par or d)


def taken_and_completed(stage):
    """Stream the stage's input in, one element per cycle; return the
    cycle its engine takes the window into its sweep and the cycle its
    element completes."""
    taken = None
    for cyc in range(1, 500):
        stage.step(stage.ready(), False)
        if taken is None and stage.widx and not stage.skid:
            taken = cyc
        if stage.out:
            return taken, cyc


def test_engine_latency_63_for_w3_d3():
    stage = _one_window_stage(k=1, w=3, d=3)
    taken, completed = taken_and_completed(stage)
    # the window is complete with its 9th element, leaves the line buffer
    # on the next cycle and enters the sweep on the one after; its one
    # filter's scalar pops 63 cycles after that first issue
    assert (taken, completed) == (11, 11 + 63)
    assert stage.latency == 63


def test_engine_latency_45_for_w3_d1():
    stage = _one_window_stage(k=1, w=3, d=3, d_par=1)
    assert stage.latency == 45
    taken, completed = taken_and_completed(stage)
    # issues for all 3 serial groups; the final group's scalar completes
    # 45 cycles after its own issue, 2 cycles after the window was taken
    assert completed == taken + 2 + 45


def test_engine_latency_9_for_w1_d1():
    assert _one_window_stage(k=2, w=1, d=1).latency == 9


def test_engine_idle_without_windows_emits_nothing():
    stage = _one_window_stage(k=2, w=3, d=2, d_par=2)
    for cyc in range(1, 1001):
        stage.step(False, False)
        assert not stage.out
    assert (stage.widx, stage.cur_left, stage.adv) == (0, 0, 1000) and not stage.emq


def test_d_par_must_divide_depth_through_simulate_group(small_net):
    with pytest.raises(ValidationError, match="does not divide depth 3"):
        simulate_group(small_net.layers, small_net.input_dims, [3, 2])


@pytest.mark.parametrize("layers, d_pars, message", [
    (None, [0, 3], "depth-parallel 0 outside"),
    (None, [3], "1 depth-parallel values for 2 conv layers"),
    (None, [3, 3, 3], "3 depth-parallel values for 2 conv layers"),
    ((), [], "at least one layer")])
def test_simulate_group_refuses_what_validate_plan_refuses(small_net, layers, d_pars, message):
    # the schedule takes its chain as a plan of one fused group: a chain or
    # d_par list the plan check refuses never reaches a stage
    layers = small_net.layers if layers is None else layers
    with pytest.raises(ValidationError, match=message):
        simulate_group(layers, small_net.input_dims, d_pars)


def test_engine_window_value_matches_golden_reduction(small_net, small_data):
    tensor, banks = small_data
    vals, events = conv_datapath(tensor.data, banks[0], small_net.layers[0], 3, 16)
    outs, _ = run_network(small_net, tensor, banks)
    assert events == 0
    assert np.array_equal(vals, outs[0].data)


def _one_window(win, filt, d_par, relu):
    """conv_datapath on an input exactly one window in size."""
    vals, events = conv_datapath(win, FilterBank(filt),
                                 ConvSpec(filt.shape[1], filt.shape[0], relu=relu), d_par, 16)
    return vals[0, 0].tolist(), events


@pytest.mark.parametrize("k, w, d, d_par, shift, relu", [
    (2, 3, 6, 6, 0, False), (2, 3, 6, 3, 4, True), (2, 3, 6, 2, 6, False),
    (3, 3, 6, 1, 7, False), (2, 1, 4, 2, 2, False), (4, 3, 16, 4, 5, False),
    (2, 3, 5, 5, 9, True)])
def test_engine_saturating_reduction_matches_tree_reference(k, w, d, d_par, shift, relu):
    rng = np.random.default_rng(k * 1000 + d * 10 + d_par)
    full = np.iinfo(np.int32)
    filt = rng.integers(full.min, full.max, (k, w, w, d), endpoint=True,
                        dtype=np.int32) >> shift
    win = rng.integers(full.min, full.max, (w, w, d), endpoint=True,
                       dtype=np.int32) >> shift
    vals, events = _one_window(win, filt, d_par, relu)
    ref, ref_events = engine_reference(win, filt, d_par, relu)
    assert vals == ref
    assert events == ref_events
    if shift <= 7:
        assert events > 0


@pytest.mark.parametrize("edge", EXACTNESS_EDGES)
def test_engine_exactness_bound_edges_match_tree_reference(edge):
    (data, weights), _ = EXACTNESS_EDGES[edge]
    vals, events = _one_window(data[:3, :3], weights, 1, False)
    ref, ref_events = engine_reference(data[:3, :3], weights, 1, False)
    assert vals == ref
    assert events == ref_events


@pytest.mark.parametrize("frac_bits", [0, 1, 4])
def test_engine_bound_does_not_wrap_at_small_frac_bits(frac_bits):
    # 18 products of (-2**31)**2 >> frac_bits: their absolute sum passes the
    # int64 range, and every one of them clips
    win = np.full((3, 3, 2), -(1 << 31), dtype=np.int32)
    filt = np.full((1, 3, 3, 2), -(1 << 31), dtype=np.int32)
    vals, events = conv_datapath(win, FilterBank(filt), ConvSpec(3, 1), 2, frac_bits)
    ref, ref_events = engine_reference(win, filt, 2, False, frac_bits)
    assert vals[0, 0].tolist() == ref == [(1 << 31) - 1]
    assert events == ref_events >= 18


@st.composite
def datapath_cases(draw):
    """One conv layer: kernel 1, 3 or 5 (1, 9 or 25 adder-tree leaves per
    channel), stride 1 or 2, any pad, depth 1-12 (a d_par of 3, 5, 6 or 7
    among others: trees of odd and non-power-of-two width), any d_par
    divisor, and magnitudes from exact to fully saturating."""
    kernel = draw(st.sampled_from([1, 3, 5]))
    spec = ConvSpec(kernel, draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                    draw(st.integers(0, kernel - 1)), draw(st.booleans()))
    side = st.integers(kernel, max(kernel, 5))
    dims = Dims(draw(side), draw(side), draw(st.integers(1, 12)))
    d_par = draw(st.sampled_from([x for x in range(1, dims.depth + 1)
                                  if dims.depth % x == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shift = draw(st.sampled_from([0, 2, 4, 6, 8, 12, 16]))
    full = np.iinfo(np.int32)
    x = rng.integers(full.min, full.max, (dims.height, dims.width, dims.depth),
                     endpoint=True, dtype=np.int32) >> shift
    filt = rng.integers(full.min, full.max, (spec.filters, kernel, kernel, dims.depth),
                        endpoint=True, dtype=np.int32) >> shift
    return x, filt, spec, d_par


@given(datapath_cases())
def test_conv_datapath_matches_tree_reference_per_window(case):
    x, filt, spec, d_par = case
    vals, events = conv_datapath(x, FilterBank(filt), spec, d_par, 16)
    w, s, p = spec.kernel, spec.stride, spec.pad
    padded = np.pad(x, ((p, p), (p, p), (0, 0)))
    ref_events = 0
    for r in range(vals.shape[0]):
        for c in range(vals.shape[1]):
            ref, ev = engine_reference(padded[r * s:r * s + w, c * s:c * s + w],
                                        filt, d_par, spec.relu)
            assert vals[r, c].tolist() == ref
            ref_events += ev
    assert events == ref_events


@pytest.mark.parametrize("kernel", [1, 3, 5, 7])
@pytest.mark.parametrize("depth, d_par", [(3, 3), (5, 5), (12, 6), (7, 7), (12, 3)])
def test_conv_datapath_passes_unpaired_nodes_through(kernel, depth, d_par):
    # every tree here is odd or not a power of two wide at some level: 1, 9,
    # 25 or 49 leaves per channel, 3 to 7 planes per depth group. On full-range data each value saturates; the reference pads
    # each tree with zeros, the datapath passes the unpaired node through
    rng = np.random.default_rng(kernel * 100 + depth * 10 + d_par)
    full = np.iinfo(np.int32)
    x = rng.integers(full.min, full.max, (kernel + 1, kernel + 1, depth),
                     endpoint=True, dtype=np.int32)
    filt = rng.integers(full.min, full.max, (2, kernel, kernel, depth),
                        endpoint=True, dtype=np.int32)
    spec = ConvSpec(kernel, 2, 1, 0, relu=False)
    vals, events = conv_datapath(x, FilterBank(filt), spec, d_par, 16)
    ref_events = 0
    for r in range(2):
        for c in range(2):
            ref, ev = engine_reference(x[r:r + kernel, c:c + kernel], filt, d_par, False)
            assert vals[r, c].tolist() == ref
            ref_events += ev
    assert events == ref_events > 0


# --- pool stage --------------------------------------------------------------


def drive_pool(pool, n_elems, cycles=400):
    """Stream elements while the pool accepts and consume every output at
    once; return the cycles on which outputs were taken."""
    idx = 0
    out = []
    for cyc in range(1, cycles):
        consumed = pool.out
        elem = idx < n_elems and pool.ready()
        idx += elem
        if consumed:
            out.append(cyc)
        pool.step(elem, consumed)
    return out


def simulated_pool(t, spec):
    """A pool layer's values as simulate_plan produces them."""
    net = NetworkSpec(t.dims, (spec,))
    return simulate_plan(net, t, [], parse_plan("0", net)).layer_outputs[-1].data


def test_pool_single_window_max():
    t = tensor_from_reals([[[1.0], [2.0]], [[3.0], [4.0]]])
    spec = PoolSpec(2, 2)
    out = drive_pool(PoolStage(spec, t.dims), 4, cycles=16)
    assert len(out) == 1
    # the second input row completes on cycle 4; pooled value next cycles
    assert out[0] >= 5
    assert simulated_pool(t, spec).tolist() == [[[4 << 16]]]


def test_pool_constant_rows():
    t = tensor_from_reals(np.full((4, 6, 3), 0.25))
    spec = PoolSpec(2, 2)
    assert len(drive_pool(PoolStage(spec, t.dims), 24)) == 6
    assert np.all(simulated_pool(t, spec) == (1 << 14))


def test_pool_row_emitted_per_two_input_rows():
    t = generate_tensor(Dims(2, 224, 4), seed=50)
    spec = PoolSpec(2, 2)
    assert len(drive_pool(PoolStage(spec, t.dims), 448, cycles=800)) == 112
    expect = np.maximum(
        np.maximum(t.data[0, 0::2], t.data[0, 1::2]),
        np.maximum(t.data[1, 0::2], t.data[1, 1::2]))
    assert np.array_equal(simulated_pool(t, spec)[0], expect)


def test_pool_datapath_skips_uncovered_rows_and_columns():
    # window 2 < stride 3: rows and columns 2, 5, ... belong to no window
    t = generate_tensor(Dims(7, 8, 2), seed=51)
    got = simulated_pool(t, PoolSpec(2, 3))
    assert got.shape == (2, 3, 2)
    for r in range(2):
        for c in range(3):
            window = t.data[3 * r:3 * r + 2, 3 * c:3 * c + 2]
            assert np.array_equal(got[r, c], window.max(axis=(0, 1)))


def test_pool_rejects_overlapping_windows():
    with pytest.raises(ValidationError, match="window <= stride"):
        simulate_group((PoolSpec(3, 2),), Dims(6, 6, 1), [])


def permissive_pool_ready(self):
    """PoolStage.ready with <= for <: it also admits an element
    landing in the next slot to drain."""
    r, c = self._r_in, self._c_in
    if r == self.h_in:
        return False
    if r // self.stride >= self.h_out or r % self.stride >= self.window:
        return True
    j = c // self.stride
    if j >= self.w_out or c % self.stride >= self.window:
        return True
    return j <= self.drain_pos


def test_permissive_pool_ready_trips_drain_guard(monkeypatch, reduced7):
    # this chain holds its first pool's output while the pool's next row
    # arrives, so a permissive pool lands an element on an undrained slot
    monkeypatch.setattr(PoolStage, "ready", permissive_pool_ready)
    with pytest.raises(InternalError, match="overwritten before it drained"):
        step_every_cycle(reduced7.layers, reduced7.input_dims, [3, 8, 8, 1, 16])


# --- fused pipeline ----------------------------------------------------------


def test_simulate_group_matches_golden(small_net, small_data):
    tensor, banks = small_data
    outs, _ = run_network(small_net, tensor, banks)
    sim = simulate_plan(small_net, tensor, banks, parse_plan("0-2", small_net))
    assert sim.layer_outputs[-1].equals(outs[-1])
    for got, want in zip(sim.layer_outputs, outs, strict=True):
        assert got.equals(want)
    res = simulate_group(small_net.layers, small_net.input_dims, [3, 3])
    assert res.cycles == max(s.last_out for s in res.stamps)
    assert [res.cycles] == sim.cycles_per_group
    assert [res.stamps] == sim.stamps_per_group


@pytest.mark.parametrize("a, d_pars, cycles, pool_done", [(0, [3, 3], 233, 218),
                                                          (1, [3], 147, 132)])
def test_group_counts_the_rows_a_pool_discards(small_net, a, d_pars, cycles, pool_done):
    # the 5x5 maps pool to 2x2: the convs before the pool still compute the
    # row and column it discards after its last output, and the group runs
    # until they are done, as long as the group without its pool
    layers, in_dims = small_net.layers[a:], small_net.layer_input_dims()[a]
    res = simulate_group(layers, in_dims, d_pars)
    assert (res.cycles, res.stamps[-1].last_out) == (cycles, pool_done)
    assert res.cycles == simulate_group(layers[:-1], in_dims, d_pars).cycles


@pytest.mark.parametrize("d_par, cycles", [((3, 1, 1, 1, 1), 86_837),
                                           ((3, 8, 8, 1, 16), 68_271)])
def test_simulate_group_computes_no_value(monkeypatch, reduced7, d_par, cycles):
    def no_values(*args, **kwargs):
        raise AssertionError("the schedule computed a value")

    monkeypatch.setattr(dataflow, "conv_datapath", no_values)
    monkeypatch.setattr(golden, "maxpool_layer", no_values)
    assert simulate_group(reduced7.layers, reduced7.input_dims, d_par).cycles == cycles


@pytest.mark.parametrize("run", ["simulate_plan", "run_network"])
@pytest.mark.parametrize("bad, message", [
    ("shape", r"input tensor dims .* != network input"),
    ("banks", "1 filter banks supplied for 2 conv layers")])
def test_bad_inputs_fail_before_any_schedule(monkeypatch, small_net, small_data,
                                             run, bad, message):
    def no_schedule(*args, **kwargs):
        raise AssertionError("a schedule ran")

    monkeypatch.setattr(dataflow, "simulate_group", no_schedule)
    tensor, banks = small_data
    if bad == "shape":
        tensor = generate_tensor(Dims(5, 4, 3), 1)
    else:
        banks = banks[:1]
    args = (small_net, tensor, banks)
    with pytest.raises(ValidationError, match=message):
        if run == "simulate_plan":
            simulate_plan(*args, parse_plan("0-2", small_net))
        else:
            run_network(*args)


def test_simulate_plan_fusion_preserves_semantics(small_net, small_data):
    tensor, banks = small_data
    fused = simulate_plan(small_net, tensor, banks, parse_plan("0-2", small_net))
    split = simulate_plan(small_net, tensor, banks, parse_plan("0|1|2", small_net))
    assert fused.layer_outputs[-1].equals(split.layer_outputs[-1])
    for a, b in zip(fused.layer_outputs, split.layer_outputs):
        assert a.equals(b)
    assert fused.end_to_end_cycles < split.end_to_end_cycles
    assert split.end_to_end_cycles == sum(split.cycles_per_group)


def test_simulate_plan_merging_groups_never_costs_cycles(small_net, small_data):
    tensor, banks = small_data
    exprs = ["0|1|2", "0-1|2", "0|1-2", "0-2"]
    cycles = {e: simulate_plan(small_net, tensor, banks,
                               parse_plan(e, small_net)).end_to_end_cycles
              for e in exprs}
    assert cycles["0-1|2"] <= cycles["0|1|2"]
    assert cycles["0|1-2"] <= cycles["0|1|2"]
    assert cycles["0-2"] <= cycles["0-1|2"]
    assert cycles["0-2"] <= cycles["0|1-2"]


@st.composite
def shared_pass_cases(draw):
    """A random conv/pool net and plan, with any d_par divisor per conv
    layer, and magnitudes from exact to fully saturating."""
    net = random_network(draw(st.integers(0, 2 ** 16)))
    plan = random_plan(net, draw(st.integers(0, 2 ** 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shift = draw(st.sampled_from([0, 4, 8, 12, 16, 20]))
    full = np.iinfo(np.int32)

    def values(shape):
        return rng.integers(full.min, full.max, shape, endpoint=True,
                            dtype=np.int32) >> shift
    dims = net.input_dims
    tensor = Tensor3D(dims, values((dims.height, dims.width, dims.depth)))
    din = net.layer_input_dims()
    banks = [FilterBank(values((net.layers[i].filters, net.layers[i].kernel,
                                net.layers[i].kernel, din[i].depth)))
             for i in net.conv_indices()]
    return net, plan, tensor, banks


def _oracle_with_and_without_shared_passes(net, plan, tensor, banks):
    taken = []
    sim = simulate_plan(net, tensor, banks, plan, oracle=taken)
    sim_values = [t.data.copy() for t in sim.layer_outputs]
    shared = run_network(net, tensor, banks, taken)
    alone = run_network(net, tensor, banks)
    assert shared[1] == alone[1]
    assert len(shared[0]) == len(alone[0])
    for a, b in zip(shared[0], alone[0]):
        assert a.equals(b)
    # reusing a pass leaves the simulator's values as they were
    for t, values in zip(sim.layer_outputs, sim_values):
        assert np.array_equal(t.data, values)
    # values do not depend on group boundaries, saturating or not
    singles = simulate_plan(net, tensor, banks, FusionPlan(
        tuple((i, i) for i in range(len(net.layers))), plan.depth_parallel))
    assert singles.saturation_events == sim.saturation_events
    for a, b in zip(singles.layer_outputs, sim.layer_outputs, strict=True):
        assert a.equals(b)
    # with no event on either side, every layer is the oracle's
    if sim.saturation_events == alone[1] == 0:
        for a, b in zip(sim.layer_outputs, alone[0], strict=True):
            assert a.equals(b)
    return sim, alone[0], len(taken)


@given(shared_pass_cases())
def test_oracle_on_the_simulators_passes_equals_the_oracle_alone(case):
    _oracle_with_and_without_shared_passes(*case)


def test_shared_passes_after_a_diverging_layer_are_not_reused():
    # a saturating first layer on which the adder tree and the sequential
    # scan disagree: the second layer's inputs differ, so only one of the
    # two passes is shared
    net, tensor, banks = diverging_chain()
    sim, golden_outs, shared = _oracle_with_and_without_shared_passes(
        net, parse_plan("0-1", net, "4,8"), tensor, banks)
    assert not sim.layer_outputs[0].equals(golden_outs[0])
    assert shared == 1


def test_determinism_identical_runs(small_net, small_data):
    tensor, banks = small_data
    plan = parse_plan("0-1|2", small_net, "1,3")
    r1 = simulate_plan(small_net, tensor, banks, plan)
    r2 = simulate_plan(small_net, tensor, banks, plan)
    assert r1.end_to_end_cycles == r2.end_to_end_cycles
    assert r1.cycles_per_group == r2.cycles_per_group
    assert r1.layer_outputs[-1].equals(r2.layer_outputs[-1])
    assert [(s.name, s.first_out, s.last_out) for g in r1.stamps_per_group for s in g] \
        == [(s.name, s.first_out, s.last_out) for g in r2.stamps_per_group for s in g]


def engine_events(net, d_pars):
    """Per conv stage of the fused net, its engine's latches, as (cycle,
    window), and the cycles on which it completed an element, read after
    every cycle of the per-cycle reference loop: the window it sweeps is the
    last one its line buffer emitted, or the one before while the skid slot
    holds a window; the windows out that are neither in the skid, nor in a
    sweep whose final depth group has not started, nor queued, are
    complete."""
    events = {}

    def watch(cycle, stages):
        for st in stages:
            if isinstance(st, ConvStage):
                latches, completions = events.setdefault(st.name, ([], []))
                swept = st.widx - st.skid - 1
                if swept != (latches[-1][1] if latches else -1):
                    latches.append((cycle, swept))
                done = st.widx - st.skid - (st.cur_left >= st.k) - len(st.emq)
                completions += [cycle] * (done - len(completions))

    step_every_cycle(net.layers, net.input_dims, d_pars, watch=watch)
    return events


def assert_windows_held(latches, completions, k, g, latency):
    """Latches come in raster order, at least k*g cycles apart, and window
    j's element completes with no downstream hold when its last filter's
    scalar leaves the pipeline: latency after its final sweep's last issue,
    at its latch + (g - 1) * k + latency + k - 1."""
    assert [w for _, w in latches] == list(range(len(latches)))
    for (c0, _), (c1, _) in zip(latches, latches[1:]):
        assert c1 - c0 >= k * g
    assert completions == [c + (g - 1) * k + latency + k - 1 for c, _ in latches]


def test_window_hold_invariant_via_trace(small_net):
    # the trace here is the engines' counters after every cycle; the first
    # conv runs 3 serial groups in one case and 1 in the other
    for d_pars, kgs in [([1, 3], [9, 3]), ([3, 3], [3, 3])]:
        events = engine_events(small_net, d_pars)
        assert list(events) == ["l0.conv", "l1.conv"]
        for (latches, completions), kg, d_par in zip(events.values(), kgs, d_pars):
            assert len(latches) == 25
            assert_windows_held(latches, completions, 3, kg // 3, conv3d_latency(3, d_par))


def test_throughput_one_scalar_per_cycle():
    # single conv with no serial depth decomposition and no downstream
    # stalls: after the first element one completes every k cycles, one
    # scalar a cycle, spanning the whole output (well over one full row).
    # Exercises k=1, where sustaining one window per cycle requires the
    # same-cycle window handoff.
    for k, depth in [(1, 2), (2, 2), (3, 1)]:
        net = NetworkSpec(Dims(10, 10, depth), (ConvSpec(3, k, 1, 1),))
        (latches, completions), = engine_events(net, [depth]).values()  # g = 1
        assert len(completions) == 100
        assert completions == list(range(completions[0], completions[0] + 100 * k, k))
        assert_windows_held(latches, completions, k, 1, conv3d_latency(3, depth))


def test_serial_depth_groups_emit_in_final_sweep_only():
    # g = 2: one window is held k*g cycles and only the final group's pops
    # carry scalars, so an element completes k - 1 cycles after its final
    # sweep's first scalar, at most one every k*g cycles
    net = NetworkSpec(Dims(8, 8, 2), (ConvSpec(3, 2, 1, 1),))
    (latches, completions), = engine_events(net, [1]).values()
    assert len(completions) == 64
    assert_windows_held(latches, completions, 2, 2, conv3d_latency(3, 1))


def test_engine_issue_stalls_when_no_input():
    # a stage that never receives elements issues no windows and emits nothing
    net = NetworkSpec(Dims(6, 6, 2), (ConvSpec(3, 2, 1, 1),))
    stage = ConvStage(net.layers[0], net.input_dims, 2)
    for cyc in range(1, 2000):
        stage.step(False, stage.out)
        assert not stage.out
    assert stage.widx == 0


def test_randomized_oracle_equivalence_sample():
    # a fast slice of the full randomized equivalence suite (acceptance runs
    # the complete one)
    for seed in range(20):
        net = random_network(seed)
        tensor = generate_tensor(net.input_dims, seed * 7 + 1)
        banks = generate_weights(net, seed * 7 + 2)
        plan = random_plan(net, seed)
        golden_outs, golden_sat = run_network(net, tensor, banks)
        sim = simulate_plan(net, tensor, banks, plan)
        assert golden_sat == 0 and sim.saturation_events == 0
        for got, want in zip(sim.layer_outputs, golden_outs):
            assert got.equals(want), (seed, net.layers, plan.groups)


def test_identity_network_streams_through():
    net = NetworkSpec(Dims(6, 6, 2), (ConvSpec(3, 2, 1, 1),))
    tensor = generate_tensor(net.input_dims, 71)
    sim = simulate_plan(net, tensor, [identity_bank(2)], parse_plan("0", net))
    assert sim.layer_outputs[-1].equals(tensor)
