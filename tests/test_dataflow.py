import io

import numpy as np
import pytest

from fusedconv.config import ConvSpec, Dims, NetworkSpec, PoolSpec, ValidationError, \
    parse_plan
from fusedconv.dataflow import (ConvEngine, ConvStage, LineBuffer, PoolStage,
                                TraceWriter, simulate_group, simulate_plan)
from fusedconv.datagen import generate_tensor, generate_weights
from fusedconv.fixedpoint import fx_add_sat, fx_mul
from fusedconv.golden import FilterBank, run_network

from conftest import EXACTNESS_EDGES, identity_bank, random_network, random_plan, \
    tensor_from_reals


# --- line buffer -------------------------------------------------------------


def feed_linebuffer(lb, tensor, cycles=None):
    """Stream one element per cycle with an always-ready consumer; collect
    (cycle, window copy) emissions."""
    elems = tensor.data.reshape(-1, tensor.dims.depth)
    out = []
    idx = 0
    total = cycles if cycles is not None else len(elems) + 64
    for cyc in range(1, total + 1):
        elem = None
        if idx < len(elems) and lb.ready():
            elem = elems[idx]
            idx += 1
        win = lb.cycle(elem, can_emit=True)
        if win is not None:
            out.append((cyc, win.copy()))
    return out


def test_linebuffer_first_padded_window():
    t = generate_tensor(Dims(5, 5, 1), seed=4)
    lb = LineBuffer(t.dims, ConvSpec(3, 1, 1, 1))
    wins = feed_linebuffer(lb, t)
    assert len(wins) == 25
    cyc0, first = wins[0]
    # window for output (0,0) covers rows/cols -1..1: 5 synthesized zeros
    # and the 4 interior values
    assert np.count_nonzero(first == 0) >= 5
    assert first[0, 0, 0] == first[0, 1, 0] == first[0, 2, 0] == 0
    assert first[1, 0, 0] == first[2, 0, 0] == 0
    assert first[1, 1, 0] == t.data[0, 0, 0]
    assert first[1, 2, 0] == t.data[0, 1, 0]
    assert first[2, 1, 0] == t.data[1, 0, 0]
    assert first[2, 2, 0] == t.data[1, 1, 0]
    # data-complete once element (1,1) has arrived, emitted the cycle after
    assert cyc0 == 8


def test_linebuffer_unpadded_window_count():
    t = generate_tensor(Dims(5, 5, 1), seed=6)
    lb = LineBuffer(t.dims, ConvSpec(3, 1, 1, 0))
    wins = feed_linebuffer(lb, t)
    assert len(wins) == 9
    # window contents match direct slices
    for i, (_, win) in enumerate(wins):
        r, c = divmod(i, 3)
        assert np.array_equal(win[:, :, 0], t.data[r:r + 3, c:c + 3, 0])


def test_linebuffer_steady_state_one_window_per_cycle():
    t = generate_tensor(Dims(10, 8, 2), seed=8)
    lb = LineBuffer(t.dims, ConvSpec(3, 1, 1, 1))
    wins = feed_linebuffer(lb, t)
    assert len(wins) == 80
    cycles = [c for c, _ in wins]
    # after the fill latency a new window exists every cycle
    assert cycles == list(range(cycles[0], cycles[0] + 80))


def test_linebuffer_stride_two():
    t = generate_tensor(Dims(7, 7, 1), seed=10)
    lb = LineBuffer(t.dims, ConvSpec(3, 1, 2, 0))
    wins = feed_linebuffer(lb, t)
    assert len(wins) == 9
    for i, (_, win) in enumerate(wins):
        r, c = divmod(i, 3)
        assert np.array_equal(win[:, :, 0], t.data[2 * r:2 * r + 3, 2 * c:2 * c + 3, 0])


# --- conv engine -------------------------------------------------------------


def _engine(k=1, w=3, d=3, d_par=None, relu=False):
    d_par = d_par or d
    bank = FilterBank(generate_tensor(Dims(k, w * w, d), seed=31)
                      .data.reshape(k, w, w, d))
    return ConvEngine(bank, d_par, relu, 16), bank


def test_engine_latency_63_for_w3_d3():
    eng, _ = _engine(k=1, w=3, d=3)
    win = generate_tensor(Dims(3, 3, 3), seed=32).data
    eng.put_window(win)
    emitted_at = None
    for cyc in range(1, 200):
        if eng.cycle(True, cyc) is not None:
            emitted_at = cyc
            break
    # first issue happens on call 1; the scalar pops 63 cycles later
    assert emitted_at == 64
    assert eng.latency == 63


def test_engine_latency_45_for_w3_d1():
    eng, _ = _engine(k=1, w=3, d=3, d_par=1)
    assert eng.latency == 45
    win = generate_tensor(Dims(3, 3, 3), seed=33).data
    eng.put_window(win)
    first = next(c for c in range(1, 300) if eng.cycle(True, c) is not None)
    # issues for all 3 serial groups; the final group's scalar completes
    # 45 cycles after its own issue (issue 3 -> cycle 48)
    assert first == 3 + 45


def test_engine_latency_9_for_w1_d1():
    bank = FilterBank(generate_tensor(Dims(2, 1, 1), seed=34).data.reshape(2, 1, 1, 1))
    eng = ConvEngine(bank, 1, False, 16)
    assert eng.latency == 9


def test_engine_idle_without_windows_emits_nothing():
    eng, _ = _engine(k=2, w=3, d=2, d_par=2)
    for cyc in range(1, 1001):
        assert eng.cycle(True, cyc) is None
    assert eng.scalars_emitted == 0


def test_engine_window_value_matches_golden_reduction(small_net, small_data):
    tensor, banks = small_data
    eng = ConvEngine(banks[0], 3, True, 16)
    # feed the fully padded window for output (2,2): interior of the input
    win = tensor.data[1:4, 1:4, :]
    eng.put_window(np.ascontiguousarray(win))
    vec = None
    for cyc in range(1, 300):
        vec = eng.cycle(True, cyc)
        if vec is not None:
            break
    outs, _ = run_network(small_net, tensor, banks)
    assert np.array_equal(vec, outs[0].data[2, 2, :])


def _tree_sum(vals):
    """Pairwise saturating adder tree over vals zero padded to a power of
    two. Returns (value, clip events)."""
    level = vals + [0] * ((1 << (len(vals) - 1).bit_length()) - len(vals))
    events = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            v, sat = fx_add_sat(level[i], level[i + 1])
            events += sat
            nxt.append(v)
        level = nxt
    return level[0], events


def _engine_reference(win, filt, d_par, relu):
    """Scalar tree-order reduction of one window, as the hardware sums it:
    per channel a tree over the w*w products, per serial depth group a tree
    over its d_par channels, then a saturating running sum over the groups."""
    k, w, _, d = filt.shape
    out, events = [], 0
    for f in range(k):
        acc = 0
        for j in range(d // d_par):
            planes = []
            for ch in range(j * d_par, (j + 1) * d_par):
                prods = []
                for r in range(w):
                    for c in range(w):
                        p, sat = fx_mul(int(win[r, c, ch]), int(filt[f, r, c, ch]), 16)
                        events += sat
                        prods.append(p)
                v, ev = _tree_sum(prods)
                planes.append(v)
                events += ev
            v, ev = _tree_sum(planes)
            events += ev
            if j == 0:
                acc = v
            else:
                acc, sat = fx_add_sat(acc, v)
                events += sat
        out.append(max(acc, 0) if relu else acc)
    return out, events


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
    eng = ConvEngine(FilterBank(filt), d_par, relu, 16)
    eng.put_window(win)
    vec, events, _ = eng.next_win
    ref, ref_events = _engine_reference(win, filt, d_par, relu)
    assert vec.tolist() == ref
    assert events == ref_events
    if shift <= 7:
        assert events > 0


@pytest.mark.parametrize("edge", EXACTNESS_EDGES)
def test_engine_exactness_bound_edges_match_tree_reference(edge):
    (data, weights), _ = EXACTNESS_EDGES[edge]
    eng = ConvEngine(FilterBank(weights), 1, False, 16)
    eng.put_window(data[:3, :3])
    vec, events, _ = eng.next_win
    ref, ref_events = _engine_reference(data[:3, :3], weights, 1, False)
    assert vec.tolist() == ref
    assert events == ref_events


# --- pool stage --------------------------------------------------------------


def drive_pool(pool, tensor, cycles=400):
    elems = tensor.data.reshape(-1, tensor.dims.depth)
    idx = 0
    out = []
    for cyc in range(1, cycles):
        consumed = pool.out is not None
        elem = None
        if idx < len(elems) and pool.ready():
            elem = elems[idx]
            idx += 1
        if consumed:
            out.append((cyc, pool.out.copy()))
        pool.step(cyc, elem, consumed)
    return out


def test_pool_single_window_max():
    t = tensor_from_reals([[[1.0], [2.0]], [[3.0], [4.0]]])
    pool = PoolStage(PoolSpec(2, 2), t.dims)
    out = drive_pool(pool, t, cycles=16)
    assert len(out) == 1
    cyc, elem = out[0]
    assert elem[0] == 4 << 16
    # the second input row completes on cycle 4; pooled value next cycles
    assert cyc >= 5


def test_pool_constant_rows():
    t = tensor_from_reals(np.full((4, 6, 3), 0.25))
    pool = PoolStage(PoolSpec(2, 2), t.dims)
    out = drive_pool(pool, t)
    assert len(out) == 6
    assert all(np.all(e == (1 << 14)) for _, e in out)


def test_pool_row_emitted_per_two_input_rows():
    t = generate_tensor(Dims(2, 224, 4), seed=50)
    pool = PoolStage(PoolSpec(2, 2), t.dims)
    out = drive_pool(pool, t, cycles=800)
    assert len(out) == 112
    expect = np.maximum(
        np.maximum(t.data[0, 0::2], t.data[0, 1::2]),
        np.maximum(t.data[1, 0::2], t.data[1, 1::2]))
    got = np.stack([e for _, e in out])
    assert np.array_equal(got, expect)


def test_pool_rejects_overlapping_windows():
    with pytest.raises(ValidationError, match="window <= stride"):
        PoolStage(PoolSpec(3, 2), Dims(6, 6, 1))


# --- fused pipeline ----------------------------------------------------------


def test_simulate_group_matches_golden(small_net, small_data):
    tensor, banks = small_data
    outs, _ = run_network(small_net, tensor, banks)
    res = simulate_group(small_net.layers, tensor, banks, [3, 3])
    assert res.output.equals(outs[-1])
    for got, want in zip(res.layer_outputs, outs):
        assert got.equals(want)
    assert res.cycles == res.stamps[-1].last_out


def test_simulate_plan_fusion_preserves_semantics(small_net, small_data):
    tensor, banks = small_data
    fused = simulate_plan(small_net, tensor, banks, parse_plan("0-2", small_net))
    split = simulate_plan(small_net, tensor, banks, parse_plan("0|1|2", small_net))
    assert fused.output.equals(split.output)
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


def test_determinism_identical_runs(small_net, small_data):
    tensor, banks = small_data
    plan = parse_plan("0-1|2", small_net, "1,3")
    tr1, tr2 = io.StringIO(), io.StringIO()
    r1 = simulate_plan(small_net, tensor, banks, plan, trace=TraceWriter(tr1))
    r2 = simulate_plan(small_net, tensor, banks, plan, trace=TraceWriter(tr2))
    assert r1.end_to_end_cycles == r2.end_to_end_cycles
    assert r1.cycles_per_group == r2.cycles_per_group
    assert r1.output.equals(r2.output)
    assert tr1.getvalue() == tr2.getvalue()
    assert [(s.name, s.first_out, s.last_out) for g in r1.stamps_per_group for s in g] \
        == [(s.name, s.first_out, s.last_out) for g in r2.stamps_per_group for s in g]


def _parse_ce_events(trace_text, stage):
    accepts, emits = [], []
    for line in trace_text.splitlines():
        parts = line.split()
        if parts[1] != stage:
            continue
        cycle, kind, pos = int(parts[0]), parts[2], int(parts[3])
        if kind == "accept":
            accepts.append((cycle, pos))
        elif kind == "emit":
            emits.append((cycle, pos, parts[4]))
    return accepts, emits


def test_window_hold_invariant_via_trace(small_net, small_data):
    tensor, banks = small_data
    plan = parse_plan("0-2", small_net, "1,3")  # first conv runs 3 serial groups
    buf = io.StringIO()
    simulate_plan(small_net, tensor, banks, plan, trace=TraceWriter(buf))
    for stage, kg, k in [("l0.conv.ce", 9, 3), ("l1.conv.ce", 3, 3)]:
        accepts, emits = _parse_ce_events(buf.getvalue(), stage)
        assert len(accepts) == 25
        positions = [p for _, p in accepts]
        assert positions == sorted(positions)
        # the window is held k*g cycles: latches are at least that far apart
        for (c0, _), (c1, _) in zip(accepts, accepts[1:]):
            assert c1 - c0 >= kg
        # exactly k scalars per window, in filter order
        per_window = {}
        for _, pos, detail in emits:
            per_window.setdefault(pos, []).append(detail)
        assert all(v == [f"f{i}" for i in range(k)] for v in per_window.values())
        assert len(per_window) == 25


def test_throughput_one_scalar_per_cycle():
    # single conv with no serial depth decomposition and no downstream
    # stalls: after the first scalar every cycle emits one, spanning the
    # whole output (well over one full row). Exercises k=1, where sustaining
    # one window per cycle requires the same-cycle window handoff.
    for k, depth in [(1, 2), (2, 2), (3, 1)]:
        net = NetworkSpec(Dims(10, 10, depth), (ConvSpec(3, k, 1, 1),))
        tensor = generate_tensor(net.input_dims, seed=60 + k)
        banks = generate_weights(net, seed=61 + k)
        plan = parse_plan("0", net)  # d_par = full depth, g = 1
        buf = io.StringIO()
        simulate_plan(net, tensor, banks, plan, trace=TraceWriter(buf))
        _, emits = _parse_ce_events(buf.getvalue(), "l0.conv.ce")
        cycles = [c for c, _, _ in emits]
        assert len(cycles) == 100 * k
        assert cycles == list(range(cycles[0], cycles[0] + len(cycles)))


def test_serial_depth_groups_emit_in_final_sweep_only():
    # g = 2: one window is held k*g cycles and only the final group's pops
    # carry scalars, so emissions come in bursts of k every k*g cycles
    net = NetworkSpec(Dims(8, 8, 2), (ConvSpec(3, 2, 1, 1),))
    tensor = generate_tensor(net.input_dims, seed=80)
    banks = generate_weights(net, seed=81)
    plan = parse_plan("0", net, "1")
    buf = io.StringIO()
    simulate_plan(net, tensor, banks, plan, trace=TraceWriter(buf))
    _, emits = _parse_ce_events(buf.getvalue(), "l0.conv.ce")
    cycles = [c for c, _, _ in emits]
    assert len(cycles) == 64 * 2
    bursts = [cycles[i + 1] - cycles[i] for i in range(0, len(cycles) - 1, 2)]
    assert all(b == 1 for b in bursts)  # the k scalars of one window touch


def test_engine_issue_stalls_when_no_input():
    # a stage that never receives elements issues no windows and emits nothing
    net = NetworkSpec(Dims(6, 6, 2), (ConvSpec(3, 2, 1, 1),))
    bank = generate_weights(net, 3)[0]
    stage = ConvStage(net.layers[0], net.input_dims, bank, 2, 16)
    for cyc in range(1, 2000):
        stage.step(cyc, None, stage.out is not None)
        assert stage.out is None
    assert stage.engine.windows_latched == 0


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
    assert sim.output.equals(tensor)
