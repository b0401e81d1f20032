"""Cycle-level schedule and values of the fused line-buffer pipeline.

One fused group is a chain of stages:

    input stream -> [line buffer -> conv engine -> output register] per conv layer
                 -> [pool row buffer] per pool layer -> collector

Elements are depth-concatenated positions (all channel values of one spatial
location), and every stage passes at most one element per cycle under a
ready/valid handshake. A conv stage's line buffer holds w rows of its input
and lets a window out, into a one-slot skid, once its last real element has
arrived; the engine holds each window for its k*g filter sweep (k filters,
g serial depth groups of d_par channels), and its element completes
conv3d_latency cycles after the final group's sweep starts. A pool stage
keeps one row of running maxima and drains a pooled row, one element a
cycle, once its last window is complete. A stage whose output register is
still full when the next element is due is held: its engine freezes, or its
pooled row waits.

Cycle accounting is exact: a group's cycle count is the last cycle on which
any of its stages emits, pipeline flush and a pool's discarded rows included.
simulate_group computes the schedule as a max-plus model in numpy, with no
per-cycle loop; its docstring gives the recurrences and why they are the
schedule.

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
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ConvSpec, Dims, FusionPlan, InternalError, NetworkSpec, PoolSpec, \
    output_dims, validate_plan
from .costmodel import conv3d_latency
from .fixedpoint import fx_clamp_count
from .golden import FilterBank, Tensor3D, check_inputs, conv_values, sequential_sum, \
    walk_layers

_TREE_NODES = 1 << 17  # int64 leaves per adder-tree chunk (1 MiB), a column per value
_NEVER = 1 << 62  # past every cycle a schedule reaches


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
    """One group's schedule: its cycle count, and stamps and stalls per stage."""
    cycles: int
    stamps: list
    stall_cycles: dict
    # passes the model took to settle on the schedule; not a result
    passes: int = field(compare=False, repr=False)


@dataclass
class SimResult:
    """Functional outputs plus exact cycle accounting for a whole plan."""
    layer_outputs: list
    cycles_per_group: list
    end_to_end_cycles: int
    stamps_per_group: list
    stall_cycles: dict
    saturation_events: int
    # wall seconds of the group schedules and of the value walk; not results
    seconds: tuple = field(compare=False, repr=False)


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


def _gate(rows, cols, width):
    """A stage's admission rule per input element (r, c), in raster order:
    the output (rows[r], cols[c]) of a raster of `width` columns whose
    leaving admits it, or none where either is -1. Returns (the output's
    index, whether there is one)."""
    return (((np.maximum(rows, 0) * width)[:, None] + np.maximum(cols, 0)).ravel(),
            ((rows >= 0)[:, None] & (cols >= 0)).ravel())


def _release(at, gate):
    """The cycle from which a stage admits each input element: one past
    at[i], i the output its gate names, or 0 where none does."""
    index, gated = gate
    release = at[index]
    release += 1
    release *= gated
    return release


def _offered(release, e, carry=1):
    """The cycles elements e arrive from the source, which offers each one
    cycle after it took the one before and waits while it is refused:
    a = e + cummax(max(release - e, carry)), carry a[e[0] - 1] - (e[0] - 1),
    1 before the first element."""
    a = release - e
    np.maximum(a, carry, out=a)
    np.maximum.accumulate(a, out=a)
    a += e
    return a


def _drain(opened, rn, first, n, taken):
    """Whole pooled rows of n elements, row i's first at index first[i]: a
    row's drain opens on `opened` (its trigger's arrival + 1), an element is
    put out once its row is open and the element before it has been taken,
    and is taken one cycle after, once the next stage admits it (rn; None:
    always). `taken` is the cycle the element before the first row's was
    taken, 0 for none. Returns (taken, put) per element."""
    if rn is None:
        put = first + np.maximum.accumulate(np.maximum(opened - first, taken - first[0]))
        put = (put[:, None] + np.arange(n)).ravel()
        return put + 1, put
    e = np.arange(first[0], first[-1] + n)
    at = np.zeros(len(e), dtype=np.int64)
    at[::n] = opened
    out = e + np.maximum.accumulate(np.maximum(np.maximum(at + 1, rn) - e, taken + 1 - e[0]))
    return out, np.maximum(at, np.concatenate(([taken], out[:-1])))


def _settled(run, rn):
    """Whether admissions rn leave a pass's outputs as they are:
    max(ready, rn) == out, which is rn <= out where out is ready."""
    if run.out is run.ready:
        return bool((rn <= run.out).all())
    return np.array_equal(np.maximum(run.ready, rn), run.out)


def _same_lag(new, old):
    if new is None or old is None:
        return new is old
    return all(np.array_equal(x, y) for x, y in zip(new, old))


class _Pass(NamedTuple):
    """One pass of one stage's max-plus map: the cycles its outputs are taken
    (out) and the cycles they would be were the next stage always ready
    (ready, out itself where no admission was given); the cycle from which
    it admits each input element (release); its conv engine's completions
    in engine cycles with their freeze lags, None where it never froze
    (lag); and its stall cycles."""
    out: np.ndarray
    ready: np.ndarray
    release: np.ndarray
    lag: tuple | None
    stall: int


class _Conv:
    """A conv layer's line buffer, conv engine and output register as
    running maxima (see simulate_group)."""

    def __init__(self, spec: ConvSpec, dims: Dims, out: Dims, d_par: int, name: str):
        h, w_in, w, s, p = dims.height, dims.width, spec.kernel, spec.stride, spec.pad
        self.name, self.n_in, self.n_out = name, h * w_in, out.height * out.width
        self.kg = spec.filters * (dims.depth // d_par)
        self.work = self.n_out * self.kg  # the engine's busy cycles
        # engine cycles from a window's take to its element's completion
        self.fill = self.kg + conv3d_latency(w, d_par) - 1
        self.jkg = np.arange(self.n_out) * self.kg
        # window j is complete with its last real element, in raster order
        self.last = (np.minimum(np.arange(out.height) * s - p + w - 1, h - 1)[:, None] * w_in
                     + np.minimum(np.arange(out.width) * s - p + w - 1, w_in - 1)).ravel()
        # element (r, c) waits for the last window covering (r - w, c) to
        # leave; the top clamp admits the first w rows
        rho = _last_covering(np.arange(h) - w, p, s, out.height, w)
        rho[:w] = -1
        gam = _last_covering(np.arange(w_in), p, s, out.width, w)
        self.gate = _gate(rho, gam, out.width)

    def times(self, a, rn, lag) -> _Pass:
        """The stage's pass on arrivals a, given the next stage's admissions
        rn (None: always) and its freeze lags from the last pass (lag). The
        lags and the takes they delay depend on each other, so they are
        iterated here to their fixed point."""
        done = a[self.last]
        done += 1
        while True:
            if lag is None:
                start = done - self.jkg
                start += 1
            else:
                # the first engine cycle on or after real cycle done + 1
                chat, z = lag
                k = np.searchsorted(chat + z, done + 1, "right")
                start = np.minimum(done + 1 - np.concatenate(([0], z))[k],
                                   np.concatenate((chat, [_NEVER]))[k])
                start -= self.jkg
            np.maximum.accumulate(start, out=start)
            start += self.jkg
            if rn is None:
                break
            chat = start + self.fill
            z = np.zeros(self.n_out, dtype=np.int64)
            np.maximum.accumulate(np.maximum(rn[:-1] - chat[1:], 0), out=z[1:])
            fixed = (chat, z) if z[-1] else None
            if _same_lag(fixed, lag):
                break
            lag = fixed
        ready, took = start + (self.fill + 1), start
        if lag is not None:
            ready += z
            took = start + np.concatenate(([0], z))[np.searchsorted(chat, start, "right")]
        leave = np.empty_like(done)
        leave[0] = 0
        leave[1:] = took[:-1]
        np.maximum(leave, done, out=leave)
        release = _release(leave, self.gate)
        if rn is None:
            return _Pass(ready, ready, release, None, 0)
        out = np.maximum(ready, rn)
        return _Pass(out, ready, release, lag, int((out - ready).sum()))

    def fed(self, rn, lag) -> _Pass:
        """times() on the source's arrivals, iterated to their fixed point
        from e + 1: each iterate is a floor, and rises. An element waits
        only on a window whose last element is in an earlier row, so each
        iterate settles at least one more row."""
        e = np.arange(self.n_in)
        a = e + 1
        while True:
            run = self.times(a, rn, lag)
            fixed = _offered(run.release, e)
            if np.array_equal(fixed, a):
                return run
            a = fixed


class _Pool:
    """A pool layer's row buffer as running maxima (see simulate_group)."""

    def __init__(self, spec: PoolSpec, dims: Dims, out: Dims, name: str):
        h, w_in, s, win = dims.height, dims.width, spec.stride, spec.window
        n = self.w_out = out.width
        self.name, self.n_in, self.n_out = name, h * w_in, out.height * n
        self.work = self.n_out
        self.h_out, self.block = out.height, s * w_in
        self.first = np.arange(out.height) * n
        # row rho's drain opens once the last element of its last window,
        # its trigger, has arrived; an element of row rho + 1 lands in
        # slot j once slot j of row rho is put out
        self.trigger = np.arange(out.height) * self.block \
            + ((win - 1) * w_in + (n - 1) * s + win - 1)
        (rows, r), (cols, c) = np.divmod(np.arange(h), s), np.divmod(np.arange(w_in), s)
        self.gate = _gate(np.where((r < win) & (rows < out.height), rows - 1, -1),
                          np.where((c < win) & (cols < n), cols, -1), n)

    def _pass(self, out, put, rn):
        release = _release(put, self.gate)
        if rn is None:
            return _Pass(out, out, release, None, 0)
        return _Pass(out, put + 1, release, None, int((out - put - 1).sum()))

    def times(self, a, rn, lag) -> _Pass:
        return self._pass(*_drain(a[self.trigger] + 1, rn, self.first, self.w_out, 0), rn)

    def fed(self, rn, lag) -> _Pass:
        """times() on the source's arrivals, a pooled row at a time: the
        input rows of pooled row rho + 1 wait only on row rho's puts, and
        row rho's trigger is among its own input rows."""
        a, out, put = (np.zeros(m, dtype=np.int64) for m in (self.n_in, self.n_out, self.n_out))
        n, carry = self.w_out, 1
        for rho in range(self.h_out + 1):
            lo = min(rho * self.block, self.n_in)
            hi = self.n_in if rho == self.h_out else min(lo + self.block, self.n_in)
            if hi > lo:
                gate = tuple(g[lo:hi] for g in self.gate)
                a[lo:hi] = _offered(_release(put, gate), np.arange(lo, hi), carry)
                carry = a[hi - 1] - (hi - 1)
            if rho < self.h_out:
                o = slice(rho * n, rho * n + n)
                out[o], put[o] = _drain(a[self.trigger[rho:rho + 1]] + 1,
                                        None if rn is None else rn[o], self.first[rho:rho + 1],
                                        n, out[o.start - 1] if rho else 0)
        return self._pass(out, put, rn)


def _build_stages(net: NetworkSpec, d_pars, layer_offset):
    d_pars = iter(d_pars)
    for i, (layer, dims, out) in enumerate(zip(net.layers, net.layer_input_dims(),
                                               net.layer_dims()), layer_offset):
        if isinstance(layer, ConvSpec):
            yield _Conv(layer, dims, out, next(d_pars), f"l{i}.conv")
        else:
            yield _Pool(layer, dims, out, f"l{i}.pool")


def _last_covering(x, pad: int, stride: int, n_out: int, w: int):
    """Index of the last output row/column whose window covers each
    coordinate of x, or -1 where no window covers it."""
    idx = np.minimum((x + pad) // stride, n_out - 1)
    return np.where(x <= idx * stride - pad + w - 1, idx, -1)


def simulate_group(layers, in_dims: Dims, d_pars, layer_offset: int = 0) -> GroupResult:
    """One fused group's schedule on an in_dims input: the input streams one
    element per cycle while the chain accepts, then flush cycles run until
    every stage has emitted its complete output (trailing rows a pool
    discards still flow through). The group's cycle count is the last of
    these cycles: the last stage's last output, or a later one of an earlier
    stage where a pool discards trailing rows. Only presence tokens move, so
    no value is read or computed here. Raises ValidationError on a chain or
    d_pars that config.validate_plan refuses as one fused group.

    The schedule is a max-plus model (Baccelli, Cohen, Olsder and Quadrat,
    "Synchronization and Linearity", 1992). One element crosses a stage
    boundary per handshake, so every event cycle is a maximum of earlier
    event cycles plus constants, and each stage's output cycles are running
    maxima of its arrival cycles, computed in numpy with no per-cycle loop.

    The source offers element e (raster order, from 0) one cycle after it
    took element e - 1, from cycle e + 1, and waits while the first stage
    refuses it. A conv's window j leaves its line buffer at S_j = max(A_j,
    T_{j-1}), A_j its last element's arrival + 1 and T_{j-1} the cycle the
    engine took window j - 1. The engine takes window j once its sweep of
    the one before, k*g engine cycles, is over and at least one cycle after
    A_j, and completes its element kg + latency - 1 engine cycles later. An
    engine cycle is a cycle on which the engine is not frozen: it freezes
    while a completion is due and its output register still holds the
    element before, so the lag Z of completion j is the running maximum of
    (the cycle the next stage admits element j - 1) - (completion j in
    engine cycles). The element is put out at C_j, completion j plus its
    lag, and taken at X_j = max(C_j + 1, the cycle the next stage admits
    it), after C_j + 1 - X_j stall cycles. A pool's row drains, one pooled
    element at a time, from its trigger's arrival + 1: element e is put out
    at P_e = max(its row's opening, X_{e-1}) and taken at max(P_e + 1, the
    next stage's admission). An input element is admitted one cycle after
    the window or pooled element it waits for has left its slot (_release).

    Every quantity is a maximum over earlier ones, and the admissions of
    each stage depend on arrivals at that stage, so the model is a fixed
    point: pass after pass recomputes every stage front to back from the
    previous pass's admissions and freeze lags, and stops when a pass would
    change nothing. The first pass assumes that no later stage refuses an
    element and that no engine freezes; dropping those terms from a maximum
    can only lower it, so it is a floor, and each pass, a maximum over
    floors, is a floor too and rises. A pass that changes nothing is
    therefore the schedule itself, cycle for cycle, its stamps and stalls
    included. Where no stage is held the first pass already is: every
    stage's arrivals fall at or after the cycles its next stage admits them.
    Within each pass the source-fed stage's arrivals are iterated to their
    fixed point too (fed). The result's `passes` counts the passes. Raises
    InternalError where a pass runs past the cycle budget of a stuck
    pipeline: 16 times the cycles its stages are busy (one per input
    element, k*g per conv output and one per pooled output) plus 100,000."""
    net = NetworkSpec(in_dims, layers)
    validate_plan(FusionPlan(((0, len(layers) - 1),), d_pars), net)
    rns, lags, passes, stages = [None] * len(layers), [None] * len(layers), 0, None
    while True:
        passes += 1
        # the first pass builds each stage as it goes and keeps none: most
        # groups settle there, and every stage's arrays alive at once cost
        # more than building them twice where they do not
        runs, names, work = [], [], in_dims.height * in_dims.width
        for st, rn, lag in zip(stages or _build_stages(net, d_pars, layer_offset), rns, lags):
            runs.append(st.times(runs[-1].out, rn, lag) if runs else st.fed(rn, lag))
            names.append(st.name)
            work += st.work
        if max(run.out[-1] for run in runs) > 16 * work + 100_000:
            raise InternalError(f"schedule did not settle within {16 * work + 100_000} cycles")
        next_rns = [run.release for run in runs[1:]] + [None]
        if all(_settled(run, rn) for run, rn in zip(runs, next_rns[:-1])):
            break
        rns, lags = next_rns, [run.lag for run in runs]
        stages = stages or list(_build_stages(net, d_pars, layer_offset))
    stamps = [StageStamp(st, int(run.out[0]), int(run.out[-1]), len(run.out))
              for st, run in zip(names, runs)]
    return GroupResult(max(s.last_out for s in stamps), stamps,
                       {st: run.stall for st, run in zip(names, runs)}, passes)


def simulate_plan(net: NetworkSpec, input_t: Tensor3D, weights, plan: FusionPlan,
                  oracle=None) -> SimResult:
    """Run the plan's group schedules in turn; each group boundary
    round-trips a full tensor (the traffic model charges it; transfer cycles
    are not simulated). Total cycles are the sum of group cycles. Values do
    not depend on group boundaries, so every layer's values then come from
    one golden.walk_layers over the network, each conv layer's reduced in
    the engine's order at its d_par. Given a list as `oracle`, also reduces
    each conv layer in the oracle's order while the oracle's stream is still
    the walk's (no earlier conv layer's orders gave two arrays), and appends
    its (values, events) there."""
    validate_plan(plan, net)
    check_inputs(net, input_t, weights)
    in_dims = net.layer_input_dims()
    t0 = time.monotonic()
    groups = [simulate_group(net.layers[a:b + 1], in_dims[a],
                             plan.depth_parallel[net.conv_slice((a, b))], layer_offset=a)
              for a, b in plan.groups]
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
        layer_outputs=layer_outputs,
        cycles_per_group=cycles_per_group,
        end_to_end_cycles=sum(cycles_per_group),
        stamps_per_group=[g.stamps for g in groups],
        stall_cycles={name: n for g in groups for name, n in g.stall_cycles.items()},
        saturation_events=events,
        seconds=(t1 - t0, time.monotonic() - t1))
