"""The stages of a fused line-buffer pipeline, as cycle-level state machines.

Elements are depth-concatenated positions (all channel values of one spatial
location). Every stage advances at most one element per cycle under a
ready/valid handshake, driven by dataflow.simulate_group's clocks. A stage
carries presence tokens, not values, and keeps each fact in one field of its
own: a conv layer is one ConvStage (its line buffer, conv engine and output
register), a pool layer one PoolStage. Two O(1) guards raise InternalError
where a stage would lose data: a conv stage emitting a window whose oldest
real element was overwritten, and a pool element landing in a row slot that
has not drained. Windows leave a line buffer in raster order through a
one-slot skid, so the i-th window an engine sweeps is output position i,
and widx counts the windows out.

A stage keeps no clock; dataflow.simulate_group's clocks do, and stamp the
cycles of its first and final emission (first_out, last_out). The stage
counts its own emissions (emitted) and the cycles its output is held
untaken (out_stall). It assumes its inputs pass config.validate_plan: a
d_par divides its depth, and a pool window is at most its stride. Besides
its single-cycle `step`, a stage exposes the two shortcuts the clocks take.
`quiet_for` and `skip` cross cycles in which only counters move, in closed
form, as long as no element arrives and the output is not taken. The
schedule rests on one invariant: ready() and `out` cannot change on such a
quiet cycle, because a line buffer's fields and the pool's drain position
move only on cycles where quiet_for is 0 or an element arrives, and `out`
only when an element completes or leaves. So an idle stage's handshakes are
those of its last step. `row_period`, `state` and `translate` serve the
row-periodic fast-forward: per counter, its per-period delta and the
highest value a jump may land it on; the counters with every other field
relative to them; and the advance of those counters by whole periods.
"""

from __future__ import annotations

from collections import deque

from .config import ConvSpec, Dims, InternalError, PoolSpec, output_dims
from .costmodel import conv3d_latency

_FOREVER = 1 << 62  # quiet_for of a stage that waits on another stage


def _last_needing(x: int, pad: int, stride: int, n_out: int, w: int):
    """Index of the last output row/column whose window covers coordinate x,
    or None if no window covers it."""
    idx = (x + pad) // stride
    if idx >= n_out:
        idx = n_out - 1
    if x > idx * stride - pad + w - 1:
        return None
    return idx


class ConvStage:
    """One conv layer's unit, element in, depth-k element out: a line buffer
    of w rows of padded width, a conv engine and an output-assembly register
    (`out`), kept as counters.

    The line buffer is its input coordinate (_r_in, _c_in) and widx, the
    next raster window to leave it. A window leaves, into a one-slot skid,
    when all of its real (non synthesized-padding) elements have arrived and
    the skid is empty; an element is refused while its row slot still holds
    a row an unemitted window needs. `overrides` counts the elements
    accepted that ready()'s unclamped rule would have refused.

    The engine takes the skid's window when its sweep of the previous one
    ends and holds it for k*g cycles: one issue a cycle, filters swept per
    serial depth group, groups outermost, into an abstract pipeline of depth
    conv3d_latency that advances (adv) once a cycle. Partial sums across the
    groups combine in a per-filter accumulator row, so only the final
    group's k scalars leave, and a window's element completes on the advance
    its last filter's scalar pops: emq queues those advances. The pipeline
    freezes only on the advance that would complete an element while `out`
    is occupied. The i-th window to leave the line buffer is output position
    i, so its element carries the values dataflow.simulate_plan's walk
    computes there, once per layer after the schedule has run.
    """

    def __init__(self, spec: ConvSpec, in_dims: Dims, d_par: int, name="conv"):
        self.name = name
        self.out_dims = out = output_dims(in_dims, spec)
        self.h, self.w_in = in_dims.height, in_dims.width
        self.w, self.s, self.p = spec.kernel, spec.stride, spec.pad
        self.h_out, self.w_out = out.height, out.width
        self.n_windows = out.height * out.width
        self.k = spec.filters
        self.kg = self.k * (in_dims.depth // d_par)
        self.latency = conv3d_latency(spec.kernel, d_par)
        self._r_in = 0
        self._c_in = 0
        self.widx = 0
        self.overrides = 0
        self.skid = False   # a window waits in the skid slot
        self.cur_left = 0   # issues left in the held window's sweep
        self.adv = 0
        self.emq = deque()  # per queued element, the advance it completes on
        self.out = False
        self.emitted = self.out_stall = 0
        self.first_out = self.last_out = 0
        self._set_threshold()

    def _set_threshold(self):
        """Input position (r * w_in + c) at which the next raster window is
        complete (one past the last element once every window is out), and
        the position past which that window has lost data: its oldest real
        element, at (r_top, c_lo), shares a row slot with element
        (r_top + w, c_lo), the first of its elements to be overwritten."""
        if self.widx >= self.n_windows:
            self._threshold = self.h * self.w_in + 1
            return
        rho, gam = divmod(self.widx, self.w_out)
        r_last = min(rho * self.s - self.p + self.w - 1, self.h - 1)
        c_last = min(gam * self.s - self.p + self.w - 1, self.w_in - 1)
        self._threshold = r_last * self.w_in + c_last + 1
        r_top = max(0, rho * self.s - self.p)
        self._overwritten = (r_top + self.w) * self.w_in + max(0, gam * self.s - self.p)

    def ready(self) -> bool:
        """Accepting the next element may not overwrite a row slot still
        needed by an unemitted window. The top clamp admits the first w rows
        whatever the window: their slots hold no real row."""
        if self._r_in >= self.h:
            return False
        return self._r_in < self.w or self._free()

    def _free(self) -> bool:
        """ready()'s unclamped rule: the next element's row slot, at input row
        r - w, is needed by no unemitted window (padding rows included)."""
        rho = _last_needing(self._r_in - self.w, self.p, self.s, self.h_out, self.w)
        if rho is None:
            return True
        gam = _last_needing(self._c_in, self.p, self.s, self.w_out, self.w)
        if gam is None:
            return True
        return self.widx > rho * self.w_out + gam

    def step(self, in_elem: bool, out_consumed: bool):
        """One clock. The engine advances, completes an element, takes the
        skid's window and issues, unless frozen; then the line buffer emits
        the next window into the skid, decided on previous-cycle fill state,
        and absorbs the offered element, counting it in overrides if only
        ready()'s top clamp admitted it. A held output counts as emitted
        if taken, else as a blocked cycle."""
        if self.out:
            if out_consumed:
                self.out = False
                self.emitted += 1
            else:
                self.out_stall += 1
        emq, adv = self.emq, self.adv + 1
        completes = emq and emq[0] == adv
        if not (completes and self.out):
            self.adv = adv
            if completes:
                emq.popleft()
                self.out = True
            left = self.cur_left
            if not left and self.skid:
                self.skid = False
                left = self.kg
            if left:
                if left == self.k:  # the final depth group's sweep starts
                    emq.append(adv + self.latency + self.k - 1)
                self.cur_left = left - 1
        r, c = self._r_in, self._c_in
        if in_elem and r < self.w and not self._free():
            self.overrides += 1
        pos = r * self.w_in + c
        if not self.skid and pos >= self._threshold:
            if pos > self._overwritten:
                raise InternalError(
                    f"line buffer overwrote window {self.widx} before emitting it")
            self.skid = True
            self.widx += 1
            self._set_threshold()
        if in_elem:
            if c + 1 == self.w_in:
                self._c_in = 0
                self._r_in = r + 1
            else:
                self._c_in = c + 1

    def quiet_for(self) -> int:
        """Upcoming cycles on which the stage does not act on its own: no
        window leaves its line buffer or enters a sweep, no final sweep
        starts and no element completes. A held output freezes the engine at
        the completing advance for good."""
        if not self.skid and self._r_in * self.w_in + self._c_in >= self._threshold:
            return 0
        left = self.cur_left
        if not left:
            q = 0 if self.skid else _FOREVER
        elif left >= self.k:
            q = left - self.k
        else:
            q = left if self.skid else _FOREVER
        if not self.emq:
            return q
        c = self.emq[0] - self.adv - 1
        if self.out:
            return _FOREVER if c <= q else q
        return min(q, c)

    def skip(self, n: int):
        """Advance n quiet cycles in closed form."""
        if self.out:
            self.out_stall += n
            if self.emq:
                n = min(n, self.emq[0] - self.adv - 1)
        self.adv += n
        self.cur_left -= min(n, self.cur_left)

    def row_period(self, rows: int):
        """Per counter of state(), when the stage takes `rows` input rows a
        period: its per-period delta (None where the run sets it; the
        override count's is 0), and the highest value a jump may land it on
        (None: no bound). The input row's and the window index's are the
        last values no bottom clamp acts on; the emitted count's, n_out - 1,
        leaves the final emission to a stepped cycle."""
        wins = rows // self.s * self.w_out
        rho_hi = (self.h - self.w + self.p) // self.s
        return ((rows, wins, wins, None, None, 0),
                (min(self.h - 1, self.h_out * self.s - 1 + self.w - self.p),
                 (rho_hi + 1) * self.w_out - 1, self.n_windows - 1, None, None, None))

    def state(self):
        """(counters, rest): the counters a row-periodic stretch advances by a
        fixed amount per period, and every other field relative to them."""
        adv = self.adv
        return ((self._r_in, self.widx, self.emitted, adv, self.out_stall, self.overrides),
                (self._c_in, self.out, self.cur_left, self.skid,
                 tuple(c - adv for c in self.emq)))

    def translate(self, m: int, delta):
        """Advance m periods: add m times delta to every counter of state()."""
        rows, wins, emitted, adv, stall, _ = (m * d for d in delta)
        self._r_in += rows
        self.widx += wins
        self.emitted += emitted
        self._set_threshold()
        self.adv += adv
        self.emq = deque(c + adv for c in self.emq)
        self.out_stall += stall


class PoolStage:
    """One row of running maxima, updated in raster order: the first element
    landing in a slot opens it, later covered elements fold into it; the
    pooled row drains serially once its last input row completes. The stage
    keeps only its input coordinate and the next slot to drain (w_out: none);
    an element landing in a slot that has not drained is an invariant breach.
    Requires window <= stride, which config.validate_plan checks."""

    def __init__(self, spec: PoolSpec, in_dims: Dims, name="pool"):
        self.name = name
        self.out_dims = output_dims(in_dims, spec)
        self.h_in, self.w_in = in_dims.height, in_dims.width
        self.window = spec.window
        self.stride = spec.stride
        self.h_out, self.w_out = self.out_dims.height, self.out_dims.width
        self._r_in = 0
        self._c_in = 0
        self.drain_pos = self.w_out
        self.out = False
        self.emitted = self.out_stall = 0
        self.first_out = self.last_out = 0

    def ready(self) -> bool:
        r, c = self._r_in, self._c_in
        if r == self.h_in:
            return False
        if r // self.stride >= self.h_out or r % self.stride >= self.window:
            return True
        j = c // self.stride
        if j >= self.w_out or c % self.stride >= self.window:
            return True
        return j < self.drain_pos

    def step(self, in_elem: bool, out_consumed: bool):
        if self.out:
            if out_consumed:
                self.out = False
                self.emitted += 1
            else:
                self.out_stall += 1
        if not self.out and self.drain_pos < self.w_out:
            self.out = True
            self.drain_pos += 1
        if not in_elem:
            return
        r, c = self._r_in, self._c_in
        if c + 1 == self.w_in:
            self._c_in = 0
            self._r_in = r + 1
        else:
            self._c_in = c + 1
        r_out, rp = divmod(r, self.stride)
        c_out, cp = divmod(c, self.stride)
        if r_out < self.h_out and rp < self.window \
                and c_out < self.w_out and cp < self.window:
            if c_out >= self.drain_pos:
                raise InternalError(
                    f"pool slot {c_out} overwritten before it drained")
            if rp == self.window - 1 and cp == self.window - 1 \
                    and c_out == self.w_out - 1:
                self.drain_pos = 0

    def quiet_for(self) -> int:
        return 0 if self.drain_pos < self.w_out and not self.out else _FOREVER

    def skip(self, n: int):
        if self.out:
            self.out_stall += n

    def row_period(self, rows: int):
        """As ConvStage.row_period; the only clamp is on the input row."""
        return ((rows, rows // self.stride * self.w_out, None),
                (min(self.h_in, self.h_out * self.stride) - 1, self.h_out * self.w_out - 1,
                 None))

    def state(self):
        return ((self._r_in, self.emitted, self.out_stall),
                (self._c_in, self.drain_pos, self.out))

    def translate(self, m: int, delta):
        rows, emitted, stall = (m * d for d in delta)
        self._r_in += rows
        self.emitted += emitted
        self.out_stall += stall
