"""Monte Carlo kernels for walking stopping rules at scale.

Trials step as vectorized numpy arrays.  Increments come from per-trial
splitmix64 streams seeded from (seed, trial index), so a given (seed,
trial) always sees the same walk no matter the order trials are processed
in.  `stream_states` seeds all trials in one vectorized splitmix64 pass
over seed + i*STREAM.  `sim.simulate_reference` replays the executable
rule state machines on the same streams, seeding each trial with the
scalar `mix64` as an independent reference; the tests hold every kernel,
seeding included, to it bit for bit.

Every lockstep kernel (two-point, exit-composition, max-threshold, the
minimal kernel's selection and the matrix kernel's head) runs on one
engine, `_np_lockstep`.  It holds only the live trials, in compact
columns: stream state, position, trial index and the kernel's per-trial
lanes (pair ends, chip index, running maximum, dyadic interval and
target, rank profile).  A walk step costs work in the live trials only:
the finalizer stops after its second multiply, the position moves by the
sign bit, and the kernel's `step` updates its lanes and returns a stop
mask.  When some trial stops, every column is compacted with the integer
index of the trials left; indexing by a boolean mask costs several times
as much.  Until the first stop the columns are the caller's arrays,
stepped in place.

The minimal kernel steps in lockstep only while some live trial is still
reading selector bits (at most `MAX_DYADIC_BITS` steps).  Once every live
trial has a fixed target, what is left is a first passage to that target,
often heavy-tailed, and it runs in packed blocks: each live trial
advances B = min(8 * (max(trials, BLOCK) // live), max_steps - t) steps
per iteration.  splitmix64 is counter based, state_j = s + j*GAMMA, so a
block's increments are the ones lockstep stepping would draw, and the
results are bit-identical.  A step reads only bit 63 of the finalizer,
and its last xor-shift, z ^ (z >> 31), leaves bit 63 as it is, so both
lockstep steps and blocks stop after the second multiply.  A block hashes
its states in tiles of at most max(trials, BLOCK) elements and keeps only
the sign bits, eight steps to a byte, so its byte array holds at most
max(trials, BLOCK) bytes.  It then finds each trial's first visit a byte
at a time, with 256-entry tables of each byte's displacement, the range
of positions it visits and the step at which it first visits each:
a cumsum over bytes in place of one over steps.

The matrix kernel runs a path-count matrix rule whose tails stop nothing
in two phases.  Through the head it keeps each live trial's rank profile,
`MatrixRuleState.smaller` with its zeros filled in over the strip sites
the head can reach, as int64; after the head every stop count is 0, so
the only stop left is the exit at +-(N+1), and the live trials run the
two-point kernel from the states and positions the engine wrote back for
them.

Every value a kernel compares positions with (target sites, pair ends,
chip ends, threshold levels) is clamped to +-2^62 before it becomes int64:
a walk would need 2^62 steps to reach either the clamped value or the one
beyond it, so values outside int64 simulate exactly.

Each kernel returns (positions, steps, stopped): final site, number of
steps consumed, and whether the rule actually stopped within `max_steps`
(unstopped trials are truncation, reported, never folded into the law).

The module imports without numpy, so `import walkembed` and every exact
command stay numpy-free: the global `np` is bound by `_numpy` in
`stream_states` and `clamp_sites`, and every entry point (one
`run_<kind>` per rule kind, which reads the rule's table as given) seeds
its trials through `stream_states` before any other array is made.
"""

from __future__ import annotations

import functools

np = None  # numpy, once `_numpy` has run

# read by the benchmark's set-up child (perfbench/run.py)
HAVE_NUMBA = False

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
STREAM = 0x632BE59BD9B4E019
MASK = (1 << 64) - 1

# the dyadic selector is forced after this many bits; beyond it float64
# cannot represent the interval ends exactly anyway, and the residual
# ambiguity (one part in 2^52) is far below any Monte Carlo resolution
MAX_DYADIC_BITS = 52

# element floor of a first-passage block: its hash tiles hold at most
# max(trials, BLOCK) states, and its byte array as many bytes, 8 steps
# each.  A block costs a few dozen numpy calls whatever its size; at 5000
# trials the floor cuts the blocks of minimal-rule first passages about
# threefold.  2^15 would add 384 KB of hash tiles, about 1 % of the
# peak RSS of a 5000-trial `simulate`
BLOCK = 1 << 14


# longest head, in stages, that `run_matrix` takes: its rank phase ends by
# step 2*31 - 2 = 60, and a rank counts fewer than 2^t histories, so int64
# holds it exactly
MAX_MATRIX_HEAD = 31


def mix64(z: int) -> int:
    """splitmix64 finalizer on plain Python ints."""
    z &= MASK
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return z ^ (z >> 31)


def _numpy() -> None:
    global np
    import numpy as np


def stream_states(seed: int, trials: int) -> np.ndarray:
    """Initial splitmix64 state for each trial, as uint64.

    Trial i starts from mix64((seed + i*STREAM) mod 2^64), computed for all
    trials in one numpy pass: the uint64 products and sums wrap mod 2^64
    exactly as the masked Python ints do.
    """
    _numpy()
    z = np.arange(trials, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= np.uint64(STREAM)
        z += np.uint64(seed & MASK)
        return _np_mix(z)


def clamp_sites(values) -> np.ndarray:
    """`values` as int64, each clamped to +-2^62.

    |S_t| <= t, so a clamped site is reached exactly when the original is:
    never, in any run that can finish.  2^62 leaves room for the
    differences the kernels take of positions and sites.
    """
    _numpy()
    r = 1 << 62
    return np.asarray([min(max(v, -r), r) for v in values], dtype=np.int64)


# read by the benchmark's set-up child (perfbench/run.py)
def resolve_backend(requested: str | None = None) -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# stepping


def _np_mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each element of `z`, in place, with one
    scratch buffer of its size."""
    tmp = np.empty_like(z)
    for shift, mul in ((30, MIX1), (27, MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mul)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _np_next(states: np.ndarray) -> np.ndarray:
    """The first draw of each stream, in place: every state advances by
    GAMMA and is replaced by its finalizer."""
    states += np.uint64(GAMMA)
    return _np_mix(states)


def _np_lockstep(states, lanes, stopped, step, max_steps, until=None):
    """Step every trial not `stopped` at time zero in lockstep, on the
    compact columns the module docstring describes.

    `lanes` is a list of per-trial arrays, whose entries the engine
    replaces with compact copies as trials stop.  After each step
    `step(lanes, p, down, t)` sees the live positions `p` and negated
    increments `down` (+1 down, -1 up), updates the lanes in place or by
    rebinding an entry, and returns the stop mask over the live trials.
    Stepping ends when no trial is live, at `max_steps`, or once
    `until(lanes)` holds before a step.

    Returns (pos, steps, stopped, live), `stopped` updated in place:
    `live` lists the trials still running, in the order of the compact
    `lanes`; their states, positions and steps taken are written back to
    `states`, `pos` and `steps`.
    """
    n = states.shape[0]
    pos = np.zeros(n, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    s, p, idx = states, pos, None
    if stopped.any():
        idx = np.flatnonzero(~stopped)
        s, p = s[idx], p[idx]
        for i in range(len(lanes)):
            lanes[i] = lanes[i][idx]
    gamma, mix1, mix2 = np.uint64(GAMMA), np.uint64(MIX1), np.uint64(MIX2)
    r30, r27 = np.uint64(30), np.uint64(27)
    t = 0
    with np.errstate(over="ignore"):
        while p.size and t < max_steps and not (until and until(lanes)):
            t += 1
            s += gamma
            z = s >> r30
            z ^= s
            z *= mix1
            w = z >> r27
            z ^= w
            del w
            z *= mix2
            down = z.view(np.int64)
            down >>= 63
            down |= 1
            p -= down
            hit = step(lanes, p, down, t)
            del z, down
            just = np.flatnonzero(hit)
            if not just.size:
                continue
            if idx is None:  # p is still `pos` itself
                who = just
            else:
                who = idx[just]
                pos[who] = p[just]
            steps[who] = t
            stopped[who] = True
            del who, just
            keep = np.flatnonzero(np.logical_not(hit, out=hit))
            del hit
            # one column at a time, so each old one is freed before the
            # next is copied
            idx = keep if idx is None else idx[keep]
            s = s[keep]
            p = p[keep]
            for i in range(len(lanes)):
                lanes[i] = lanes[i][keep]
    if idx is None:
        steps[:] = t
        return pos, steps, stopped, np.arange(n)
    states[idx], pos[idx], steps[idx] = s, p, t
    return pos, steps, stopped, idx


def _np_two_point(states, ends, max_steps):
    """Each trial stops at the first visit of either of its `ends`, the
    lanes [us, vs]; a caller that keeps no reference to them lets the
    engine free each at its first compaction."""
    def step(lanes, p, down, t):
        us, vs = lanes
        hit = p == us
        hit |= p == vs
        return hit

    stop0 = (ends[0] == 0) | (ends[1] == 0)
    return _np_lockstep(states, ends, stop0, step, max_steps)[:3]


@functools.cache
def _byte_tables():
    """Tables over the 256 values of a packed byte, whose bit j (least
    significant first) is 1 when step j + 1 of the byte goes up.

    `table[v]` holds, as int8: the displacement of the byte's eight
    steps; `lod`, the lowest position they visit less that displacement;
    and `span`, the highest position less the lowest.  Positions count
    from the byte's start, after each of its steps.  A +-1 walk visits
    every integer between its lowest and highest positions, so the byte
    visits lowest + u exactly when 0 <= u <= span, and `first[v, u]` is
    then its first step (1..8) there.  Built once, on first use.
    """
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    walk = np.cumsum(2 * bits - 1, axis=1)
    lo, hi, disp = walk.min(axis=1), walk.max(axis=1), walk[:, -1]
    table = np.zeros((256, 4), dtype=np.int8)
    table[:, 0], table[:, 1], table[:, 2] = disp, lo - disp, hi - lo
    meet = walk[:, :, None] == lo[:, None, None] + np.arange(8)
    return table, (meet.argmax(axis=1) + 1).astype(np.int8)


def _np_pack_steps(s, nb, bufs):
    """Signs of steps 1..8*nb of the stream at each state of `s`, packed:
    bit j of byte i of row r is 1 when step 8i + j + 1 of s[r] goes up.

    The states s + j*GAMMA are hashed in tiles of at most the size of the
    three uint64 buffers `bufs` (states, finalizer, scratch): each tile
    spans `cols` steps of as many rows as fit.  The first tile of those
    rows adds a ramp of GAMMA multiples to their states; each further tile
    adds cols*GAMMA to the states of the one before, which stay in their
    own buffer.  The finalizer stops after its second multiply, since
    z ^ (z >> 31) has the bit 63 of z.
    """
    st, z, tmp = bufs
    n = s.size
    cols = min(8 * nb, max(8, st.size // n // 8 * 8))
    rows = st.size // cols
    ramp = np.arange(1, cols + 1, dtype=np.uint64)
    ramp *= np.uint64(GAMMA)
    stride = np.uint64((cols * GAMMA) & MASK)
    mix1, mix2 = np.uint64(MIX1), np.uint64(MIX2)
    r30, r27 = np.uint64(30), np.uint64(27)
    bits = np.empty((n, nb), dtype=np.uint8)
    for r in range(0, n, rows):
        sr = s[r:r + rows]
        x = st[:sr.size * cols].reshape(sr.size, cols)
        np.add(sr[:, None], ramp, out=x)
        for c in range(0, 8 * nb, cols):
            if c:
                x += stride
            w = min(cols, 8 * nb - c)
            k = sr.size * w
            y = z[:k]
            y2 = y.reshape(sr.size, w)
            np.right_shift(x[:, :w], r30, out=y2)
            np.bitwise_xor(y2, x[:, :w], out=y2)
            y *= mix1
            np.right_shift(y, r27, out=tmp[:k])
            y ^= tmp[:k]
            y *= mix2
            up = np.less(y.view(np.int64), 0, out=tmp.view(np.bool_)[:k])
            bits[r:r + rows, c // 8:(c + w) // 8] = np.packbits(
                up, bitorder="little").reshape(sr.size, w // 8)
    return bits


def _np_scan(bits, dist, b, bufs):
    """First visits in a packed block, found a byte at a time.

    Row r starts the block `dist[r]` steps below its goal (above it, if
    negative) and takes the b steps whose signs `bits` holds, its last
    byte padded with down-steps.  Returns the rows that visit their goal
    within the b steps, the step (1..b) of each first visit, and every
    row's displacement over its 8*nb steps, padding included.

    One cumsum over the bytes' displacements, the rows laid end to end,
    gives the position at each byte end; each row's distance is shifted
    by the position at which its own bytes start.  The first byte of a
    row whose range of positions holds the distance left at its start
    holds the visit, and `first` names its step.  The work arrays are
    int32 views of `bufs`: a distance is clipped to 8*nb + 8, beyond which
    no byte of the block can meet it, so no value exceeds 16*m + 8*nb + 16
    for m = n*nb bytes, inside int32 for any block under 10^8 bytes.
    """
    table, first = _byte_tables()
    n, nb = bits.shape
    m = n * nb
    st, z, tmp = bufs
    flat = bits.reshape(-1)
    ix = z.view(np.intp)[:m]
    ix[:] = flat
    # one gather per byte of (disp, lod, span), as int8 columns
    g = np.take(table.view(np.int32)[:, 0], ix, mode="wrap",
                out=tmp.view(np.int32)[:m]).view(np.int8).reshape(m, 4)
    c = np.cumsum(g[:, 0], dtype=np.int32, out=z.view(np.int32)[:m])
    last = c.reshape(n, nb)[:, -1]
    far = 8 * nb + 8
    d = np.clip(dist, -far, far).astype(np.int32)
    d[1:] += last[:-1]
    end = last.copy()
    end[1:] -= last[:-1]
    # u = distance left at a byte's start less the byte's lowest position
    c += g[:, 1]
    np.subtract(d[:, None], c.reshape(n, nb), out=c.reshape(n, nb))
    hit = np.less_equal(c.view(np.uint32), g[:, 2].view(np.uint8),
                        out=st.view(np.bool_)[:m])
    h = np.flatnonzero(hit)
    row = h // nb
    lead = np.ones(h.size, dtype=bool)
    np.not_equal(row[1:], row[:-1], out=lead[1:])
    h, row = h[lead], row[lead]
    k = 8 * (h - row * nb) + first[flat[h], c[h]]
    ok = k <= b
    return row[ok], k[ok], end


def _np_first_passage(states, pos, steps, stopped, lanes, max_steps):
    """Walk each trial of `live` to its first visit of its `goal`, the
    lanes [live, goal]; the caller's list is emptied, so each is freed at
    the first compaction.

    All such trials have taken the same number of steps t; each loop
    iteration advances them B = min(8 * (max(trials, BLOCK) // live),
    max_steps - t) steps at once, a byte of `_np_pack_steps` per 8 steps,
    and `_np_scan` finds the first visits.  Step j of a block uses state
    s + j*GAMMA, the state lockstep stepping would reach, so stop steps
    and sites are bit-identical to it.  A trial is live only while it
    has not visited its goal, so no block starts on it.  Hashing and scan
    share three uint64 buffers of max(trials, BLOCK) elements, allocated
    once.  Updates `pos`, `steps` and `stopped` in place.
    """
    idx, goal = lanes
    del lanes[:]
    if idx.size == 0 or steps[idx[0]] >= max_steps:
        return
    t = int(steps[idx[0]])
    s, dist = states[idx], goal - pos[idx]
    cap = max(states.shape[0], BLOCK)
    # a tile holds at least one byte of steps
    bufs = tuple(np.empty(max(8, cap), dtype=np.uint64) for _ in range(3))
    with np.errstate(over="ignore"):
        while idx.size and t < max_steps:
            n = idx.size
            b = min(8 * (cap // n), max_steps - t)
            nb = (b + 7) // 8
            bits = _np_pack_steps(s, nb, bufs)
            if b % 8:  # the pad of the last byte walks down
                bits[:, -1] &= np.uint8((1 << (b % 8)) - 1)
            row, k, end = _np_scan(bits, dist, b, bufs)
            if row.size:
                just = idx[row]
                pos[just] = goal[row]
                steps[just] = t + k
                stopped[just] = True
                keep = np.ones(n, dtype=bool)
                keep[row] = False
                keep = np.flatnonzero(keep)
                # one lane at a time, each old one freed before the next
                idx = idx[keep]
                goal = goal[keep]
                s = s[keep]
                dist = dist[keep]
                end = end[keep]
            s += np.uint64((b * GAMMA) & MASK)
            dist -= end
            dist -= 8 * nb - b
            t += b
    pos[idx] = goal - dist
    steps[idx] = max_steps


def _np_matrix_head(states, table, half_width, head_steps):
    """Step trials through the first `head_steps` steps of a matrix rule.

    `table[n, w + j]` is the stop count a(j, n) of strip site j, |j| <= w.
    Each live trial's lane is its rank profile over those sites: every
    step sums the ranks either side of each site, adds the down-step
    sibling of an up-step at the previous site less one, stops the trial
    if its rank is below a(pos, stage) or it left the strip, and takes the
    stop counts off the rest.  Sites past w are off the strip or out of
    the head's reach, so their ranks stay 0.  The states and positions of
    the trials still live are written back for the exit phase.
    """
    n, width = states.shape[0], table.shape[1]
    w = width // 2

    def step(lanes, p, down, t):
        old = lanes[0]
        new = np.empty_like(old)
        new[:, 0] = 0
        new[:, 1:] = old[:, :-1]
        new[:, :-1] += old[:, 1:]
        sib = np.flatnonzero((down < 0) & (p - 2 >= -w))
        new[sib, p[sib] - 2 + w] += 1
        a = table[(t + 1) // 2]
        col = np.clip(p + w, 0, width - 1)
        hit = (np.abs(p) > half_width) | (new[np.arange(p.size), col] < a[col])
        new -= a
        lanes[0] = np.maximum(new, 0, out=new)
        return hit

    stop0 = np.full(n, table[0, w] > 0)
    return _np_lockstep(states, [np.zeros((n, width), dtype=np.int64)], stop0,
                        step, head_steps)[:3]


# ---------------------------------------------------------------------------
# entry points: seed the streams, then step


def run_two_point(seed, ends, draws, max_steps):
    """Trial i stops at the first visit of either end of `ends[draws[i]]`."""
    states = stream_states(seed, len(draws))
    return _np_two_point(states, [clamp_sites([u for u, _ in ends])[draws],
                                  clamp_sites([v for _, v in ends])[draws]],
                         max_steps)


def run_exit_composition(seed, trials, chips, max_steps):
    """Each live trial's lane is the index of its chip; a trial that
    reached an end of its chip moves on to the next chip that holds it,
    and stops once it has passed the last.

    A down-step can only reach a chip's lower end and an up-step its
    upper end, so `after[c, 0]` and `after[c, 1]` give the chip that
    follows c from each end: the first later chip holding that end
    strictly inside, or m to stop, as `ExitCompositionState` settles."""
    states = stream_states(seed, trials)
    m = len(chips)
    chips_a = clamp_sites([c.a for c in chips])
    chips_b = clamp_sites([c.b for c in chips])

    def holder(first, x):
        return next((j for j in range(first, m)
                     if chips[j].a < x < chips[j].b), m)

    after = np.array([[holder(c + 1, chips[c].a), holder(c + 1, chips[c].b)]
                      for c in range(m)], dtype=np.int64)

    def step(lanes, p, down, t):
        cur = lanes[0]
        hit = p == chips_a[cur]
        hit |= p == chips_b[cur]
        out = np.flatnonzero(hit)
        if out.size:
            # down is +1 on a down-step and -1 on an up-step
            cur[out] = c = after[cur[out], (1 - down[out]) >> 1]
            hit[out] = c >= m
        return hit

    # every trial starts at 0, on the first chip that holds 0; an empty
    # composition stops every trial there
    c0 = holder(0, 0)
    return _np_lockstep(states, [np.full(trials, c0)],
                        np.full(trials, c0 == m), step, max_steps)[:3]


def run_max_threshold(seed, trials, thresholds, max_steps):
    """A trial stops once its running maximum reaches the level of its
    site.  `thresholds` is a `MaxThresholdRule`'s table: (site, level)
    pairs sorted by site, one per site of an interval [lo, hi] holding 0.
    A site below lo reads the level of lo, and a site above hi stops at
    once, so the table gains a last entry below every maximum."""
    states = stream_states(seed, trials)
    lo, hi = thresholds[0][0], thresholds[-1][0]
    levels = clamp_sites([lv for _, lv in thresholds])
    table = np.append(levels, np.iinfo(np.int64).min)

    def step(lanes, p, down, t):
        mx = lanes[0]
        np.maximum(mx, p, out=mx)
        k = p - lo
        np.clip(k, 0, hi - lo + 1, out=k)
        return mx >= table[k]

    stop0 = np.full(trials, levels[-lo] <= 0)
    return _np_lockstep(states, [np.zeros(trials, dtype=np.int64)], stop0,
                        step, max_steps)[:3]


def run_minimal(seed, trials, sites, cut_points, max_steps):
    """Selection runs in lockstep, first passage in blocks.

    While some live trial has no target, the live trials step on
    `_np_lockstep` with lanes `low`, `target` and `resolved`, and the
    trials still selecting read up-steps as dyadic digits; this ends by
    step `MAX_DYADIC_BITS`.  Every trial without a target is live and has
    read t digits, so its dyadic interval is [low, low + 2^-t).  From then
    on each live trial only waits for the first visit of its target, and
    `_np_first_passage` walks it there in blocks from the states,
    positions and targets the selection left.
    """
    states = stream_states(seed, trials)
    sites = clamp_sites(sites)
    cuts = np.asarray([float(c) for c in cut_points], dtype=np.float64)

    def resolve(lanes, open_, t):
        low, target, resolved = lanes
        width = 0.5 ** t
        force = t >= MAX_DYADIC_BITS
        base = low[open_]
        j = np.searchsorted(cuts, base + (width * 0.5 if force else 0.0),
                            side="right")
        j = np.minimum(j, len(cuts) - 1)
        ok = force | (base + width <= cuts[j])
        hit = open_[ok]
        resolved[hit] = True
        target[hit] = sites[j[ok]]

    def step(lanes, p, down, t):
        low, target, resolved = lanes
        open_ = np.flatnonzero(~resolved)
        if open_.size:
            low[open_[down[open_] < 0]] += 0.5 ** t
            resolve(lanes, open_, t)
        hit = p == target
        hit &= resolved
        return hit

    lanes = [np.zeros(trials, dtype=np.float64),
             np.zeros(trials, dtype=np.int64), np.zeros(trials, dtype=bool)]
    resolve(lanes, np.arange(trials), 0)
    stop0 = lanes[2] & (lanes[1] == 0)
    pos, steps, stopped, live = _np_lockstep(
        states, lanes, stop0, step, max_steps, until=lambda lanes: lanes[2].all())
    lanes[:] = live, lanes[1]  # free the dyadic intervals
    del live
    _np_first_passage(states, pos, steps, stopped, lanes, max_steps)
    return pos, steps, stopped


def run_matrix(seed, trials, matrix, max_steps):
    """Trials of the rule of a `StoppingMatrix` whose rows have tails that
    stop nothing and whose head is at most `MAX_MATRIX_HEAD` stages.

    The head phase runs to step 2 * head_length - 2, the last of a stage
    below head_length, in chunks of trials whose rank arrays hold at most
    max(trials, BLOCK) elements, as a first-passage block does.  Every
    trial still live then sits at step head_steps, and walks to the first
    visit of -(N+1) or N+1 on the same stream.
    """
    states = stream_states(seed, trials)
    bound = matrix.half_width + 1
    head_steps = min(2 * matrix.head_length - 2, max_steps)
    w = min(matrix.half_width, head_steps)
    # `simulate`'s check (`exact_law_matrix`) bounds every count the head
    # reads by its arrivals, below 2^60, and rejects a(j, 0) at odd j, which
    # no walk reads; a direct call may still pass one.  Any count of 2^62 or
    # more would stop and clear the same trials as 2^62
    cap = 1 << 62
    table = np.asarray([[min(matrix.entry(j, n), cap) for j in range(-w, w + 1)]
                        for n in range(matrix.head_length)], dtype=np.int64)
    rows = max(1, max(trials, BLOCK) // (2 * w + 1))
    parts = [_np_matrix_head(states[i:i + rows], table, matrix.half_width,
                             head_steps) for i in range(0, trials, rows)]
    pos, steps, stopped = (np.concatenate(x) for x in zip(*parts))
    live = np.nonzero(~stopped)[0]
    p = pos[live]
    q, s, done = _np_two_point(states[live], [-bound - p, bound - p],
                               max_steps - head_steps)
    pos[live] = p + q
    steps[live] += s
    stopped[live] = done
    return pos, steps, stopped
