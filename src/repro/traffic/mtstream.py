"""A bulk-prefetching word-stream view of CPython's Mersenne Twister.

``random.Random`` is a thin wrapper over MT19937: every ``random()``
call consumes exactly two tempered 32-bit words, every
``getrandbits(k)`` consumes ``ceil(k/32)`` words (zero for ``k == 0``)
packed little-endian, and the *values* of those words depend only on
their position in the stream — never on how earlier words were
interpreted.  That positional property is what makes byte-identical
vectorisation possible: :class:`StreamRandom` pulls thousands of
upcoming words out of a base generator in one C call
(``base.getrandbits(32 * k)``), keeps them in a numpy FIFO, and serves
every primitive draw — scalar or vectorised — from that FIFO in
stream order.

Because the wrapper *is* installed as the simulator's traffic RNG, all
consumers (planned Bernoulli cycles, interleaved destination draws,
scalar fallbacks, burst pre-loads) read the same word sequence the
plain generator would have produced, so every draw matches the scalar
reference run draw-for-draw.  The base generator merely runs ahead by
the unconsumed prefetch; no ``getstate``/``setstate`` round-trips are
needed on the hot path, and :meth:`StreamRandom.release` hands a run
that stops batching a plain generator at the consumption point.

Only the two primitive sources (``random``, ``getrandbits``) are
overridden.  Everything built on them — ``randrange``, ``randint``,
``choice``, ... — runs CPython's own pure-Python logic, so any traffic
pattern's destination draw consumes the stream exactly as it would on
the real generator (``_randbelow`` is a fused mirror of CPython's
rejection loop, word for word).

Open-loop Bernoulli injection reads no network state, so the words
already in the FIFO fix every whole cycle they hold.  A gate is
``random() < p`` on words ``(c, c+1)``: with ``T = ceil(p * 2**53)``
that is the integer test ``(w[c] >> 5) * 2**26 + (w[c+1] >> 6) < T``,
which :meth:`StreamRandom._gate_hits` answers for every word offset of
the window at once (``uint32`` compares, no floats).
:meth:`StreamRandom.next_cycle` plans all the cycles the window holds
in one vectorised pass — the uniform pattern's ``_randbelow(n - 1)``
destination draws included, whose positions it chains by pointer
doubling — and then serves them one per call, leaving the cursor where
the scalar loop would stand at that cycle's end.  Any draw in between
moves the cursor off the plan, and the next call re-plans from there.

The contract is checked end to end by ``tests/test_inject_batch.py``
and the engine golden matrix; the frozen reference engine never sees
this class.

numpy is imported unconditionally: this module is reached only from
``BernoulliTraffic.inject_batch``, which only a live array core calls,
and from the core's own module (``import repro.traffic`` does not load
it), so a wheel run never pays for it and a numpy-less install never
gets here.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left

import numpy as _np

#: 2**53 as a float — ``random()`` is ``(a*2**26 + b) * 2**-53`` exactly
_TWO53 = 9007199254740992.0
#: minimum words fetched per refill; amortises the big-int round trip
_REFILL = 4096


class StreamRandom(random.Random):
    """Drop-in ``random.Random`` backed by a prefetched tempered-word FIFO.

    Construct with the generator to mirror and *replace* that generator
    with the wrapper everywhere it is visible — from then on all draws
    must go through the wrapper (the base generator has run ahead and
    would otherwise skip the buffered words), until :meth:`release`
    replaces the wrapper in turn.  ``getstate``/``setstate`` are refused
    loudly for that reason.
    """

    def __init__(self, base: random.Random):
        # deliberately no super().__init__(): it would reseed the C-level
        # state, which the wrapper never reads
        self._base = base
        #: what :meth:`release` replays: the base's state, words fetched
        self._start = base.getstate()
        self._fetched = 0
        self._words = _np.empty(0, dtype=_np.uint32)
        self._pos = 0
        self._gates = None  # _gate_hits' last answer, with its key
        self._plan = None  # next_cycle's planned window
        self._cycle = 0  # the plan's next cycle
        self.gauss_next = None  # random.Random API (gauss() bookkeeping)

    # -- FIFO plumbing ----------------------------------------------------

    def _refill(self, need: int) -> None:
        """Append at least ``need`` more unconsumed words to the FIFO."""
        tail = self._words[self._pos:]
        k = max(need - tail.size, _REFILL)
        words = _np.empty(tail.size + k, dtype=_np.uint32)
        words[:tail.size] = tail
        # ``getrandbits(32 * m)`` consumes exactly m words, little-endian;
        # chunks bound the big-int temporaries
        for at in range(tail.size, words.size, _REFILL):
            m = min(_REFILL, words.size - at)
            big = self._base.getrandbits(32 * m)
            words[at:at + m] = _np.frombuffer(big.to_bytes(4 * m, "little"),
                                              dtype="<u4")
        self._fetched += k
        self._words = words
        self._pos = 0
        self._gates = self._plan = None  # both describe the old window

    def release(self) -> random.Random:
        """A plain generator standing where this stream's next word is.

        Replays the base from its saved state past every word served so
        far, in one C call (≈ 10 ns a word: 41 ms after 4.3 M words on a
        3.11 x86-64 host); the wrapper must not be drawn from afterwards.
        """
        rng = random.Random()
        rng.setstate(self._start)
        rng.getrandbits(32 * (self._fetched - (self._words.size - self._pos)))
        rng.gauss_next = self.gauss_next
        return rng

    def _next_word(self) -> int:
        pos = self._pos
        if pos >= self._words.size:
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        return int(self._words[pos])

    # -- random.Random primitives -----------------------------------------

    def seed(self, *args, **kwargs) -> None:
        """No-op: the stream position is the only state."""

    def getstate(self):
        raise RuntimeError(
            "StreamRandom does not expose generator state; it serves a "
            "prefetched window of its base generator's word stream")

    def setstate(self, state) -> None:
        raise RuntimeError(
            "StreamRandom does not accept generator state; reseed the "
            "simulation instead")

    def random(self) -> float:
        nw = self._next_word
        a = nw() >> 5
        b = nw() >> 6
        return (a * 67108864.0 + b) * (1.0 / _TWO53)

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        nw = self._next_word
        if k <= 32:
            return nw() >> (32 - k)
        words = (k - 1) // 32 + 1
        result = 0
        shift = 0
        for i in range(words):
            w = nw()
            if i == words - 1:
                w >>= words * 32 - k
            result |= w << shift
            shift += 32
        return result

    def _randbelow(self, n):
        """Fused mirror of ``Random._randbelow_with_getrandbits``.

        Consumes the stream identically — one ``k``-bit draw per
        rejection attempt, ``k = n.bit_length()`` — but reads words
        straight out of the FIFO instead of threading three Python
        call levels per attempt (``randrange`` is the hottest pattern
        primitive).
        """
        if not n:
            return 0
        k = n.bit_length()
        if k > 32:
            r = self.getrandbits(k)
            while r >= n:
                r = self.getrandbits(k)
            return r
        shift = 32 - k
        pos = self._pos
        words = self._words
        size = words.size
        while True:
            if pos >= size:
                self._pos = pos
                self._refill(1)
                pos = 0
                words = self._words
                size = words.size
            r = int(words[pos]) >> shift
            pos += 1
            if r < n:
                self._pos = pos
                return r

    # -- Bernoulli gates ----------------------------------------------------

    def _gate_hits(self, p: float):
        """Where the window's gates hit: ``(pos, key, ne)``.

        The gate at word offset ``c`` is ``random() < p`` drawn from
        words ``(c, c+1)``; an interleaved draw can leave the cursor at
        either parity, so every offset is tested.  ``random() < p`` is
        exactly ``(a << 26) + b < T`` with ``a = w[c] >> 5``,
        ``b = w[c+1] >> 6`` and ``T = ceil(p * 2**53)`` (``p`` scales by
        a power of two exactly; ``p >= 1`` hits every gate):
        ``a <= T >> 26`` marks the hits, and the rare ``a == T >> 26``
        ties are settled on ``b``.

        Hits are numbered even offsets first, then odd ones, each run
        closed by a sentinel at offset ``size`` (the window's end):
        ``pos[i]`` is hit ``i``'s offset and ``ne`` the even sentinel's
        number.  ``key`` is ``pos`` with ``size + 1`` added to the odd
        run, ascending, so the first hit at or after offset ``c`` of
        ``c``'s parity is ``searchsorted(key, c + (c & 1) * (size + 1))``.
        Cached per window and ``p``.
        """
        words = self._words
        g = self._gates
        if g is not None and g[0] is words and g[1] == p:
            return g[2]
        size = words.size
        thr = math.ceil(min(p, 1.0) * _TWO53)
        a = thr >> 26
        at = _np.flatnonzero(words[:-1] <= (a << 5 | 31))
        ties = at[words[at] >= a << 5]
        if ties.size:
            at = _np.setdiff1d(
                at, ties[(words[ties + 1] >> 6) >= (thr & 0x3FFFFFF)],
                assume_unique=True)
        odd = (at & 1).astype(bool)
        even_at, odd_at = at[~odd], at[odd]
        pos = _np.concatenate((even_at, [size], odd_at, [size]))
        key = pos.copy()
        key[even_at.size + 1:] += size + 1
        found = (pos, key, even_at.size)
        self._gates = (words, p, found)
        return found

    def next_cycle(self, count: int, p: float, nm1: int = 0):
        """The scalar loop's next cycle: ``count`` gates in node order.

        Consumes exactly what ``for i in range(count): if random() < p:
        ...`` consumes, with one ``_randbelow(nm1)`` drawn after each hit
        when ``nm1 > 0`` (the uniform pattern's destination, ``nm1 <
        2**32``) and nothing when ``nm1 == 0`` (a deterministic
        pattern).  Returns ``(nodes, draws)``: the hit gate indices,
        ascending, and their raw draws (``None`` without draws), as
        int64 arrays the caller must not write to.

        Served from a plan of every whole cycle the window holds; a plan
        is valid for its window, its ``(count, p, nm1)`` and while the
        cursor stands where its last served cycle left it — any other
        draw, refill or argument re-plans from the current cursor.
        """
        pl = self._plan
        k = self._cycle
        if (pl is None or pl[0] is not self._words
                or pl[1] != (count, p, nm1) or k + 1 >= len(pl[2])
                or pl[2][k] != self._pos):
            # 32 words a gate: 14-16 cycles a window at the paper's loads,
            # enough to amortise the plan's numpy calls, not the footprint
            need = 32 * count
            while True:
                if self._words.size - self._pos < need:
                    self._refill(need)
                pl = self._plan_window(count, p, nm1)
                if pl is not None:
                    break
                need = 2 * (self._words.size - self._pos)  # not one cycle
            self._plan, k = pl, 0
        _, _, bounds, first, nodes, draws = pl
        self._cycle = k + 1
        self._pos = bounds[k + 1]
        a, b = first[k], first[k + 1]
        return nodes[a:b], (None if draws is None else draws[a:b])

    def _plan_window(self, count: int, p: float, nm1: int):
        """Every whole cycle the window holds from the cursor, or None."""
        words, s = self._words, self._pos
        size = words.size
        pos, key, ne = self._gate_hits(p)
        nxt = int(_np.searchsorted(key, s + (s & 1) * (size + 1)))
        if nm1:
            # hit i draws at the first accepted word at or after its
            # gate's end, and the walk resumes after that word at its
            # parity.  A hit whose draw lies past the window (and each
            # sentinel) jumps to itself; the hits reached from the
            # cursor follow by pointer doubling, in order
            shift = 32 - nm1.bit_length()
            ok = _np.ones(size + 3, dtype=bool)  # accepted past the end
            _np.less(words, nm1 << shift, out=ok[:size])
            draw_at = pos + 2
            late = _np.flatnonzero(~ok[draw_at])
            while late.size:  # rejected attempts: try the next word
                draw_at[late] += 1
                late = late[~ok[draw_at[late]]]
            stuck = draw_at >= size
            ends = draw_at + 1
            jump = _np.searchsorted(key, ends + (ends & 1) * (size + 1))
            jump[stuck] = _np.flatnonzero(stuck)
            step = jump
            path = _np.array([nxt])
            while jump[path[-1]] != path[-1]:
                path = _np.concatenate((path, step[path]))
                step = step[step]
            # the chain ends before its first self-jump; every gate before
            # that one's offset, at the chain's parity, is a known miss
            stop = int(_np.argmax(path == path[-1]))
            frontier = int(pos[path[stop]])
            path = path[:stop]
            h = pos[path]
            ends = ends[path]
            draws = (words[ends - 1] >> shift).astype(_np.int64)
        else:
            # no draws: the hits are those of the cursor's parity
            h = pos[nxt:ne if nxt <= ne else pos.size - 1]
            ends = h + 2
            draws = None
            frontier = size
        # gate index of every hit: the misses skipped before it, plus one
        gate = _np.cumsum((h - _np.concatenate(([s], ends[:-1]))) // 2 + 1) - 1
        last_end, last_gate = (int(ends[-1]), int(gate[-1])) if h.size else (s, -1)
        cycles = (last_gate + 1 + (frontier - last_end) // 2) // count
        if not cycles:
            return None
        cut = _np.arange(cycles + 1) * count
        first = _np.searchsorted(gate, cut)
        # the cursor after each cycle's last gate: after the last hit's
        # draw, plus a word pair per miss that follows it in the cycle
        j = first[1:]
        bounds = (_np.concatenate(([s], ends))[j]
                  + 2 * (cut[1:] - 1 - _np.concatenate(([-1], gate))[j]))
        n_hits = int(first[-1])
        if draws is not None:
            draws = draws[:n_hits]
        return (words, (count, p, nm1), [s] + bounds.tolist(),
                first.tolist(), gate[:n_hits] % count, draws)

    def walk_gates(self, count: int, p: float, on_hit) -> None:
        """Scan ``count`` Bernoulli(``p``) gate draws, calling ``on_hit(i)``.

        ``i`` is the 0-based gate index (the node id for a whole-fabric
        scan).  ``on_hit`` may draw from this generator — the next gate
        resumes after whatever those draws consumed, exactly like the
        scalar ``for node: if random() < p: dest(...)`` loop.  One
        Python-level step per *hit*, not per node: the next hit at the
        cursor is a ``bisect`` into :meth:`_gate_hits`' keys.
        """
        node = 0
        seen = None
        while node < count:
            c = self._pos
            end = c + 2 * (count - node)
            if self._words.size < end:
                self._refill(end - c)
                c, end = 0, end - c
            found = self._gate_hits(p)
            if found is not seen:
                seen, pos, keys = found, found[0].tolist(), found[1].tolist()
            h = pos[bisect_left(keys, c + (c & 1) * (self._words.size + 1))]
            if h >= end:
                self._pos = end
                return
            node += (h - c) // 2 + 1
            self._pos = h + 2
            on_hit(node - 1)
