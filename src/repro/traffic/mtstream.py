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
consumers (batched Bernoulli gates, interleaved destination draws,
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
the real generator.  The hot draws additionally have fused mirrors
that consume the identical words without the call layers:
``_randbelow`` (one rejection loop instead of three call levels per
attempt) and ``walk_gates_uniform`` (the UN pattern's whole
gate-plus-destination hit loop inside the gate walk).

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

import random

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
        # Bernoulli gate-phase caches (built per refill, per threshold)
        self._thr = -1.0
        self._he: list = []
        self._ho: list = []
        self._pe = 0
        self._po = 0
        self._phase_ok = False
        self.gauss_next = None  # random.Random API (gauss() bookkeeping)

    # -- FIFO plumbing ----------------------------------------------------

    def _refill(self, need: int) -> None:
        """Append at least ``need`` more unconsumed words to the FIFO."""
        tail = self._words[self._pos:]
        k = max(need - tail.size, _REFILL)
        big = self._base.getrandbits(32 * k)  # consumes exactly k words
        self._fetched += k
        fresh = _np.frombuffer(big.to_bytes(4 * k, "little"), dtype="<u4")
        self._words = _np.concatenate([tail, fresh]) if tail.size else fresh
        self._pos = 0
        self._phase_ok = False

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

    # -- vectorised access ------------------------------------------------

    def uniform_block(self, count: int):
        """The next ``count`` ``random()`` uniforms as a float64 array.

        Consumes ``2 * count`` words — exactly what ``count`` scalar
        ``random()`` calls would.  This is the deterministic-destination
        fast path: gate the whole fabric in one compare.
        """
        pos = self._pos
        if self._words.size < pos + 2 * count:
            self._refill(2 * count)
            pos = 0
        w = self._words[pos:pos + 2 * count].astype(_np.float64)
        vals = (_np.floor(w[0::2] / 32.0) * 67108864.0 +
                _np.floor(w[1::2] / 64.0)) * (1.0 / _TWO53)
        self._pos = pos + 2 * count
        return vals

    def _build_phases(self, thr: float) -> None:
        """Precompute gate-hit word offsets for both cursor parities.

        A gate draw at word cursor ``c`` reads words ``(c, c+1)``; an
        interleaved destination draw can flip the cursor's parity, so
        two hit lists are kept — ``_he[i]`` flags the gate starting at
        word ``2i``, ``_ho[i]`` the one starting at ``2i+1``.  Values
        compare as exact integers against ``thr * 2**53`` (both sides
        are exactly representable), matching ``random() < p`` bit for
        bit.
        """
        w = self._words.astype(_np.float64)
        hi = _np.floor(w / 32.0) * 67108864.0
        lo = _np.floor(w / 64.0)
        n = w.size
        scaled = thr * _TWO53
        if n >= 2:
            ve = hi[0:n - 1:2] + lo[1:n:2]
            self._he = _np.flatnonzero(ve < scaled).tolist()
        else:
            self._he = []
        if n >= 3:
            vo = hi[1:n - 1:2] + lo[2:n:2]
            self._ho = _np.flatnonzero(vo < scaled).tolist()
        else:
            self._ho = []
        self._pe = 0
        self._po = 0
        self._thr = thr
        self._phase_ok = True

    def walk_gates_uniform(self, count: int, p: float, nm1: int):
        """Fused gate scan + uniform destination draws.

        The UN pattern's hit body is a single ``_randbelow(nm1)`` (with
        ``nm1 = num_nodes - 1``), so the rejection loop can run inline
        in the gate walk — no Python call boundary per hit at all.
        Consumes the word stream exactly as :meth:`walk_gates` would
        with an ``on_hit`` that draws ``_randbelow(nm1)`` once: gates
        read word pairs, every destination attempt reads one ``k``-bit
        word (``k = nm1.bit_length()``), rejected attempts redraw.
        Requires ``0 < nm1 < 2**32``.  Returns ``(srcs, draws)`` lists —
        hit node ids and their raw ``_randbelow`` results; the caller
        maps draws onto destinations (``d if d < src else d + 1``).
        """
        srcs: list = []
        draws: list = []
        add_src = srcs.append
        add_draw = draws.append
        shift = 32 - nm1.bit_length()
        node = 0
        while node < count:
            remaining = count - node
            c = self._pos
            if self._words.size < c + 2 * remaining:
                self._refill(2 * remaining + 64)
                c = 0
            if not self._phase_ok or self._thr != p:
                self._build_phases(p)
            he, ho = self._he, self._ho
            pe, po = self._pe, self._po
            words = self._words
            size = words.size
            while node < count:
                remaining = count - node
                if c & 1:
                    hits, ptr, base = ho, po, (c - 1) >> 1
                else:
                    hits, ptr, base = he, pe, c >> 1
                n = len(hits)
                while ptr < n and hits[ptr] < base:
                    ptr += 1
                limit = base + remaining
                if ptr < n and hits[ptr] < limit:
                    j = hits[ptr] - base
                    ptr += 1
                    if c & 1:
                        po = ptr
                    else:
                        pe = ptr
                    c += 2 * (j + 1)
                    node += j + 1
                    while True:  # inline _randbelow(nm1) rejection loop
                        if c >= size:
                            self._pos = c
                            self._pe, self._po = pe, po
                            self._refill(1)
                            c = 0
                            words = self._words
                            size = words.size
                        r = int(words[c]) >> shift
                        c += 1
                        if r < nm1:
                            break
                    add_src(node - 1)
                    add_draw(r)
                    self._pos = c
                    if not self._phase_ok:
                        break  # a refill invalidated the phases; rescan
                    if size < c + 2 * (count - node):
                        break  # not enough window left; refill and rescan
                else:
                    if c & 1:
                        po = ptr
                    else:
                        pe = ptr
                    c += 2 * remaining
                    node = count
            self._pe, self._po = pe, po
            self._pos = c
        return srcs, draws

    def walk_gates(self, count: int, p: float, on_hit) -> None:
        """Scan ``count`` Bernoulli(``p``) gate draws, calling ``on_hit(i)``.

        ``i`` is the 0-based gate index (the node id for a whole-fabric
        scan).  ``on_hit`` may draw from this generator — the next gate
        resumes after whatever those draws consumed, exactly like the
        scalar ``for node: if random() < p: dest(...)`` loop.  One
        Python-level call per *hit*, not per node.
        """
        node = 0
        while node < count:
            remaining = count - node
            c = self._pos
            if self._words.size < c + 2 * remaining:
                self._refill(2 * remaining + 64)
                c = 0
            if not self._phase_ok or self._thr != p:
                self._build_phases(p)
            he, ho = self._he, self._ho
            pe, po = self._pe, self._po
            size = self._words.size
            while node < count:
                remaining = count - node
                if c & 1:
                    hits, ptr, base = ho, po, (c - 1) >> 1
                else:
                    hits, ptr, base = he, pe, c >> 1
                n = len(hits)
                while ptr < n and hits[ptr] < base:
                    ptr += 1
                limit = base + remaining
                if ptr < n and hits[ptr] < limit:
                    j = hits[ptr] - base
                    ptr += 1
                    if c & 1:
                        po = ptr
                    else:
                        pe = ptr
                    c += 2 * (j + 1)
                    node += j + 1
                    self._pos = c
                    self._pe, self._po = pe, po
                    on_hit(node - 1)
                    c = self._pos  # destination draws advanced it
                    if not self._phase_ok:
                        break  # a draw refilled the FIFO; rebuild and rescan
                    if size < c + 2 * (count - node):
                        break  # not enough window left; refill and rescan
                else:
                    if c & 1:
                        po = ptr
                    else:
                        pe = ptr
                    c += 2 * remaining
                    node = count
            self._pe, self._po = pe, po
            self._pos = c
