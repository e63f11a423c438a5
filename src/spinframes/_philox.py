"""numpy's seeded multinomial counts in plain Python, bit for bit.

A port of what `numpy.random.Generator(Philox(SeedSequence(seed)))
.multinomial(n, pvals)` computes, taken from numpy's C and Cython sources:

- SeedSequence, for the only two shapes the library asks of it: a root
  seed below 2**64 and that seed's spawned children. Its pool and
  `generate_state(words, uint64)` are straight-line hashes against
  tabulated constants; `empirical_chsh` takes its four term seeds from
  `spawned_seeds` whether or not numpy is loaded;
- Philox 4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1,
  2, 3", SC'11): the key is `generate_state(2, uint64)`, the 256-bit
  counter starts at 0 and is incremented before each block of four words,
  and a double is (word >> 11) * 2**-53;
- `random_binomial`: inversion when min(p, 1 - p) * n <= 30, otherwise BTPE
  (Kachitvichyanukul & Schmeiser, CACM 31, 216 (1988)), with p > 1/2
  mirrored;
- `random_multinomial`: sequential binomials over the remaining probability.

Where C gives an IEEE result and Python's math module raises (a log of 0,
the square root of a negative number, an exp that overflows), the port
spells out the IEEE value. `montecarlo` takes n only up to 2**53, where the
C code's int64 arithmetic cannot overflow and each of its conversions to a
double rounds as Python's does.
"""
from __future__ import annotations

import itertools
import math

from .spin import _sqrt

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# SeedSequence's hash constants. Each hash advances its constant by one
# multiply whatever the value, so the k-th hash of a pool XORs with
# _HASH_A[k] and multiplies by _HASH_A[k + 1]; generate_state does the same
# with _HASH_B. A seed's pool takes 16 hashes, and a child's first two words
# one more each.
_HASH_A = tuple(itertools.accumulate(range(18), lambda h, _: h * 0x931E8875 & _MASK32, initial=0x43B0D7E5))
_HASH_B = tuple(itertools.accumulate(range(4), lambda h, _: h * 0x58F38DED & _MASK32, initial=0x8B51F9DD))
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox 4x64: the round multipliers and the Weyl key increments
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _hash(value: int, k: int) -> int:
    """SeedSequence's hashmix, as the k-th hash of a pool."""
    value = (value ^ _HASH_A[k]) * _HASH_A[k + 1] & _MASK32
    return value ^ value >> 16


def _mix(dst: int, src: int, k: int) -> int:
    """SeedSequence's mix(dst, hashmix(src)), with the k-th hash."""
    value = (_MIX_MULT_L * dst - _MIX_MULT_R * _hash(src, k)) & _MASK32
    return value ^ value >> 16


def _pool(seed: int) -> tuple[int, int, int, int]:
    """The mixed entropy pool of SeedSequence(seed), for 0 <= seed < 2**64:
    the hashes of the seed's two 32-bit words and two zero words, each then
    mixed with a hash of each of the others."""
    a, b, c, d = _hash(seed & _MASK32, 0), _hash(seed >> 32, 1), _hash(0, 2), _hash(0, 3)
    b, c, d = _mix(b, a, 4), _mix(c, a, 5), _mix(d, a, 6)
    a, c, d = _mix(a, b, 7), _mix(c, b, 8), _mix(d, b, 9)
    a, b, d = _mix(a, c, 10), _mix(b, c, 11), _mix(d, c, 12)
    a, b, c = _mix(a, d, 13), _mix(b, d, 14), _mix(c, d, 15)
    return a, b, c, d


def _generate_state(pool: tuple[int, ...], words: int) -> list[int]:
    """SeedSequence.generate_state(words, uint64) for words <= 2: pairs of 32-bit words, low word first."""
    out = []
    for i in range(2 * words):
        value = (pool[i] ^ _HASH_B[i]) * _HASH_B[i + 1] & _MASK32
        out.append(value ^ value >> 16)
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


def spawned_seeds(seed: int, count: int) -> list[int]:
    """The first uint64 of generate_state of each of SeedSequence(seed).spawn(count),
    for 0 <= seed < 2**64. A child pads the seed to four words and appends its
    index, so its pool is the parent's with each word mixed once more with a
    hash of the index; one uint64 of state reads only the first two words."""
    a, b, _, _ = _pool(seed)
    return [_generate_state((_mix(a, i, 16), _mix(b, i, 17)), 1)[0] for i in range(count)]


class _Philox:
    """numpy's Philox(SeedSequence(seed)), as a stream of doubles."""

    __slots__ = ("key", "counter", "buffer")

    def __init__(self, seed: int):
        self.key = _generate_state(_pool(seed), 2)
        self.counter = 0
        self.buffer: list[int] = []  # the current block's unused words, the next one last

    def next_double(self) -> float:
        if not self.buffer:
            self.counter = self.counter + 1 & (1 << 256) - 1
            c = self.counter
            c0, c1, c2, c3 = c & _MASK64, c >> 64 & _MASK64, c >> 128 & _MASK64, c >> 192
            k0, k1 = self.key
            for _ in range(_PHILOX_ROUNDS):
                p0, p1 = _PHILOX_M0 * c0, _PHILOX_M1 * c2
                c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ k0, p1 & _MASK64, p0 >> 64 ^ c3 ^ k1, p0 & _MASK64
                k0, k1 = k0 + _PHILOX_W0 & _MASK64, k1 + _PHILOX_W1 & _MASK64
            self.buffer = [c3, c2, c1, c0]
        return (self.buffer.pop() >> 11) * (1.0 / 9007199254740992.0)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _inversion(rng: _Philox, n: int, p: float) -> int:
    q = 1.0 - p
    qn = _exp(n * math.log1p(-p))
    np_ = n * p
    limit = np_ + 10.0 * _sqrt(np_ * q + 1)
    # (int64_t)MIN(n, limit); a nan limit arises only for p < 0, where qn > 1 ends the search at once
    bound = int(limit) if limit < n else n
    x, px, u = 0, qn, rng.next_double()
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, rng.next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _btpe(rng: _Philox, n: int, p: float) -> int:
    """A binomial draw for 0 < p <= 1/2 with n p > 30."""
    r = p  # min(p, 1 - p), so numpy's closing mirror for p > 1/2 never applies
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    while True:  # step 10
        u = rng.next_double() * p4
        v = rng.next_double()
        if u <= p1:
            return math.floor(xm - p1 * v + u)
        if u <= p2:  # step 20
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:  # step 30; C rejects v == 0 after its undefined cast of -inf
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # step 40
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)  # step 50
        if not (k > 20 and k < nrq / 2.0 - 1):
            s = r / q
            a = s * (n + 1)
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v > f:
                continue
            return y
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)  # step 52
        t = -k * k / (2 * nrq)  # k < 2**31.5 here for n <= 2**53, so C's int64 product does not wrap
        big_a = math.log(v) if v else -math.inf  # v >= 0; it is 0 where step 20 lands on the hat's edge
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        x1, f1, z, w = y + 1.0, m + 1.0, n + 1.0 - m, n - y + 1.0  # n + 1.0 rounds to n at n = 2**53
        x2, f2, z2, w2 = x1 * x1, f1 * f1, z * z, w * w
        bound = (
            xm * math.log(f1 / x1)
            + (n - m + 0.5) * math.log(z / w)
            + (y - m) * math.log(w * r / (x1 * q))
            + (13680. - (462. - (132. - (99. - 140. / f2) / f2) / f2) / f2) / f1 / 166320.
            + (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x1 / 166320.
            + (13680. - (462. - (132. - (99. - 140. / z2) / z2) / z2) / z2) / z / 166320.
            + (13680. - (462. - (132. - (99. - 140. / w2) / w2) / w2) / w2) / w / 166320.
        )
        if big_a > bound:
            continue
        return y


def _binomial(rng: _Philox, n: int, p: float) -> int:
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _inversion(rng, n, p) if p * n <= 30.0 else _btpe(rng, n, p)
    q = 1.0 - p
    return n - (_inversion(rng, n, q) if q * n <= 30.0 else _btpe(rng, n, q))


def multinomial(n: int, pvals, seed: int) -> list[int]:
    """Generator(Philox(SeedSequence(seed))).multinomial(n, pvals) as a list,
    for 1 <= n <= 2**53 and pvals that numpy accepts."""
    rng = _Philox(seed)
    counts = [0] * len(pvals)
    remaining_p, left = 1.0, n
    for j, p in enumerate(pvals[:-1]):
        counts[j] = _binomial(rng, left, p / remaining_p)
        left -= counts[j]
        if left <= 0:
            break
        remaining_p -= p
    if left > 0:
        counts[-1] = left
    return counts
