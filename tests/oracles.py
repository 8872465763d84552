"""Naive reference implementations used to cross-check the library.

Everything here works on plain Python strings with quadratic-or-worse
algorithms.  Slow on purpose: the point is that each function is short
enough to audit by eye, so disagreement with the library is a library bug.
The one exception is scan_abelian_period, a numpy scan with no early exit
for prefixes too long for the string references.
"""

from math import gcd

import numpy as np


def naive_apply(image_a: str, image_b: str, u: str) -> str:
    return "".join(image_a if c == "a" else image_b for c in u)


def naive_power(image_a: str, image_b: str, seed: str, t: int) -> str:
    w = seed
    for _ in range(t):
        w = naive_apply(image_a, image_b, w)
    return w


def naive_fixed_point(image_a: str, image_b: str, length: int) -> str:
    # Requires image_a to start with "a" and have length >= 2.
    w = "a"
    while len(w) < length:
        w = naive_apply(image_a, image_b, w)
    return w[:length]


def naive_parikh(u: str) -> tuple[int, int]:
    return u.count("a"), u.count("b")


def naive_is_abelian_period(w: str, r: int, p: int) -> bool:
    """True when w[r:] splits into abelian equivalent blocks of length p.

    Needs at least two full blocks after the preperiod, mirroring the
    library's validity requirement.
    """
    if p < 1 or r < 0:
        return False
    blocks = (len(w) - r) // p
    if blocks < 2:
        return False
    ref = naive_parikh(w[r:r + p])
    for i in range(1, blocks):
        if naive_parikh(w[r + i * p:r + (i + 1) * p]) != ref:
            return False
    return True


def naive_abelian_period(w: str, max_period: int, max_preperiod: int):
    """Smallest (preperiod, period) in lexicographic order, or None."""
    n = len(w)
    for r in range(0, max_preperiod + 1):
        for p in range(1, max_period + 1):
            if n - r < 2 * p:
                continue
            if naive_is_abelian_period(w, r, p):
                return r, p
    return None


def scan_abelian_period(codes, max_period: int, max_preperiod: int):
    """naive_abelian_period on an array of letter codes (0 is a), from every
    disagreement of every period.

    A start r of period p is good when r <= n - 2p and the length-p windows
    at r, r + p, ... that fit hold equally many a's: windows at j and j + p
    agree for every j >= r of r's class mod p. Laid out in rows of p, a
    class is a column, and a reversed running OR down each column marks
    the starts that have a disagreement at or after them."""
    counts = np.concatenate([[0], np.cumsum(np.asarray(codes) == 0, dtype=np.int64)])
    n = counts.size - 1
    best = None
    for p in range(1, max_period + 1):
        last = min(max_preperiod, n - 2 * p)
        if last < 0:
            continue
        win = counts[p:] - counts[:-p]  # the window at each j <= n - p
        bad = win[:-p] != win[p:]  # the disagreement at each j <= n - 2p
        grid = np.zeros(-(-bad.size // p) * p, dtype=bool)
        grid[: bad.size] = bad
        later = np.logical_or.accumulate(grid.reshape(-1, p)[::-1], axis=0)[::-1]
        good = np.flatnonzero(~later.ravel()[: last + 1])
        if good.size and (best is None or good[0] < best[0]):
            best = (int(good[0]), p)
    return best


def naive_complexity(w: str, n: int) -> int:
    seen = set()
    for i in range(len(w) - n + 1):
        seen.add(naive_parikh(w[i:i + n]))
    return len(seen)


def naive_imbalance(w: str, n: int) -> int:
    counts = [w[i:i + n].count("a") for i in range(len(w) - n + 1)]
    return max(counts) - min(counts)


def naive_lcm(x: int, y: int) -> int:
    return x * y // gcd(x, y)


def eventually_periodic_prefix(u: str, w: str, length: int) -> str:
    """Prefix of the infinite word u w w w ..."""
    if length <= len(u):
        return u[:length]
    reps = (length - len(u)) // len(w) + 1
    return (u + w * reps)[:length]


def naive_decide_periodic(image_a: str, image_b: str, max_period: int,
                          max_preperiod: int):
    """First (u, w) over preperiods r, then periods p, ascending, such that
    u w^omega matches the prefix of length max_preperiod + 4 max_period and
    f(u) f(w)^omega = u w^omega exactly.  Returns (u, w) or None."""
    horizon = max_preperiod + 4 * max_period
    x = naive_fixed_point(image_a, image_b, horizon)
    for r in range(max_preperiod + 1):
        for p in range(1, max_period + 1):
            u, w = x[:r], x[r:r + p]
            if eventually_periodic_prefix(u, w, horizon) != x:
                continue
            fu = naive_apply(image_a, image_b, u)
            fw = naive_apply(image_a, image_b, w)
            n = max(len(u), len(fu)) + naive_lcm(len(w), len(fw))
            if eventually_periodic_prefix(fu, fw, n) == \
                    eventually_periodic_prefix(u, w, n):
                return u, w
    return None


def naive_smallest_period(s: bytes) -> int:
    """Least p >= 1 with s[p:] == s[:-p]; len(s) when there is none shorter."""
    return next(p for p in range(1, len(s) + 1) if s[p:] == s[:-p])


def naive_fixed_point_codes(images: list[list[int]], length: int) -> list[int]:
    # Letters are list indices; requires images[0] to start with 0 and to
    # grow, so that the loop reaches `length`.
    w = [0]
    while len(w) < length:
        w = [c for s in w for c in images[s]]
    return w[:length]


def last_round_lengths(images: list[list[int]], m: int) -> list[int]:
    """Prefix lengths at which the last expansion round stops at the image
    of block letter m: one letter short of the images of the first m
    letters of the block, and exactly them.

    The prefix is start . x . f(x) . f^2(x) ...; a round reads the block
    f^k(x) = f^(k+1)(start)[|f^k(start)|:] and writes its image after it.
    Requires a block longer than m + 1 letters to appear."""
    w, lo = list(images[0]), 1
    while len(w) - lo <= m + 1:
        lo, w = len(w), [c for s in w for c in images[s]]
    width = sum(len(images[c]) for c in w[lo:lo + m])
    return [len(w) + width - 1, len(w) + width]


def state_switch_lengths(k: int, chunk: int) -> list[int]:
    """Prefix lengths around the step at which the expansion of a k-uniform
    fixed point stops gathering the rows of the i (k-1) states it knows past
    state i and gathers chunk // k: the first i = k^e with
    i (k-1) >= chunk // k. Lengths one letter short of, at and past the
    rows of the first i and the first i + chunk // k states."""
    step, i = chunk // k, 1
    while i * (k - 1) < step:
        i *= k
    return [r * k + d for r in (i, i + step) for d in (-1, 0, 1)]


def naive_chunks(image_a: str, image_b: str, t: int):
    """Level t >= 1 of the pure criterion, read off f^t(a) and f^t(b).

    Returns the chunk length gcd(|f^t(a)|, |f^t(b)|), the a-counts of all
    chunks of f^t(a) then f^t(b), and, per seed, the cuts between chunks as
    (letter, offset) in the factorization of f^t(x) into blocks f(c), c over
    the letters of f^(t-1)(x)."""
    words = {x: naive_power(image_a, image_b, x, t) for x in "ab"}
    unit = gcd(len(words["a"]), len(words["b"]))
    counts, cuts = [], []
    for x in "ab":
        w = words[x]
        pairs = []
        for c in naive_power(image_a, image_b, x, t - 1):
            pairs += [(c, i) for i in range(len(image_a if c == "a" else image_b))]
        counts += [w[i:i + unit].count("a") for i in range(0, len(w), unit)]
        cuts.append(tuple(pairs[i] for i in range(unit, len(w), unit)))
    return unit, counts, tuple(cuts)


def naive_pure(image_a: str, image_b: str, max_configurations: int) -> dict:
    """The pure scan on materialized words, as PureVerdict.to_json():
    levels t = 1, 2, ... until the cuts repeat (not pure), the chunks all
    share an a-count (pure), or max_configurations levels passed."""
    seen, t = set(), 0
    while len(seen) < max_configurations:
        t += 1
        unit, counts, cuts = naive_chunks(image_a, image_b, t)
        if cuts in seen:
            return {"status": "not_pure", "k": None, "period": None,
                    "iterations_used": t, "cycle_detected": True}
        if len(set(counts)) == 1:
            return {"status": "pure", "k": t, "period": str(unit),
                    "iterations_used": t, "cycle_detected": False}
        seen.add(cuts)
    return {"status": "resource_exhausted", "k": None, "period": None,
            "iterations_used": t, "cycle_detected": False}


def naive_eventual_conditions(wa: str, wb: str, c: int):
    """The four eventual-witness conditions at offset c, read off the words
    wa = f^k(a) and wb = f^k(b), k >= 1, each shifted cyclically by c: the
    chunks of the shifted wa share an a-count, those of wb do, all of them
    do, and the length-c prefixes of wa and wb are anagrams.  The chunk
    length is gcd(|wa|, |wb|)."""
    unit = gcd(len(wa), len(wb))
    counts = []
    for w in (wa, wb):
        shifted = w[c:] + w[:c]
        counts.append([shifted[i:i + unit].count("a")
                       for i in range(0, len(shifted), unit)])
    ca, cb = counts
    return (len(set(ca)) == 1, len(set(cb)) == 1, len(set(ca + cb)) == 1,
            naive_parikh(wa[:c]) == naive_parikh(wb[:c]))


def naive_primitive_root(u: str) -> str:
    for p in range(1, len(u) + 1):
        if len(u) % p == 0 and u[:p] * (len(u) // p) == u:
            return u[:p]
    return u


def naive_conjugate_normalize(image_a: str, image_b: str):
    """The letter-by-letter shift loop: move the common first letter of both
    images to their ends until they start differently, then square when they
    start b, a. Returns (kind, image_a, image_b, shift, power)."""
    if naive_primitive_root(image_a) == naive_primitive_root(image_b):
        return "power_of_common_word", image_a, image_b, "", 1
    ga, gb, shift = image_a, image_b, ""
    for _ in range(naive_lcm(len(image_a), len(image_b)) + 1):
        if ga[0] != gb[0]:
            break
        c = ga[0]
        shift += c
        ga, gb = ga[1:] + c, gb[1:] + c
    else:
        raise AssertionError("shift loop exceeded the lcm bound")
    if ga[0] == "a":
        return "normalized", ga, gb, shift, 1
    return ("swapped_square", naive_apply(ga, gb, ga), naive_apply(ga, gb, gb),
            naive_apply(image_a, image_b, shift) + shift, 2)
