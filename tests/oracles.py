"""Naive reference implementations used to cross-check the library.

Everything here works on plain Python strings with quadratic-or-worse
algorithms.  Slow on purpose: the point is that each function is short
enough to audit by eye, so disagreement with the library is a library bug.
"""

from math import gcd


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
