"""How a binary fixed point grows, read off its images.

For f prolongable on a, the letter a grows every round, and b stops growing
exactly when f(b) = b. The rounds grow linearly exactly when f(a) = a b^j
and f(b) = b, and the fixed point is then a b^omega. The prefix builder
states these facts instead of detecting them round by round; these tests
check them on every prolongable morphism with |f(a)| + |f(b)| <= 8.
"""

import itertools

from abmorph import fixed_point_prefix, parse_morphism
from abmorph.words import _ladder
from oracles import naive_fixed_point


def prolongable_images(max_total: int) -> list[tuple[str, str]]:
    """Every (f(a), f(b)) with f(a) = a..., |f(a)| >= 2, |f(b)| >= 1 and
    |f(a)| + |f(b)| <= max_total."""
    images = []
    for total in range(3, max_total + 1):
        for la in range(2, total):
            for rest in itertools.product("ab", repeat=total - 1):
                images.append(("a" + "".join(rest[: la - 1]), "".join(rest[la - 1 :])))
    return images


IMAGES = prolongable_images(8)


def test_every_prolongable_morphism_is_listed():
    # sum over |f(a)| + |f(b)| = s of (s - 2) 2^(s - 1), s = 3..8
    assert len(IMAGES) == len(set(IMAGES)) == 1284


def test_ladder_stops_exactly_when_b_is_fixed():
    for image_a, image_b in IMAGES:
        f = parse_morphism(f"a->{image_a}; b->{image_b}")
        rounds = _ladder([f.image_a.data, f.image_b.data], 2, 10**9)
        assert (rounds is None) == (image_b == "b"), (image_a, image_b)


def test_prefixes_match_naive():
    for image_a, image_b in IMAGES:
        f = parse_morphism(f"a->{image_a}; b->{image_b}")
        want = naive_fixed_point(image_a, image_b, 4097)
        for n in (0, 1, 2, 63, 4097):
            got = fixed_point_prefix(f, n)
            assert str(got) == want[:n], (image_a, image_b, n)

