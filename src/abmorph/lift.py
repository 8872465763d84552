"""Uniform lift of a second-eigenvalue-zero morphism to a coded automaton.

When the incidence matrix of f has determinant 0, lengths scale by the trace
k = nA + mB, so |f(f(c))| = k |f(c)| for both letters. Annotating the fixed
point's block factorization position by position yields a k-uniform morphism
on the extended alphabet {(c, i) : 0 <= i < |f(c)|}, and the original fixed
point is recovered by the coding (c, i) -> f(c)[i]. Reading base-k digits of
n most significant first, the induced automaton outputs letter n of the fixed
point, which is therefore k-automatic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTraceError, OutOfRangeError
from .matrices import Rank1Form
from .words import _CHUNK, BinaryMorphism, _expand_prefix, fixed_point_prefix


@dataclass(frozen=True)
class UniformLift:
    """A k-uniform morphism over the position-pair alphabet plus its coding.

    State ids enumerate the pairs (a, 0..|f(a)|-1) first, then
    (b, 0..|f(b)|-1). images[s] lists the k successor states of state s;
    coding[s] is the fixed-point letter at positions annotated by s. State 0
    is the initial state (a, 0)."""

    image_length_a: int
    image_length_b: int
    k: int
    images: tuple[tuple[int, ...], ...]
    coding: tuple[str, ...]

    @property
    def size(self) -> int:
        return self.image_length_a + self.image_length_b

    def letter_pair(self, state: int) -> tuple[str, int]:
        if not 0 <= state < self.size:
            raise OutOfRangeError(f"state {state} outside [0, {self.size})")
        if state < self.image_length_a:
            return ("a", state)
        return ("b", state - self.image_length_a)

    def state_label(self, state: int) -> str:
        c, i = self.letter_pair(state)
        return f"{c}{i}"


def build_lift(f: BinaryMorphism, form: Rank1Form) -> UniformLift:
    """Construct the k-uniform lift, k being the rank-1 trace.

    The image of (c, i) is the i-th length-k chunk of the annotated
    factorization of f(f(c)) into blocks f(d), d over the letters of f(c):
    the concatenation of the id runs (d, 0), ..., (d, |f(d)|-1)."""
    f.require_prolongable()
    k = form.trace
    if k < 2:
        raise DegenerateTraceError(f"lift needs trace >= 2, got {k}")
    image_a, image_b = str(f.image_a), str(f.image_b)
    la, lb = len(image_a), len(image_b)
    runs = {"a": range(la), "b": range(la, la + lb)}
    images: list[tuple[int, ...]] = []
    for image in (image_a, image_b):
        ann = [s for d in image for s in runs[d]]
        if len(ann) != k * len(image):
            raise DegenerateTraceError(
                "image lengths do not scale by the trace; the matrix is not rank 1"
            )
        images.extend(tuple(ann[i : i + k]) for i in range(0, len(ann), k))
    lift = UniformLift(la, lb, k, tuple(images), tuple(image_a + image_b))
    assert lift.images[0][0] == 0, "lift must be prolongable on state 0"
    return lift


def lift_fixed_prefix(lift: UniformLift, length: int) -> np.ndarray:
    """First `length` states of the lifted fixed point (int32 state ids)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return _expand_prefix(np.array(lift.images, dtype=np.int32), 0, length)


def lift_verify(f: BinaryMorphism, lift: UniformLift, length: int) -> bool:
    """Does the coded lifted fixed point reproduce f^omega(a) on `length` letters?

    The lifted fixed point is its own image, so coding the images of its
    first ceil(length / k) states gives the first `length` letters. Those
    states are expanded after the letter prefix, in uint8 when the lift has
    at most 256 states; each chunk of _CHUNK states is coded by one row
    gather into a reused buffer and compared: about 1 + 1/k bytes per letter."""
    letters = fixed_point_prefix(f, length).data
    table = np.array(lift.images, dtype=np.uint8 if lift.size <= 256 else np.int32)
    states = _expand_prefix(table, 0, -(-length // lift.k))
    coded_images = (np.array(lift.coding) == "b")[table].view(np.uint8)
    buf = np.empty((min(states.size, _CHUNK), lift.k), dtype=np.uint8)
    for lo in range(0, states.size, _CHUNK):
        chunk = states[lo : lo + _CHUNK]
        coded = np.take(coded_images, chunk, axis=0, out=buf[: chunk.size], mode="clip")
        want = letters[lo * lift.k : (lo + _CHUNK) * lift.k]
        if not np.array_equal(coded.reshape(-1)[: want.size], want):
            return False
    return True


def is_bijective(lift: UniformLift) -> bool:
    """True when every digit acts as a permutation of the states."""
    n = lift.size
    for j in range(lift.k):
        if len({im[j] for im in lift.images}) != n:
            return False
    return True


def dfao_eval(lift: UniformLift, n: int) -> str:
    """Letter n of the fixed point, by reading the base-k digits of n most
    significant first from the initial state; n = 0 reads no digits."""
    if n < 0:
        raise OutOfRangeError("position must be >= 0")
    digits = []
    while n:
        n, r = divmod(n, lift.k)
        digits.append(r)
    state = 0
    for d in reversed(digits):
        state = lift.images[state][d]
    return lift.coding[state]


def dfao_table(lift: UniformLift) -> dict:
    """JSON-ready transition table with 1-based state ids."""
    states = []
    for s in range(lift.size):
        states.append(
            {
                "id": s + 1,
                "pair": lift.state_label(s),
                "output": lift.coding[s],
                "next": [t + 1 for t in lift.images[s]],
            }
        )
    return {
        "base": lift.k,
        "initial": 1,
        "bijective": is_bijective(lift),
        "states": states,
    }


def dfao_dot(lift: UniformLift) -> str:
    """DOT rendering of the automaton; edges merge digits sharing a target."""
    lines = [
        "digraph dfao {",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
        "  __start -> q1;",
    ]
    for s in range(lift.size):
        lines.append(
            f'  q{s + 1} [shape=circle, label="{s + 1}:{lift.state_label(s)}/{lift.coding[s]}"];'
        )
    for s in range(lift.size):
        by_target: dict[int, list[int]] = {}
        for digit, target in enumerate(lift.images[s]):
            by_target.setdefault(target, []).append(digit)
        for target in sorted(by_target):
            label = ",".join(str(d) for d in by_target[target])
            lines.append(f'  q{s + 1} -> q{target + 1} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
