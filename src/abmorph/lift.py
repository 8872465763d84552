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

from .errors import DegenerateTraceError, MalformedLiftError, OutOfRangeError
from .matrices import Rank1Form
from .words import _CHUNK, BinaryMorphism, _prefix_pieces

__all__ = [
    "UniformLift",
    "build_lift",
    "lift_fixed_prefix",
    "lift_verify",
    "is_bijective",
    "dfao_eval",
    "dfao_table",
    "dfao_dot",
]


@dataclass(frozen=True)
class UniformLift:
    """A k-uniform morphism over the position-pair alphabet plus its coding.

    State ids enumerate the pairs (a, 0..|f(a)|-1) first, then
    (b, 0..|f(b)|-1). images[s] lists the k successor states of state s;
    coding[s] is the fixed-point letter at positions annotated by s. State 0
    is the initial state (a, 0). A lift built by hand is checked: k >= 2,
    one k-wide row and one letter 'a' or 'b' per state, every state in
    [0, size), and images[0][0] = 0."""

    image_length_a: int
    image_length_b: int
    k: int
    images: tuple[tuple[int, ...], ...]
    coding: tuple[str, ...]

    def __post_init__(self):
        if self.k < 2:  # dfao_eval's digits and the expansions would never end
            raise DegenerateTraceError(f"lift needs trace >= 2, got {self.k}")
        # the expansions gather rows with mode="clip", so a state out of
        # range would read the last row silently
        size, images = self.size, self.images
        if len(images) != size or len(self.coding) != size:
            raise MalformedLiftError(
                f"lift of {size} states has {len(images)} rows and {len(self.coding)} letters")
        if set(map(len, images)) != {self.k}:
            raise MalformedLiftError(f"every row must be {self.k} states wide")
        if images[0][0] != 0:
            raise MalformedLiftError("lift must be prolongable on state 0")
        if not set().union(*images) <= set(range(size)):
            raise MalformedLiftError(f"states must lie in [0, {size})")
        if not set(self.coding) <= {"a", "b"}:
            raise MalformedLiftError("coding letters must be 'a' or 'b'")

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
    return UniformLift(la, lb, k, tuple(images), tuple(image_a + image_b))


def _expand_states(table: np.ndarray, length: int) -> np.ndarray:
    """First `length` >= 0 states of the fixed point x of the k-uniform
    table (k = table.shape[1] >= 2, state 0 prolongable), a writable int32
    array: x[ik : (i+1)k] = table[x_i]. Once the rows of states below i are
    written, states i, ..., ik - 1 are known, so each step gathers the rows
    of min(_CHUNK // k, i (k-1)) of them into a buffer of length + k states,
    until the first ceil(length / k) states have their rows."""
    k = table.shape[1]
    out = np.empty(length + k, dtype=np.int32)
    out[:k] = table[0]
    i, rows = 1, -(-length // k)
    while i < rows:
        m = min(max(1, _CHUNK // k), i * (k - 1), rows - i)
        # "clip" writes straight into out; "raise" would buffer a copy
        np.take(table, out[i : i + m], axis=0, out=out[i * k : (i + m) * k].reshape(m, k),
                mode="clip")
        i += m
    return out[:length]


def _power_rows(lift: UniformLift, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(states, rows): the first ceil(length / k^j) states of the lifted
    fixed point, and the letter codes rows = coding[F^j(s)] of the lift's
    j-th power, for the largest j >= 1 with size * k^j <= _CHUNK (j = 1 when
    there is none).

    The lifted fixed point x is its own image, so x = F^j(x): whole rows
    gathered in the order of the states give its first `length` letters,
    k^j per state. coding[F^(i+1)(s)] is coding[F^i] read at the states of
    F(s), so each power is one row gather of the previous one by the table
    of F."""
    table = np.array(lift.images, dtype=np.int32)
    rows = (np.array(lift.coding) == "b").view(np.uint8)[table]
    while lift.size * rows.shape[1] * lift.k <= _CHUNK:
        rows = rows[table].reshape(lift.size, -1)
    return _expand_states(table, -(-length // rows.shape[1])), rows


def lift_fixed_prefix(lift: UniformLift, length: int) -> np.ndarray:
    """First `length` states of the lifted fixed point (int32 state ids),
    by the k-wide row gathers of _expand_states: 4 bytes per state for the
    buffer, and a gather's intp indices. The tracemalloc peak at 4e5 states
    is 4.44 bytes per state for the 3-uniform lift of a->ab; b->bbaa, 4.66
    for Thue-Morse's 2-uniform one and 4.10 for the 14-uniform one of
    a->a^7 b^7; b->(ba)^7; at 2e6 states, 4.02-4.13."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return _expand_states(np.array(lift.images, dtype=np.int32), length)


def lift_verify(f: BinaryMorphism, lift: UniformLift, length: int) -> bool:
    """Does the coded lifted fixed point reproduce f^omega(a) on `length` letters?

    The letters come from f alone, independently of the lift, as the pieces
    fixed_point_prefix copies into its buffer: the blocks f^j(a) and f^j(b)
    in the order of a short head, when blocks pay. The coded rows of F^j
    (see _power_rows) give k^j letters per state, each chunk of about _CHUNK
    letters one row gather into a reused buffer. The two streams are
    compared as they are produced, so no prefix is held: the peak is the
    blocks, the F^j rows and the buffer, 0.06 bytes per letter at 1e7
    letters of Thue-Morse and 0.12 of a->ab; b->bbaa (tracemalloc)."""
    f.require_prolongable()
    if length < 0:
        raise ValueError("length must be >= 0")
    letters = _prefix_pieces([f.image_a.data, f.image_b.data], length)
    states, rows = _power_rows(lift, length)
    width = rows.shape[1]
    step = max(1, _CHUNK // width)
    buf = np.empty((min(states.size, step), width), dtype=np.uint8)

    def coded():
        for lo in range(0, states.size, step):
            chunk = states[lo : lo + step]
            yield np.take(rows, chunk, axis=0, out=buf[: chunk.size], mode="clip").reshape(-1)

    return _spells_prefix(letters, coded())


def _spells_prefix(pieces, stream) -> bool:
    """Do the arrays of `pieces`, read in order, spell a prefix of what the
    arrays of `stream` spell, the stream being the longer? Both are read
    once, a chunk at a time; the stream may reuse its buffer, as each of its
    arrays is used up before the next is drawn."""
    have = np.empty(0, dtype=np.uint8)
    for piece in pieces:
        while piece.size:
            if not have.size:
                have = next(stream)
            n = min(have.size, piece.size)
            if not np.array_equal(have[:n], piece[:n]):
                return False
            have, piece = have[n:], piece[n:]
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
