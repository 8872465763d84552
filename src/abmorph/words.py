"""Binary words, Parikh vectors, and binary morphisms.

Words over {a, b} are stored one letter per byte (numpy uint8, 0 = a, 1 = b).
f(u) is one bytes.replace per letter (_image); every caller maps short
words. The fixed point s is its own image under every power f^j, so a long
prefix is block copies: the blocks f^j(a) and f^j(b) of about
16 sqrt(length) letters (sized by _ladder), built by row gathers from a
padded image table, each under _CHUNK letters, and copied into one buffer
of exactly `length` letters in the order of a short head of s. Short
prefixes, and morphisms with f(b) = b (b's block stays one letter), are
built by rounds in one bytearray: f^(t+1)(a) is f^t(a) followed by the
blocks f^t(c) of the letters of f(a)[1:], one slice assignment per letter,
where a's block is the buffer itself and b's next block is one b"".join of
the blocks of f(b); s = a b^omega is written directly. The tracemalloc
peak at 1e5 letters is 1.69 bytes per letter for Thue-Morse, 1.55 for
Fibonacci and 1.88 for a->ab; b->bbaa (the buffer and b's last two
blocks); at 1e7 letters it is 1.05, 1.09 and 1.11 (the blocks and the
gather temporaries, next to the buffer), and 1.01-1.02 at 1e8 letters.
Counting is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadLetterError,
    ErasingImageError,
    MorphismSyntaxError,
    NotProlongableError,
)

__all__ = [
    "Word",
    "ParikhVector",
    "BinaryMorphism",
    "ConjugationResult",
    "parikh",
    "parse_morphism",
    "compose",
    "square",
    "fixed_point_prefix",
    "power_lengths",
    "primitive_root",
    "conjugate_normalize",
]

A = 0

_LETTERS = bytes.maketrans(b"\x00\x01", b"ab")  # letter code -> ascii letter


def _image(u: bytes, image_a: bytes, image_b: bytes) -> bytes:
    """f(u), for u and the images f(a), f(b) given by letter codes: u spelled
    in ascii letters, which no letter code equals, then one bytes.replace
    per letter."""
    return u.translate(_LETTERS).replace(b"a", image_a).replace(b"b", image_b)


def _codes_from_str(s: str) -> np.ndarray:
    raw = np.frombuffer(s.encode("ascii", errors="strict"), dtype=np.uint8)
    codes = raw - ord("a")
    if codes.size and codes.max(initial=0) > 1:
        bad = chr(int(raw[int(np.argmax(codes > 1))]))
        raise BadLetterError(f"letter {bad!r} is not in the alphabet {{a, b}}")
    return codes


class Word:
    """An immutable finite word over {a, b}."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray | Sequence[int]):
        arr = np.asarray(data)
        if arr.ndim != 1:
            raise ValueError("word data must be one-dimensional")
        if arr.size and arr.dtype.kind not in "iu":
            raise BadLetterError(f"letter codes must be integers, not {arr.dtype}")
        if arr.size and (arr.max() > 1 or (arr.dtype.kind == "i" and arr.min() < 0)):
            raise BadLetterError("letter codes must be 0 (a) or 1 (b)")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Word":
        """Wrap a fresh uint8 array of letter codes without copying or
        checking it; the caller hands the array over."""
        arr.setflags(write=False)
        word = cls.__new__(cls)
        word._data = arr
        return word

    @classmethod
    def from_str(cls, s: str) -> "Word":
        try:
            return cls._adopt(_codes_from_str(s))
        except UnicodeEncodeError as exc:
            raise BadLetterError(f"non-ascii symbol in word: {s!r}") from exc

    @classmethod
    def of(cls, u: "Word | str") -> "Word":
        """u itself when it is a Word, spelled from its letters when a str."""
        if isinstance(u, Word):
            return u
        if isinstance(u, str):
            return cls.from_str(u)
        raise TypeError(f"expected a Word or a str, not {type(u).__name__}")

    @classmethod
    def empty(cls) -> "Word":
        return cls(np.empty(0, dtype=np.uint8))

    @property
    def data(self) -> np.ndarray:
        """Read-only uint8 view, 0 = a, 1 = b."""
        return self._data

    def __len__(self) -> int:
        return int(self._data.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self._data[i])
        return "ab"[int(self._data[i])]

    def __iter__(self) -> Iterator[str]:
        for c in self._data:
            yield "ab"[int(c)]

    def __add__(self, other: "Word") -> "Word":
        return Word(np.concatenate([self._data, other._data]))

    def __eq__(self, other) -> bool:
        if isinstance(other, str):
            return len(other) == self._data.size and str(self) == other
        if not isinstance(other, Word):
            return NotImplemented
        return self._data.size == other._data.size and bool(
            np.array_equal(self._data, other._data)
        )

    def __hash__(self) -> int:
        return hash(str(self))  # equal to the str it equals, so hashed alike

    def __str__(self) -> str:
        return self._data.tobytes().translate(_LETTERS).decode("ascii")

    def __repr__(self) -> str:
        s = str(self)
        if len(s) > 40:
            s = s[:37] + "..."
        return f"Word({s!r})"


@dataclass(frozen=True)
class ParikhVector:
    """Letter counts (|u|_a, |u|_b) of a binary word."""

    count_a: int
    count_b: int

    def __add__(self, other: "ParikhVector") -> "ParikhVector":
        return ParikhVector(self.count_a + other.count_a, self.count_b + other.count_b)

    def __sub__(self, other: "ParikhVector") -> "ParikhVector":
        return ParikhVector(self.count_a - other.count_a, self.count_b - other.count_b)

    @property
    def length(self) -> int:
        return self.count_a + self.count_b

    def as_tuple(self) -> tuple[int, int]:
        return (self.count_a, self.count_b)


def parikh(u: Word | str) -> ParikhVector:
    """Parikh vector of u; exact for words of any length."""
    u = Word.of(u)
    nb = int(np.count_nonzero(u.data))
    return ParikhVector(len(u) - nb, nb)


@dataclass(frozen=True, repr=False)
class BinaryMorphism:
    """A nonerasing morphism over {a, b}, given by its two images (each a
    Word or a str, stored as a Word)."""

    image_a: Word
    image_b: Word

    def __post_init__(self):
        if len(self.image_a) == 0 or len(self.image_b) == 0:
            raise ErasingImageError("images must be nonempty words")
        object.__setattr__(self, "image_a", Word.of(self.image_a))
        object.__setattr__(self, "image_b", Word.of(self.image_b))

    def image(self, letter: str) -> Word:
        if letter == "a":
            return self.image_a
        if letter == "b":
            return self.image_b
        raise BadLetterError(f"letter {letter!r} is not in the alphabet {{a, b}}")

    @property
    def is_prolongable(self) -> bool:
        """True when f(a) starts with a and |f(a)| >= 2, so f^t(a) nest properly."""
        return len(self.image_a) >= 2 and int(self.image_a.data[0]) == A

    def require_prolongable(self) -> None:
        if not self.is_prolongable:
            raise NotProlongableError(
                f"morphism {self.to_text()!r} is not prolongable on a"
            )

    def apply(self, u: Word | str) -> Word:
        image = _image(Word.of(u).data.tobytes(), self.image_a.data.tobytes(),
                       self.image_b.data.tobytes())
        return Word._adopt(np.frombuffer(image, dtype=np.uint8))

    def __call__(self, u: Word | str) -> Word:
        return self.apply(u)

    def lengths(self) -> tuple[int, int]:
        return (len(self.image_a), len(self.image_b))

    def to_text(self) -> str:
        return f"a->{self.image_a}; b->{self.image_b}"

    def __repr__(self) -> str:
        return f"BinaryMorphism({self.to_text()!r})"


def compose(f: BinaryMorphism, g: BinaryMorphism) -> BinaryMorphism:
    """The morphism u -> f(g(u))."""
    return BinaryMorphism(f.apply(g.image_a), f.apply(g.image_b))


def square(f: BinaryMorphism) -> BinaryMorphism:
    return compose(f, f)


def parse_morphism(text: str) -> BinaryMorphism:
    """Parse 'a->WORD; b->WORD' (whitespace-insensitive) or '{"a": ..., "b": ...}'."""
    stripped = text.strip()
    if not stripped:
        raise MorphismSyntaxError("empty morphism text")
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MorphismSyntaxError(f"bad JSON morphism: {exc}") from exc
        if not isinstance(obj, dict) or set(obj) != {"a", "b"}:
            raise MorphismSyntaxError('JSON morphism must have exactly keys "a" and "b"')
        if not all(isinstance(v, str) for v in obj.values()):
            raise MorphismSyntaxError("JSON morphism images must be strings")
        return BinaryMorphism(obj["a"], obj["b"])

    compact = "".join(stripped.split())
    if compact.endswith(";"):
        compact = compact[:-1]
    parts = compact.split(";")
    if len(parts) != 2:
        raise MorphismSyntaxError(f"expected 'a->WORD; b->WORD', got {text!r}")
    images = {}
    for part in parts:
        head, arrow, body = part.partition("->")
        if arrow != "->" or head not in ("a", "b") or head in images:
            raise MorphismSyntaxError(f"expected 'a->WORD; b->WORD', got {text!r}")
        images[head] = body
    if list(images) != ["a", "b"]:
        raise MorphismSyntaxError("rules must appear in the order a->...; b->...")
    return BinaryMorphism(images["a"], images["b"])


_CHUNK = 2**16  # padded output letters per row gather: bounds the temporaries


def _joined(blocks: tuple, sizes: tuple[int, int], letters: bytes, room: int) -> bytes:
    """The blocks of `letters` joined, cut at `room` letters."""
    pieces = list(map(blocks.__getitem__, letters))
    over = sum(map(sizes.__getitem__, letters)) - room
    while over > 0:
        last = pieces.pop()
        if len(last) > over:
            pieces.append(memoryview(last)[: len(last) - over])
        over -= len(last)
    return b"".join(pieces)


def _expand_rounds(images: Sequence[np.ndarray], length: int) -> np.ndarray:
    """First `length` >= 0 letters of the fixed point of the binary
    morphism given by `images`, prolongable on letter 0, as a writable
    uint8 array.

    f(0) = 0 1^j with f(1) = 1, the only images whose rounds grow linearly,
    gives 0 1^omega, written directly. Otherwise round t turns f^t(0) into
    f^(t+1)(0) = f^t(0) followed by the blocks f^t(c) of the letters c of
    images[0][1:], one slice assignment per letter into one bytearray of
    `length` letters (|f(0)| if that is more), until `length` letters are
    written. The block of 0 is a memoryview of that buffer; the block of 1
    is a bytes object, and the next one is one b"".join of the blocks of
    images[1], cut at the letters still to be written (no later round reads
    further into it).
    """
    first, image = (im.tobytes() for im in images)
    if first.count(0) == 1 and image == b"\1":
        out = np.ones(length, dtype=np.uint8)
        out[:1] = 0
        return out
    out = bytearray(max(length, len(first)))
    out[: len(first)] = first
    word = memoryview(out)
    tail, block, total = first[1:], image, len(first)
    while total < length:
        blocks, sizes = (word[:total], block), (total, len(block))
        for c in tail:
            end = total + sizes[c]
            if end >= length:
                word[total:length] = memoryview(blocks[c])[: length - total]
                return np.frombuffer(out, dtype=np.uint8, count=length)
            word[total:end] = blocks[c]
            total = end
        block = _joined(blocks, sizes, image, length - total)
    return np.frombuffer(out, dtype=np.uint8, count=length)


_BLOCK_FROM = 2**19  # shorter prefixes are built by rounds alone


def _ladder(images: Sequence[np.ndarray], target: int,
            cap: int) -> list[tuple[int, int]] | None:
    """The sizes (|f^i(a)|, |f^i(b)|) for i = 0, ..., t, t the least round
    at which both reach `target` letters, in Python ints; or None when their
    sum passes `cap` first, or when f(b) = b while a round is still needed:
    for f prolongable on a, a grows every round, and b stops growing
    exactly when f(b) = b."""
    if target > 1 and images[1].tobytes() == b"\1":
        return None
    counts = [(w.count(0), w.count(1)) for w in (im.tobytes() for im in images)]
    rounds = [(1, 1)]
    while min(rounds[-1]) < target:
        la, lb = rounds[-1]
        grown = tuple(na * la + nb * lb for na, nb in counts)
        if sum(grown) > cap:
            return None
        rounds.append(grown)
    return rounds


def _block_rounds(images: Sequence[np.ndarray], length: int) -> list[tuple[int, int]] | None:
    """The _ladder of rounds 0, ..., j up to 16 sqrt(length) letters; or
    None when blocks do not pay: a short prefix, f(b) = b (b's block stays
    one letter), j <= 1 (the images are already that long), or blocks of
    over length / 8 letters in all."""
    if length < _BLOCK_FROM:
        return None
    rounds = _ladder(images, 16 * math.isqrt(length), length // 8)
    return rounds if rounds is not None and len(rounds) > 2 else None


def _block_pieces(images: Sequence[np.ndarray], rounds: list[tuple[int, int]],
                  length: int) -> Iterator[np.ndarray]:
    """The first `length` letters of the fixed point s, as views of the
    blocks f^j(a) and f^j(b) (j = len(rounds) - 1), the last one cut short.

    s is its own image under f^j, so it is the blocks of the letters of its
    head, the first ceil(length / min|f^j(c)|) letters of s, in order. Both
    blocks sit in one array, f^i(ab); a round gathers its letters, _CHUNK //
    width at a time, as rows of the images padded to width letters, into an
    array of the next sizes: straight into an (n, width) view when the
    images have one length, else compressed by the same gather of the mask."""
    sizes = np.array([im.size for im in images])
    keep = np.arange(sizes.max()) < sizes[:, None]
    table = np.zeros(keep.shape, dtype=np.uint8)
    table[keep] = np.concatenate(images)
    width, uniform = keep.shape[1], bool(keep.all())
    step = max(1, _CHUNK // width)
    blocks = np.arange(2, dtype=np.uint8)
    for la, lb in rounds[1:]:
        grown, pos = np.empty(la + lb, dtype=np.uint8), 0
        for lo in range(0, blocks.size, step):
            chunk = blocks[lo : lo + step]
            # "clip" writes straight into grown; "raise" would buffer a copy
            if uniform:
                end = pos + chunk.size * width
                np.take(table, chunk, axis=0, out=grown[pos:end].reshape(-1, width), mode="clip")
            else:
                mask = np.take(keep, chunk, axis=0, mode="clip").ravel()
                end = pos + int(np.count_nonzero(mask))
                rows = np.take(table, chunk, axis=0, mode="clip").ravel()
                np.compress(mask, rows, out=grown[pos:end])
            pos = end
        blocks = grown
    la, lb = rounds[-1]
    pieces, pos = (blocks[:la], blocks[la:]), 0
    for c in _expand_rounds(images, -(-length // min(la, lb))).tolist():
        piece = pieces[c][: length - pos]
        yield piece
        pos += piece.size
        if pos == length:
            return


def _prefix_pieces(images: Sequence[np.ndarray], length: int) -> Iterator[np.ndarray]:
    """Arrays that spell the first `length` >= 0 letters of the fixed point
    of the binary morphism given by `images` (prolongable on letter 0) in order:
    the blocks of _block_pieces when they pay, else the whole prefix."""
    rounds = _block_rounds(images, length)
    if rounds is None:
        return iter([_expand_rounds(images, length)])
    return _block_pieces(images, rounds, length)


def _expand_prefix(images: Sequence[np.ndarray], length: int) -> np.ndarray:
    """First `length` >= 0 letters of the fixed point of the binary morphism
    given by `images`, prolongable on letter 0: the blocks of _block_pieces copied
    into one buffer of `length` letters when they pay, else _expand_rounds.
    The buffer is allocated before any block is built, so a length too large
    for memory fails at once."""
    rounds = _block_rounds(images, length)
    if rounds is None:
        return _expand_rounds(images, length)
    out = np.empty(length, dtype=np.uint8)
    pos = 0
    for piece in _block_pieces(images, rounds, length):
        out[pos : pos + piece.size] = piece
        pos += piece.size
    return out


def fixed_point_prefix(f: BinaryMorphism, length: int) -> Word:
    """pref_length(f^omega(a)) for f prolongable on a."""
    f.require_prolongable()
    if length < 0:
        raise ValueError("length must be >= 0")
    return Word._adopt(_expand_prefix([f.image_a.data, f.image_b.data], length))


def power_lengths(f: BinaryMorphism, t: int) -> tuple[int, int]:
    """(|f^t(a)|, |f^t(b)|) via exact integer matrix powers; t = 0 gives (1, 1)."""
    from .matrices import matrix_of  # matrices imports this module

    return matrix_of(f).pow(t).column_sums()


def primitive_root(u: Word | str) -> Word:
    """Shortest w with u = w^k: u[:i] for the least i >= 1 at which u occurs
    in uu. u equals its rotation by i exactly when u is a power of a word of
    gcd(i, |u|) letters, so that least i divides |u| (i = |u| when u is
    primitive)."""
    u = Word.of(u)
    if len(u) == 0:
        return u
    s = u.data.tobytes()
    return u[: (s + s).find(s, 1)]


@dataclass(frozen=True)
class ConjugationResult:
    """Outcome of shifting a morphism until its images start with distinct letters.

    kind is one of "normalized", "power_of_common_word", "swapped_square".
    For "normalized", shift_word . g(w) = f(w) . shift_word for all w (power 1).
    For "swapped_square" the same identity holds against f^2 (power 2) and the
    returned morphism is the square of the shifted one, so its images start
    with a and b again. For "power_of_common_word" no normalization exists:
    both images are powers of one word and the fixed point is periodic.
    """

    kind: str
    morphism: BinaryMorphism
    shift_word: Word
    power: int


def conjugate_normalize(f: BinaryMorphism) -> ConjugationResult:
    """Cyclically shift f until image_a starts with a and image_b with b."""
    ia, ib = f.image_a, f.image_b
    if primitive_root(ia) == primitive_root(ib):
        return ConjugationResult("power_of_common_word", f, Word.empty(), 1)

    # Shifting s letters rotates each image left by s, so the shift is the
    # first s letters common to ia^omega and ib^omega.
    a, b = str(ia), str(ib)
    for s in range(math.lcm(len(a), len(b)) + 1):
        if a[s % len(a)] != b[s % len(b)]:
            break
    else:
        raise AssertionError("shift loop exceeded the lcm bound on distinct images")

    i, j = s % len(a), s % len(b)
    g = BinaryMorphism(a[i:] + a[:i], b[j:] + b[:j])
    shift = Word.from_str((a * (s // len(a) + 1))[:s])
    if a[i] == "a":
        return ConjugationResult("normalized", g, shift, 1)
    # Images start b, a: squaring restores the a, b orientation, and the
    # shift against f^2 is f(shift) . shift.
    return ConjugationResult("swapped_square", square(g), f.apply(shift) + shift, 2)
