"""Binary words, Parikh vectors, and binary morphisms.

Words over {a, b} are stored one letter per byte (numpy uint8, 0 = a, 1 = b).
The fixed point s is its own image under every power f^j, so a long prefix
is block copies: the blocks f^j(a) and f^j(b) of about 16 sqrt(length)
letters, copied into one buffer of exactly `length` letters in the order of
a short head of s, the blocks built by row gathers from a padded image
table, each under _CHUNK letters. Short prefixes, and morphisms with a
letter that stops growing, are built by rounds: f^(t+1)(a) is f^t(a)
followed by the blocks f^t(c) of the letters of f(a)[1:], and each next
block is the blocks of its image. While f^t(a) holds at most 4 KiB the
rounds run on bytes objects, one b"".join per letter, free of numpy's fixed
cost per call; the phase is capped because large bytes temporaries are
slower and larger than in-place copies. Then the rounds continue in place
in one buffer, one np.concatenate per block, all sized in Python ints (row
gathers instead once the blocks would pass `length` bytes, as in a lift with
many states). The tracemalloc peak at 1e5 letters is 1.69 bytes per letter
for Thue-Morse, 1.56 for Fibonacci and 1.89 for a->ab; b->bbaa (the buffer
and the last two rounds' blocks); at 1e7 letters it is 1.05, 1.09 and 1.11
(the blocks and the gather temporaries, next to the buffer), and 1.01-1.02
at 1e8 letters. Counting is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
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
        u = Word.of(u)
        la, lb = self.lengths()
        nb = int(np.count_nonzero(u.data))
        out = np.empty((len(u) - nb) * la + nb * lb, dtype=np.uint8)
        _row_gather([self.image_a.data, self.image_b.data])(u.data, out)
        return Word._adopt(out)

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


def _row_gather(images: Sequence[np.ndarray]):
    """The kernel apply(arr, out) -> (written, consumed) writing images[c],
    over the letters c of arr, into out; it stops at the first image that
    does not fit whole, so the caller sizes out to bound the work. The images
    are the rows of one padded table, and each chunk of _CHUNK // width
    letters of arr is one row gather from it: straight into an (n, width)
    view of out when all images have one length, else compressed into out by
    the same gather of the padding mask. out's dtype follows the images."""
    sizes = np.array([im.size for im in images], dtype=np.int64)
    keep = np.arange(sizes.max()) < sizes[:, None]
    table = np.zeros(keep.shape, dtype=images[0].dtype)
    table[keep] = np.concatenate(images)
    width, uniform = keep.shape[1], bool(keep.all())
    step = max(1, _CHUNK // width)

    def apply(arr: np.ndarray, out: np.ndarray) -> tuple[int, int]:
        written = consumed = 0
        while consumed < arr.size:
            chunk = arr[consumed : consumed + step]
            n, room = chunk.size, out.size - written
            if n * width > room:
                n = int(np.searchsorted(np.cumsum(sizes[chunk]), room, "right"))
                chunk = chunk[:n]
            # "clip" writes straight into out; "raise" would buffer a copy
            if uniform:
                total = n * width
                rows = out[written : written + total].reshape(n, width)
                np.take(table, chunk, axis=0, out=rows, mode="clip")
            else:
                mask = np.take(keep, chunk, axis=0, mode="clip")
                total = int(np.count_nonzero(mask))
                rows = np.take(table, chunk, axis=0, mode="clip").ravel()
                np.compress(mask.ravel(), rows, out=out[written : written + total])
            written += total
            consumed += n
            if n < step:
                break  # arr is used up, or the next image does not fit
        return written, consumed

    return apply


def _copy_blocks(out: np.ndarray, pos: int, end: int, blocks: list[np.ndarray],
                 sizes: list[int], letters: list[int]) -> int:
    """Copy the blocks of `letters` into out from pos, in order, stopping at
    end (the last block copied is cut short there); return where it stopped.
    Blocks that all fit are one np.concatenate; only a cut is a slice loop."""
    stop = pos + sum(map(sizes.__getitem__, letters))
    if stop <= end:
        np.concatenate([blocks[c] for c in letters], out=out[pos:stop])
        return stop
    for c in letters:
        n = min(sizes[c], end - pos)
        out[pos : pos + n] = blocks[c][:n]
        pos += n
        if pos == end:
            break
    return pos


_BYTE_ROUNDS = 4096  # rounds run on bytes objects while f^t(0) holds at most this many bytes


def _byte_rounds(images: Sequence[np.ndarray], rows: list[list[int]],
                 length: int) -> tuple[list[bytes], int, int, bool, bool]:
    """The first rounds of _expand_rounds on bytes objects, while f^t(0)
    holds at most _BYTE_ROUNDS bytes: each block f^t(c) is the raw bytes of
    its letters (the images' dtype), and a round is one b"".join per
    letter, f^(t+1)(0) cut at `length` letters and the other blocks at the
    letters still to be written, as in the numpy rounds.

    Returns (blocks, lo, total, tiled, gather): blocks[0] holds the first
    `total` letters of the fixed point s and blocks[c] is f^t(c) for c >= 1;
    s[lo:total] is the last tail; tiled says that tail repeated the one
    before it (the rest of s is its powers), and gather that the other
    blocks grew past `length` bytes in all, so the next rounds are row
    gathers."""
    itemsize = images[0].itemsize
    blocks = [im.tobytes() for im in images] + [b""]  # b"" last: every pick is a tuple
    picks = [itemgetter(*row, -1) for row in rows]
    lo, total = 1, len(rows[0])
    cap = length * itemsize
    while total < length and total * itemsize <= _BYTE_ROUNDS:
        word = blocks[0]
        grown = b"".join(picks[0](blocks))[:cap]
        filled = len(grown) // itemsize
        if filled == length:
            return [grown], total, filled, False, False
        if filled - total == total - lo and grown.endswith(memoryview(word)[lo * itemsize :]):
            return [grown], lo, filled, True, False
        cut = (length - filled) * itemsize
        nxt = [b"".join(pick(blocks))[:cut] for pick in picks[1:]]
        blocks[:-1] = [grown, *nxt]
        lo, total = total, filled
        if sum(map(len, nxt)) > length:
            return [grown], lo, total, False, True
    return blocks[:-1], lo, total, False, False


def _expand_rounds(images: Sequence[np.ndarray], length: int) -> np.ndarray:
    """First `length` >= 0 letters of the fixed point of the morphism given
    by `images`, prolongable on letter 0, as a writable array.

    Round t turns f^t(0) into f^(t+1)(0) = f^t(0) followed by the blocks
    f^t(c) of the letters c of images[0][1:]. Every letter other than 0
    keeps its block, and the next one is its image's blocks copied into one
    array, cut at the letters still to be written (no later round reads
    further into a block).

    The first rounds, while f^t(0) holds at most _BYTE_ROUNDS bytes, run on
    bytes objects (_byte_rounds): a round there is one b"".join per letter,
    with none of numpy's fixed cost per call, which is most of the time
    below a few thousand letters. The phase is capped because large bytes
    temporaries cost more than in-place numpy copies: with every round on
    bytes, a->aaab; b->abbb took 1.4 ms instead of 86 us at 2^19 letters,
    and the tracemalloc peak at 1e5 letters was 2.2-4.3 bytes per letter
    instead of 1.5-1.9 (2-core Xeon). Its word, blocks and last tail are
    then copied into one buffer, where round t appends to the buffer's
    f^t(0) (_array_rounds). While the blocks hold at most `length` bytes in
    all, a round is one np.concatenate per block, sized from the images as
    lists and the block sizes as Python ints; only a block cut at `length`
    is a slice loop. Past that (a lift with many states), blocks are dropped
    and each round is one _row_gather of the last round's tail
    x_t = out[lo:total] written straight after it, as x_(t+1) = f(x_t), the
    telescoping s = 0 . x . f(x) . f^2(x) ... of images[0] = 0 . x. The
    buffer holds length + max|image| letters, so a round stops once the
    requested length is reached.

    A tail equal to the last (f(x_t) = x_t) means the rest is x_t^omega,
    tiled by doubling copies of the filled periodic part: linear growth
    stays O(length), and is found on bytes when its first rounds are.
    """
    dtype = images[0].dtype
    rows = [im.tolist() for im in images]
    blocks, lo, total, tiled, gather = _byte_rounds(images, rows, length)
    if total >= length:
        return np.frombuffer(bytearray(blocks[0]), dtype=dtype, count=length)
    out = np.empty(length + max(map(len, rows)), dtype=dtype)
    out[:total] = np.frombuffer(blocks[0], dtype=dtype)
    if not tiled:  # the bytes are freed as the numpy rounds replace their views
        sizes = [len(b) // dtype.itemsize for b in blocks]
        blocks = None if gather else [np.frombuffer(b, dtype=dtype) for b in blocks]
        lo, total = _array_rounds(images, rows, sizes, blocks, out, lo, total, length)
    while total < length:  # s[lo:total] is two periods of the rest: tile them
        n = min(total - lo, length - total)
        out[total : total + n] = out[lo : lo + n]
        total += n
    return out[:length]


def _array_rounds(images: Sequence[np.ndarray], rows: list[list[int]], sizes: list[int],
                  blocks: list[np.ndarray] | None, out: np.ndarray, lo: int, total: int,
                  length: int) -> tuple[int, int]:
    """The rounds of _expand_rounds in out, which holds the first `total`
    letters, s[lo:total] the last tail; blocks holds f^t(c) for c >= 1
    (sizes[c] letters), or is None for row gathers. Returns (lo, total):
    total >= length, or total < length and s[lo:total] two periods of the
    rest of s."""
    tail = rows[0][1:]
    apply = None if blocks is not None else _row_gather(images)
    while total < length:
        if blocks is not None:
            blocks[0], sizes[0] = out[:total], total
            filled = _copy_blocks(out, total, length, blocks, sizes, tail)
        else:
            written, _ = apply(out[lo:total], out[total:])
            filled = total + written
        if filled < length and filled - total == total - lo and np.array_equal(
            out[lo:total], out[total:filled]
        ):
            return lo, filled
        if blocks is not None and filled < length:
            room = length - filled
            grown = [min(sum(map(sizes.__getitem__, row)), room) for row in rows[1:]]
            if sum(grown) * out.itemsize <= length:
                nxt = [np.empty(n, dtype=out.dtype) for n in grown]
                for block, n, row in zip(nxt, grown, rows[1:]):
                    _copy_blocks(block, 0, n, blocks, sizes, row)
                blocks[1:], sizes[1:] = nxt, grown
            else:
                blocks, apply = None, _row_gather(images)
        lo, total = total, filled
    return lo, total


_BLOCK_FROM = 2**19  # shorter prefixes are built by rounds alone


def _stops_growing(rounds: Sequence[Sequence[int]], grown: Sequence[int]) -> bool:
    """Whether some letter stops growing, given the sizes rounds[i][c] =
    |f^i(c)| of rounds 0, ..., t - 1 and grown[c] = |f^t(c)|.

    A letter c stops growing exactly when |f^t(c)| = |f^(t-n)(c)| for an
    alphabet of n letters: n rounds without growth walk every letter of
    f^(t-n)(c) through n + 1 single-letter images, so into a cycle of them."""
    n = len(grown)
    return len(rounds) >= n and any(g == r for g, r in zip(grown, rounds[-n]))


def _block_rounds(images: Sequence[np.ndarray], length: int) -> list[np.ndarray] | None:
    """The sizes |f^i(c)| of every letter c for i = 0, ..., j, j the least
    round at which they all reach 16 sqrt(length) letters; or None when
    blocks do not pay: a short prefix, a letter that stops growing, j <= 1
    (the images are already that long), or blocks of over length / 8
    letters in all, which also keeps the sizes far from overflow."""
    if length < _BLOCK_FROM:
        return None
    n, target = len(images), 16 * math.isqrt(length)
    counts = np.array([np.bincount(im, minlength=n) for im in images], dtype=np.int64)
    rounds = [np.ones(n, dtype=np.int64)]
    while rounds[-1].min() < target:
        grown = counts @ rounds[-1]
        if grown.sum() > length // 8 or _stops_growing(rounds, grown):
            return None
        rounds.append(grown)
    return rounds if len(rounds) > 2 else None


def _block_pieces(images: Sequence[np.ndarray], rounds: list[np.ndarray],
                  length: int) -> Iterator[np.ndarray]:
    """The first `length` letters of the fixed point s, as views of the
    blocks f^j(c) (j = len(rounds) - 1), the last one cut short.

    s is its own image under f^j, so it is the blocks of the letters of its
    head, the first ceil(length / min|f^j(c)|) letters of s, in order. The
    blocks of all letters sit in one array, f^i(0 1 ... n-1), and each
    round is one _row_gather of the last into an array of the next sizes."""
    apply = _row_gather(images)
    blocks = np.arange(len(images), dtype=images[0].dtype)
    for sizes in rounds[1:]:
        grown = np.empty(int(sizes.sum()), dtype=blocks.dtype)
        apply(blocks, grown)
        blocks = grown
    starts = np.cumsum([0] + rounds[-1].tolist()).tolist()
    pos = 0
    for c in _expand_prefix(images, -(-length // int(rounds[-1].min()))).tolist():
        end = min(starts[c + 1], starts[c] + length - pos)
        yield blocks[starts[c] : end]
        pos += end - starts[c]
        if pos == length:
            return


def _prefix_pieces(images: Sequence[np.ndarray], length: int) -> Iterator[np.ndarray]:
    """Arrays that spell the first `length` >= 0 letters of the fixed point
    of the morphism given by `images` (prolongable on letter 0) in order:
    the blocks of _block_pieces when they pay, else the whole prefix."""
    rounds = _block_rounds(images, length)
    if rounds is None:
        return iter([_expand_rounds(images, length)])
    return _block_pieces(images, rounds, length)


def _expand_prefix(images: Sequence[np.ndarray], length: int) -> np.ndarray:
    """First `length` >= 0 letters of the fixed point of the morphism given
    by `images`, prolongable on letter 0: the blocks of _block_pieces copied
    into one buffer of `length` letters when they pay, else _expand_rounds.
    The buffer is allocated before any block is built, so a length too large
    for memory fails at once."""
    rounds = _block_rounds(images, length)
    if rounds is None:
        return _expand_rounds(images, length)
    out = np.empty(length, dtype=images[0].dtype)
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
