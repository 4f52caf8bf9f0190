"""Interval-based character sets.

Transitions in our automata are labelled with :class:`CharSet` values
rather than single characters, so a transition over the whole alphabet
(the paper's ``Σ``) costs one edge instead of 256.  A ``CharSet`` is an
immutable, normalized sequence of closed code-point intervals.

The module also provides :func:`minterms`, the partition-refinement
helper used by subset construction and complementation: given a
collection of (possibly overlapping) character sets, it returns the
coarsest partition of their union such that every input set is a union
of partition blocks.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator

__all__ = ["CharSet", "minterms", "MAX_CODEPOINT"]

#: Largest code point we ever represent.  The default alphabet used by
#: the solver is the byte alphabet 0..255, but the representation is
#: agnostic and supports full Unicode.
MAX_CODEPOINT = 0x10FFFF


def _normalize(ranges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sort, validate, and coalesce adjacent/overlapping intervals."""
    items = sorted((lo, hi) for lo, hi in ranges)
    merged: list[tuple[int, int]] = []
    for lo, hi in items:
        if lo > hi:
            raise ValueError(f"empty interval ({lo}, {hi})")
        if lo < 0 or hi > MAX_CODEPOINT:
            raise ValueError(f"interval ({lo}, {hi}) outside code-point range")
        if merged and lo <= merged[-1][1] + 1:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


class CharSet:
    """An immutable set of characters stored as sorted closed intervals.

    Instances are hashable and support the usual set algebra.  Most
    callers construct them through the classmethods:

    >>> digits = CharSet.range("0", "9")
    >>> digits.contains("5")
    True
    >>> (digits | CharSet.of("abc")).cardinality()
    13
    """

    __slots__ = ("ranges", "_hash")

    ranges: tuple[tuple[int, int], ...]

    def __init__(self, ranges: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "ranges", _normalize(ranges))
        object.__setattr__(self, "_hash", hash(self.ranges))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CharSet is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls) -> "CharSet":
        """The empty character set."""
        return _EMPTY

    @classmethod
    def single(cls, char: str | int) -> "CharSet":
        """A set containing exactly one character."""
        cp = char if isinstance(char, int) else ord(char)
        return cls([(cp, cp)])

    @classmethod
    def of(cls, chars: str | Iterable[str | int]) -> "CharSet":
        """A set containing exactly the given characters."""
        cps = [c if isinstance(c, int) else ord(c) for c in chars]
        return cls([(cp, cp) for cp in cps])

    @classmethod
    def range(cls, lo: str | int, hi: str | int) -> "CharSet":
        """The inclusive range ``lo..hi``."""
        lo_cp = lo if isinstance(lo, int) else ord(lo)
        hi_cp = hi if isinstance(hi, int) else ord(hi)
        return cls([(lo_cp, hi_cp)])

    @classmethod
    def full(cls, max_codepoint: int = MAX_CODEPOINT) -> "CharSet":
        """Every character up to ``max_codepoint``."""
        return cls([(0, max_codepoint)])

    # -- queries -------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.ranges

    def contains(self, char: str | int) -> bool:
        cp = char if isinstance(char, int) else ord(char)
        lo = 0
        hi = len(self.ranges) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            r_lo, r_hi = self.ranges[mid]
            if cp < r_lo:
                hi = mid - 1
            elif cp > r_hi:
                lo = mid + 1
            else:
                return True
        return False

    def __contains__(self, char: str | int) -> bool:
        return self.contains(char)

    def cardinality(self) -> int:
        """Number of characters in the set."""
        return sum(hi - lo + 1 for lo, hi in self.ranges)

    def min_char(self) -> int:
        """Smallest code point in the set; raises on the empty set."""
        if not self.ranges:
            raise ValueError("min_char of empty CharSet")
        return self.ranges[0][0]

    def sample(self) -> str:
        """An arbitrary (smallest) member, as a 1-character string."""
        return chr(self.min_char())

    def codepoints(self) -> Iterator[int]:
        """Iterate all code points in ascending order."""
        for lo, hi in self.ranges:
            yield from range(lo, hi + 1)

    def chars(self) -> Iterator[str]:
        """Iterate all members as 1-character strings."""
        return (chr(cp) for cp in self.codepoints())

    # -- algebra -------------------------------------------------------

    def union(self, other: "CharSet") -> "CharSet":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return CharSet(self.ranges + other.ranges)

    def intersect(self, other: "CharSet") -> "CharSet":
        out: list[tuple[int, int]] = []
        i = 0
        j = 0
        a = self.ranges
        b = other.ranges
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return CharSet(out)

    def complement(self, universe: "CharSet") -> "CharSet":
        """Members of ``universe`` that are not in ``self``."""
        return universe.difference(self)

    def difference(self, other: "CharSet") -> "CharSet":
        out: list[tuple[int, int]] = []
        j = 0
        b = other.ranges
        for lo, hi in self.ranges:
            cur = lo
            while j < len(b) and b[j][1] < cur:
                j += 1
            k = j
            while k < len(b) and b[k][0] <= hi:
                cut_lo, cut_hi = b[k]
                if cur < cut_lo:
                    out.append((cur, cut_lo - 1))
                cur = max(cur, cut_hi + 1)
                if cur > hi:
                    break
                k += 1
            if cur <= hi:
                out.append((cur, hi))
        return CharSet(out)

    def overlaps(self, other: "CharSet") -> bool:
        return not self.intersect(other).is_empty()

    def is_subset(self, other: "CharSet") -> bool:
        return self.difference(other).is_empty()

    def __or__(self, other: "CharSet") -> "CharSet":
        return self.union(other)

    def __and__(self, other: "CharSet") -> "CharSet":
        return self.intersect(other)

    def __sub__(self, other: "CharSet") -> "CharSet":
        return self.difference(other)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CharSet) and self.ranges == other.ranges

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Pickle by constructor: the default slot restore would go
        # through the immutable __setattr__.
        return (CharSet, (self.ranges,))

    def __bool__(self) -> bool:
        return bool(self.ranges)

    def __iter__(self) -> Iterator[str]:
        return self.chars()

    def __len__(self) -> int:
        return self.cardinality()

    def __repr__(self) -> str:
        return f"CharSet({self.format()!r})"

    def format(self) -> str:
        """Render as a compact character-class body, e.g. ``a-z0-9_``."""
        parts: list[str] = []
        for lo, hi in self.ranges:
            if lo == hi:
                parts.append(_pretty(lo))
            elif hi == lo + 1:
                parts.append(_pretty(lo) + _pretty(hi))
            else:
                parts.append(f"{_pretty(lo)}-{_pretty(hi)}")
        return "".join(parts)


def _pretty(cp: int) -> str:
    ch = chr(cp)
    if ch in "-[]^\\":
        return "\\" + ch
    if 0x20 <= cp < 0x7F:
        return ch
    return f"\\x{cp:02x}" if cp <= 0xFF else f"\\u{cp:04x}"


_EMPTY = CharSet()


def minterms(sets: Collection[CharSet]) -> list[CharSet]:
    """Partition the union of ``sets`` into disjoint blocks.

    Every input set equals a union of returned blocks, and the blocks
    are pairwise disjoint and non-empty.  This is the standard
    "mintermization" step that lets subset construction treat a
    symbolic alphabet as if it were finite and small.

    The implementation sweeps interval endpoints, which keeps the cost
    at ``O(E log E)`` in the total number of interval endpoints rather
    than exponential in ``len(sets)``.
    """
    boundaries: set[int] = set()
    for cs in sets:
        for lo, hi in cs.ranges:
            boundaries.add(lo)
            boundaries.add(hi + 1)
    cuts = sorted(boundaries)
    blocks: list[CharSet] = []
    for idx in range(len(cuts) - 1):
        lo = cuts[idx]
        hi = cuts[idx + 1] - 1
        piece = CharSet([(lo, hi)])
        if any(piece.overlaps(cs) for cs in sets):
            blocks.append(piece)
    return blocks
