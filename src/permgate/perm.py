"""Permutations on basis indices and their matrix realization.

An n-qubit gate that sends every computational basis state to a basis state
is fully described by a permutation of the 2**n basis indices, so the whole
package works on plain permutations of {0, ..., M-1}.  Dimension M is
arbitrary (M = 2**n only in gate contexts).

Text form is the classical one-line notation "(k,l,...,n)" with 1-based
entries: the entry k at 1-based position i means input index k-1 is sent to
output index i-1.  Internally ``images[j]`` is the 0-based output index for
input index j, so parsing "(2,1,3,4)" gives images (1, 0, 2, 3).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import itertools
import sys

from .errors import (_MAX_DIGITS, DimensionError, NotationError, _is_digits,
                     check_cap)

# 12! is about 4.8e8; anything above that is refused without an override.
ENUMERATION_CAP = 12


class Permutation:
    """An immutable bijection on {0, ..., size-1}.

    Composition uses the "apply rightmost first" convention:
    ``(p * q)(x) == p(q(x))``.
    """

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if not imgs:
            raise DimensionError("permutation dimension must be at least 1")
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a bijection on 0..{len(imgs) - 1}: {list(imgs)}")
        self._images = imgs

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        if size < 1:
            raise DimensionError(f"invalid dimension {size}; must be >= 1")
        return cls(range(size))

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        """Parse one-line notation such as "(2,1,3,4)".

        Whitespace around entries is tolerated.  Raises NotationError naming
        the offending token on duplicates, out-of-range entries, or syntax
        errors.  A notation of bare ASCII digits between commas is checked
        in bulk; the per-token loop runs only for one that fails that check,
        to read entries with whitespace around them or to name the first bad
        token.
        """
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise NotationError(f"expected parenthesized list, got {text!r}")
        tokens = s[1:-1].split(",")
        size = len(tokens)
        # _is_digits of every token at once, then entries that are 1..size
        if (s.isascii() and "".join(tokens).isdigit() and "" not in tokens
                and (len(s) <= _MAX_DIGITS or max(map(len, tokens)) <= _MAX_DIGITS)):
            entries = list(map(int, tokens))
            if sorted(entries) == list(range(1, size + 1)):
                images = [0] * size
                for pos, entry in enumerate(entries):
                    images[entry - 1] = pos
                perm = object.__new__(cls)  # a bijection: no second check
                perm._images = tuple(images)
                return perm
        tokens = [t.strip() for t in tokens]
        if tokens == [""]:
            raise NotationError("empty one-line notation '()'")
        images = [-1] * size
        for pos, tok in enumerate(tokens):
            if not _is_digits(tok):
                raise NotationError(f"expected positive integer, got {tok!r}")
            entry = int(tok)
            if not 1 <= entry <= size:
                raise NotationError(f"entry {tok!r} out of range 1..{size}")
            if images[entry - 1] != -1:
                raise NotationError(f"duplicate entry {tok!r}")
            # entry k at 1-based position i: input k-1 goes to output i-1
            images[entry - 1] = pos
        return cls(images)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def size(self) -> int:
        return len(self._images)

    def one_line(self) -> str:
        """Render as 1-based one-line notation, no spaces: position i holds
        1 + the input sent to output i."""
        entries = [0] * len(self._images)
        for j, img in enumerate(self._images, start=1):
            entries[img] = j
        return "(" + ",".join(map(str, entries)) + ")"

    def __call__(self, index: int) -> int:
        return self._images[index]

    def __len__(self) -> int:
        return len(self._images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Compose: (p * q)(x) = p(q(x)), i.e. q is applied first."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.size != other.size:
            raise DimensionError(
                f"dimension mismatch: {self.size} vs {other.size}"
            )
        return Permutation(self._images[j] for j in other._images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._images)
        for j, img in enumerate(self._images):
            inv[img] = j
        return Permutation(inv)

    def is_identity(self) -> bool:
        return self._images == tuple(range(len(self._images)))

    def is_involution(self) -> bool:
        """True iff p composed with itself is the identity (p == p^-1)."""
        imgs = self._images
        return all(imgs[img] == j for j, img in enumerate(imgs))

    def matrix(self) -> "numpy.ndarray":
        """0/1 permutation matrix with entry[i][j] = 1 iff images[j] = i.

        The result is orthogonal: m @ m.T is the identity, and m is
        symmetric exactly when the permutation is an involution.
        """
        import numpy as np  # only matrices need numpy

        m = np.zeros((self.size, self.size), dtype=np.uint8)
        for j, img in enumerate(self._images):
            m[img, j] = 1
        return m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)})"

    def __str__(self) -> str:
        return self.one_line()


def _product(perms: Iterable[Permutation], size: int) -> Permutation:
    """Leftmost-first product of permutations on `size` points: the last
    one is applied last, and no permutations give the identity."""
    images = range(size)
    for p in perms:
        step = p._images
        images = [step[j] for j in images]
    return Permutation(images)


def check_enumeration_cap(size: int, force: bool = False) -> None:
    """Refuse size > ENUMERATION_CAP (12! and beyond is past desk scale)
    unless force is set, and size > sys.maxsize even then."""
    if size < 1:
        raise DimensionError(f"invalid dimension {size}; must be >= 1")
    check_cap(size > ENUMERATION_CAP, force, f"enumeration of S_{size}",
              f"{ENUMERATION_CAP} ({ENUMERATION_CAP}! permutations)")
    if size > sys.maxsize:  # no str or list can hold a line that long
        raise DimensionError(f"S_{size} has more than sys.maxsize points")


def enumerate_permutations(size: int, force: bool = False) -> Iterator[Permutation]:
    """Yield all size! permutations in lexicographic order of their images."""
    check_enumeration_cap(size, force)
    for images in itertools.permutations(range(size)):
        yield Permutation(images)


def involutions(size: int, force: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield the 0-based images of the a(size) involutions of S_size in
    lexicographic order, without walking S_size.

    Depth-first search: the smallest unassigned point is either fixed or
    swapped with a larger unassigned point, tried in ascending order.  That
    point is the first position the branches differ in, so the images come
    out sorted.  The search keeps its own stack, so any forced size works.
    """
    check_enumeration_cap(size, force)
    images = [-1] * size
    chosen = []  # the points that picked a partner, in order
    point = partner = 0  # point tries partner next (itself: a fixed point)
    while True:
        while point < size:
            while partner < size and images[partner] != -1:
                partner += 1
            if partner == size:
                break
            images[point] = partner
            images[partner] = point
            chosen.append(point)
            while point < size and images[point] != -1:
                point += 1
            partner = point
        else:
            yield tuple(images)
        if not chosen:
            return
        point = chosen.pop()
        partner = images[point]
        images[point] = images[partner] = -1
        partner += 1
