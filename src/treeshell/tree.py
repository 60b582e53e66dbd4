"""Index algebra for the N-ary tree and its identification with dyadic cubes.

A node of the tree is a finite word of child labels in ``{1..N}`` with
``N = 2**d``.  The empty word is the root.  Each node owns one dyadic cube
of the unit cube ``[0,1)**d``: the root owns the unit cube, and the N
children of a node tile its cube with the half-side sub-cubes.

This module is the one home of node indexing.  Its conventions (the
labelling of sub-cubes is otherwise free):

- bit a of ``label - 1`` is the half-offset along axis a, so for ``d=2``
  label 1 is the lower-left quarter, label 2 the right half of axis 0,
  label 3 the upper half of axis 1, label 4 the upper-right quarter
  (``TreeIndex.cube``, ``point_path``, ``label_axes``);
- a node's packed code is its rank within its generation (``TreeIndex``);
- generation-major order is a heap layout: node j sits at index
  ``generation_start(N, |j|) + code(j)``, the parent of index i >= 1 is
  ``(i - 1) // N`` and its children are ``N i + 1 .. N i + N``;
- cubes are half-open, ``[a, a+s)`` in every axis, which makes the
  point-to-path map total on ``[0,1)**d``;
- the labelling is self-similar: the homothety sending the unit cube onto
  the cube of ``j`` sends the cube of ``k`` onto the cube of ``jk``.

Everything in this module is pure and stateless; instances are immutable
and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

__all__ = ["TreeIndex", "DyadicCube", "path_of_point", "point_path",
           "generation_start", "label_axes"]


@dataclass(frozen=True, slots=True)
class TreeIndex:
    """A node of the N-ary tree, stored as a packed label sequence.

    The packed form keeps ``d = log2(N)`` bits per label (label minus one),
    most significant label first, so the packed integer of a generation-n
    node is also its rank in ``0..N**n - 1`` within the generation.  This
    lets generation-level enumerations run as plain counter loops.
    """

    arity: int
    generation: int
    code: int

    def __post_init__(self):
        n = self.arity
        if n < 2 or n & (n - 1):
            raise ValueError(f"arity must be a power of two >= 2, got {n}")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")
        if not 0 <= self.code < n**self.generation:
            raise ValueError("packed code out of range for generation")

    # -- constructors -----------------------------------------------------

    @classmethod
    def root(cls, arity: int) -> "TreeIndex":
        return cls(arity, 0, 0)

    @classmethod
    def from_labels(cls, labels: Sequence[int], arity: int) -> "TreeIndex":
        code = 0
        for lab in labels:
            if not 1 <= lab <= arity:
                raise ValueError(f"label {lab} outside 1..{arity}")
            code = code * arity + (lab - 1)
        return cls(arity, len(labels), code)

    # -- basic structure ---------------------------------------------------

    @property
    def labels(self) -> tuple[int, ...]:
        out = []
        c = self.code
        for _ in range(self.generation):
            out.append(c % self.arity + 1)
            c //= self.arity
        return tuple(reversed(out))

    @property
    def is_root(self) -> bool:
        return self.generation == 0

    def parent(self) -> "TreeIndex":
        """The father node; the root has no father inside the tree."""
        if self.is_root:
            raise ValueError("the root has no parent")
        return TreeIndex(self.arity, self.generation - 1, self.code // self.arity)

    def child(self, label: int) -> "TreeIndex":
        if not 1 <= label <= self.arity:
            raise ValueError(f"label {label} outside 1..{self.arity}")
        return TreeIndex(self.arity, self.generation + 1,
                         self.code * self.arity + (label - 1))

    def offspring(self) -> list["TreeIndex"]:
        """The N children, in label order."""
        return [self.child(k) for k in range(1, self.arity + 1)]

    def append(self, other: "TreeIndex") -> "TreeIndex":
        """Concatenation of label words (the node ``jk``)."""
        if other.arity != self.arity:
            raise ValueError("mismatched arities")
        return TreeIndex(self.arity, self.generation + other.generation,
                         self.code * self.arity**other.generation + other.code)

    def is_prefix_of(self, other: "TreeIndex") -> bool:
        """The tree partial order: ``j <= k`` iff ``k`` extends ``j``."""
        if other.arity != self.arity or other.generation < self.generation:
            return False
        return other.code // self.arity ** (other.generation - self.generation) == self.code

    def ancestors(self) -> Iterator["TreeIndex"]:
        """The chain root = k_0 < k_1 < ... < k_n = self."""
        for g in range(self.generation + 1):
            yield TreeIndex(self.arity, g,
                            self.code // self.arity ** (self.generation - g))

    # -- cube geometry -----------------------------------------------------

    def cube(self) -> "DyadicCube":
        """The dyadic cube owned by this node, exact in dyadic rationals."""
        dim = self.arity.bit_length() - 1
        origin = [Fraction(0)] * dim
        side = Fraction(1)
        for lab in self.labels:
            side /= 2
            bits = lab - 1
            for axis in range(dim):
                if (bits >> axis) & 1:
                    origin[axis] += side
        return DyadicCube(tuple(origin), side)


@dataclass(frozen=True, slots=True)
class DyadicCube:
    """Half-open cube ``prod_a [origin_a, origin_a + side)`` with dyadic data."""

    origin: tuple[Fraction, ...]
    side: Fraction

    @property
    def dim(self) -> int:
        return len(self.origin)

    @property
    def volume(self) -> Fraction:
        return self.side**self.dim

    def center(self) -> tuple[float, ...]:
        return tuple(float(o + self.side / 2) for o in self.origin)


def path_of_point(point: Sequence[float], generation: int, dim: int) -> TreeIndex:
    """The generation-n node whose cube contains ``point``.

    The half-open convention makes this total on ``[0,1)**d``; doubling a
    binary float is exact, so the returned path is the exact binary
    expansion of the coordinates.
    """
    return next(islice(point_path(point, dim), generation, None))


def point_path(point: Sequence[float], dim: int) -> Iterator[TreeIndex]:
    """The nested sequence x_0 < x_1 < ... of nodes whose cubes contain x."""
    coords = [float(x) for x in point]
    if len(coords) != dim:
        raise ValueError(f"expected a {dim}-vector, got {len(coords)} coordinates")
    if any(not 0.0 <= x < 1.0 for x in coords):
        raise ValueError("point must lie in [0,1)^d")
    node = TreeIndex.root(2**dim)
    while True:
        yield node
        bits = 0
        for axis in range(dim):
            if coords[axis] >= 0.5:
                bits |= 1 << axis
                coords[axis] = 2.0 * coords[axis] - 1.0
            else:
                coords[axis] = 2.0 * coords[axis]
        node = node.child(bits + 1)


def label_axes(values, dim: int) -> np.ndarray:
    """Per-label values, in label order, as a ``(2,)*dim`` array whose axis
    a is bit a of ``label - 1``: the cube convention of :meth:`TreeIndex.cube`
    and :func:`point_path`, so the array lays the values out in space."""
    return np.asarray(values).reshape((2,) * dim).T


def generation_start(N: int, generation: int) -> int:
    """Heap index of the first generation-`generation` node of the N-ary
    tree; at depth + 1 it is the size of generations 0..depth."""
    return (N**generation - 1) // (N - 1)
