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
  (``label_axes`` lays per-label values out in space this way, and the
  binary digit n of coordinate a is bit a of the generation-n label, the
  map ``label_path`` takes from a point to the labels of its path);
- a node's packed code is its rank within its generation: its labels
  minus one, read as base-N digits, most significant first;
- generation-major order is a heap layout: node j sits at index
  ``generation_start(N, |j|) + code(j)``, the parent of index i >= 1 is
  ``(i - 1) // N`` and its children are ``N i + 1 .. N i + N``;
- cubes are half-open, ``[a, a+s)`` in every axis, which makes the
  point-to-path map total on ``[0,1)**d``;
- the labelling is self-similar: the homothety sending the unit cube onto
  the cube of ``j`` sends the cube of ``k`` onto the cube of ``jk``.

The per-node forms of these conventions (a node object, its exact cube and
the path of a point) live in ``tests/oracles.py``, where they check the
vectorised code.

It is also the one home of the size budgets: every size meets its budget in
``check_budget`` before it is allocated or looped over, and ``tree_size``
is ``generation_start`` under the "nodes" budget.
"""

from __future__ import annotations

import numpy as np

__all__ = ["generation_start", "label_axes", "label_path", "ResourceLimitError"]


def label_axes(values, dim: int) -> np.ndarray:
    """Per-label values, in label order, as a ``(2,)*dim`` array whose axis
    a is bit a of ``label - 1``: the cube convention, so the array lays the
    values out in space."""
    return np.asarray(values).reshape((2,) * dim).T


def label_path(point: list[float], n: int) -> np.ndarray:
    """Labels of the generation-1..n nodes whose cubes hold a point of
    [0,1)**d: bit a of label g - 1 is binary digit g of coordinate a."""
    digits = np.zeros((len(point), n), dtype=np.int64)
    for a, x in enumerate(point):
        num, den = x.as_integer_ratio()  # den = 2**k: x has k digits
        bits = format(num, "b").zfill(den.bit_length() - 1)[:n]
        digits[a, :len(bits)] = np.frombuffer(bits.encode(), np.uint8) - ord("0")
    return 1 + (1 << np.arange(len(point))) @ digits


def generation_start(N: int, generation: int) -> int:
    """Heap index of the first generation-`generation` node of the N-ary
    tree; at depth + 1 it is the size of generations 0..depth."""
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    return (N**generation - 1) // (N - 1)


class ResourceLimitError(RuntimeError):
    """A size would exceed its fixed memory or work budget."""


# Budgets by kind: generation rows and states ("nodes"), trajectories and lln
# label counts ("values"), fields, the lattice, the spectra table, the deepest
# pull-back row (all rows are kept), one integration's steps times nodes and a
# lambda-family multiset (held as Python floats, ~70 B each).
_BUDGETS = {**dict.fromkeys(("nodes", "values", "cells"), 2**26),
            **dict.fromkeys(("atoms", "rows"), 2**22),
            "pull-back nodes": 2**24, "node-steps": 2**36,
            "coefficients": 2**20}


def _count(n: float) -> str:
    """A size as text; an int past 2**64 as a power of two it exceeds,
    since its digits would fill a line, or pass Python's int-to-text
    limit, before the budget is named."""
    if n <= 2**64 or not isinstance(n, int):
        return f"{n}"
    return f"more than 2**{(n - 1).bit_length() - 1}"


def check_budget(kind: str, size: float, exponent: int = 1) -> None:
    """Raise ResourceLimitError if size**exponent items of `kind` exceed
    their budget.  A size >= 2 with an exponent past the budget's bit
    length is refused before the power is formed, so a huge depth costs
    nothing."""
    budget = _BUDGETS[kind]
    if size >= 2 and exponent > budget.bit_length():
        shown = f"{size}**{exponent}" if exponent <= 2**64 \
            else f"{size}**({_count(exponent)})"
    elif (total := size**exponent) > budget:
        shown = _count(total)
    else:
        return
    raise ResourceLimitError(f"{shown} {kind} exceed the {budget} budget")


def tree_size(N: int, depth: int) -> int:
    """The node count of generations 0..depth, (N**(depth+1) - 1)/(N - 1),
    within the "nodes" budget; N**depth meets it first."""
    check_budget("nodes", N, depth)
    size = generation_start(N, depth + 1)
    check_budget("nodes", size)
    return size
