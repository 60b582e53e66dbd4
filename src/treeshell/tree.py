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
  binary digit n of coordinate a is bit a of the generation-n label);
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
"""

from __future__ import annotations

import numpy as np

__all__ = ["generation_start", "label_axes"]


def label_axes(values, dim: int) -> np.ndarray:
    """Per-label values, in label order, as a ``(2,)*dim`` array whose axis
    a is bit a of ``label - 1``: the cube convention, so the array lays the
    values out in space."""
    return np.asarray(values).reshape((2,) * dim).T


def generation_start(N: int, generation: int) -> int:
    """Heap index of the first generation-`generation` node of the N-ary
    tree; at depth + 1 it is the size of generations 0..depth."""
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    return (N**generation - 1) // (N - 1)
