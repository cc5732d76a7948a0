"""Multiplicative subgroups of the nonzero residues modulo a prime, and the
discrete-log index of their cosets."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, ResourceError
from .field import PrimeModulus, primitive_root

# Largest subgroup order whose elements are listed (8 bytes each, plus a
# same-sized temporary while they are sorted).
ELEMENT_LIMIT = 10**7
# Largest p for which length-p tables (coset index, sum table) are built.
DEFAULT_DENSE_LIMIT = 10**7
# Power-table entries per block, written into buffers allocated once per call
# and small enough to stay in cache: no block faults in fresh pages.
TABLE_BLOCK = 2**14


@dataclass(frozen=True, eq=False)
class CosetIndex:
    """Discrete logs to a primitive root g, reduced to the M = (p-1)/H cosets.

    The power table g^(iM+j), laid out as an H x M matrix whose column j is
    coset j, is never stored: reps[j] = g^j (coset 0 is the subgroup) and
    steps[i] = g^(iM) give it a block at a time.  labels[x] = log_g(x) mod M,
    and labels[0] = M as 0 lies in no coset; it is built on first use.
    """

    p: int
    order: int
    root: int
    reps: np.ndarray
    steps: np.ndarray

    @property
    def cosets(self) -> int:
        return (self.p - 1) // self.order

    def blocks(self, rows: int | None = None, cols: int | None = None):
        """(cols, block) pairs covering the first `rows` rows and `cols`
        columns of the power table (all of them by default): columns `cols`
        of consecutive rows, at most TABLE_BLOCK entries, in one buffer that
        the next block overwrites."""
        rows = self.order if rows is None else rows
        cols = self.cosets if cols is None else cols
        width = min(cols, TABLE_BLOCK)
        height = max(1, TABLE_BLOCK // width)
        buf, quo = np.empty((2, height, width), dtype=np.int64)
        for j in range(0, cols, width):
            reps = self.reps[j : min(j + width, cols)]
            for i in range(0, rows, height):
                steps = self.steps[i : min(i + height, rows)]
                block, q = buf[: steps.size, : reps.size], quo[: steps.size, : reps.size]
                np.multiply(steps[:, None], reps, out=block)
                # x - (x // p) * p: numpy's floor_divide by a scalar is several
                # times faster than its remainder
                np.multiply(np.floor_divide(block, self.p, out=q), self.p, out=q)
                yield slice(j, j + reps.size), np.subtract(block, q, out=block)

    @cached_property
    def labels(self) -> np.ndarray:
        out = np.empty(self.p, dtype=np.int32 if self.p < 2**31 else np.int64)
        out[0] = self.cosets
        coset = np.arange(self.cosets, dtype=out.dtype)
        for cols, block in self.blocks():
            out[block] = coset[cols]
        return out

    def members(self, cosets: np.ndarray) -> np.ndarray:
        """The residues of the given cosets, sorted."""
        return np.sort(self.reps[cosets, None] * self.steps % self.p, axis=None)

    def spread(self, per_coset: np.ndarray, at_zero, residues: np.ndarray) -> np.ndarray:
        """The value at each of `residues`: per_coset[j] on coset j, at_zero at 0."""
        return np.append(per_coset, at_zero)[self.labels[residues]]


def _geometric(g: int, n: int, p: int) -> np.ndarray:
    """g^k mod p for k = 0..n-1, doubling the known prefix at each step.

    Products of two residues are taken in int64 while they fit, otherwise
    in Python integers (p above 2^31.5); the result is int64 either way."""
    fits = (p - 1) ** 2 < 2**63
    out = np.ones(n, dtype=np.int64 if fits else object)
    size, step = 1, g % p
    while size < n:
        out[size : 2 * size] = out[: min(size, n - size)] * step % p
        size, step = 2 * size, step * step % p
    return out if fits else out.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Subgroup:
    """The unique multiplicative subgroup of order `order` dividing p - 1.

    `elements` is the sorted list of its H residues, immutable after
    construction and safe to share across workers; nothing of length p is
    built with it.  The coset index is built on first use and kept.
    """

    p: int
    order: int
    generator: int
    elements: np.ndarray
    _index: CosetIndex | None = field(default=None, init=False, repr=False)
    # Not a field: perfbench/layers.py:128 reads it to count a subgroup's dense
    # bytes, and None counts none.  It goes when in-program metrics replace
    # that tracer.
    indicator = None

    def coset_index(self, dense_limit: int = DEFAULT_DENSE_LIMIT) -> CosetIndex:
        """The coset index, built on first use once p is within dense_limit."""
        if self._index is None:
            p = self.p
            if p > dense_limit:
                raise ResourceError(f"p = {p} exceeds the dense table limit {dense_limit}")
            root = primitive_root(p)
            m = (p - 1) // self.order
            reps = _geometric(root, m, p)
            steps = _geometric(pow(root, m, p), self.order, p)
            object.__setattr__(self, "_index", CosetIndex(p, self.order, root, reps, steps))
        return self._index


def subgroup_of_order(modulus: PrimeModulus | int, order: int) -> Subgroup:
    """Build the subgroup of the given order, generated by r^((p-1)/order)."""
    pm = modulus if isinstance(modulus, PrimeModulus) else PrimeModulus.from_int(modulus)
    p = pm.p
    if order < 1 or (p - 1) % order != 0:
        raise InputError(f"order {order} does not divide p - 1 = {p - 1}")
    if order > ELEMENT_LIMIT:
        raise ResourceError(f"order {order} exceeds the subgroup element limit {ELEMENT_LIMIT}")
    g = pow(primitive_root(pm), (p - 1) // order, p)
    assert pow(g, order, p) == 1, "generator does not have the requested order"
    elements = np.sort(_geometric(g, order, p))
    return Subgroup(p, order, g, elements)
