"""Multiplicative subgroups of the nonzero residues modulo a prime, and the
discrete-log index of their cosets."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, ResourceError
from .field import PrimeModulus, primitive_root

# Above this the dense 0/1 indicator (one byte per residue) is not allocated.
DENSE_INDICATOR_LIMIT = 10**8
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

    def blocks(self):
        """(cols, block) pairs covering the power table: columns `cols` of
        consecutive rows, at most TABLE_BLOCK entries, in one buffer that
        the next block overwrites."""
        width = min(self.cosets, TABLE_BLOCK)
        height = max(1, TABLE_BLOCK // width)
        buf = np.empty((height, width), dtype=np.int64)
        for j in range(0, self.cosets, width):
            reps = self.reps[j : j + width]
            for i in range(0, self.order, height):
                block = buf[: min(height, self.order - i), : reps.size]
                np.multiply(self.steps[i : i + height, None], reps, out=block)
                yield slice(j, j + width), np.remainder(block, self.p, out=block)

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

    def spread(self, per_coset: np.ndarray, at_zero, residues: np.ndarray | None = None) -> np.ndarray:
        """per_coset[j] on coset j and at_zero at 0, at every residue or at `residues`."""
        labels = self.labels if residues is None else self.labels[residues]
        return np.append(per_coset, at_zero)[labels]


def _geometric(g: int, n: int, p: int) -> np.ndarray:
    """g^k mod p for k = 0..n-1, doubling the known prefix at each step."""
    out = np.ones(n, dtype=np.int64)
    size, step = 1, g % p
    while size < n:
        out[size : 2 * size] = out[: min(size, n - size)] * step % p
        size, step = 2 * size, step * step % p
    return out


@dataclass(frozen=True, eq=False)
class Subgroup:
    """The unique multiplicative subgroup of order `order` dividing p - 1.

    `elements` is the sorted list of residues; `indicator` is a dense 0/1
    array of length p (None for very large p).  Both views are immutable
    after construction and safe to share across workers; the coset index is
    built on first use and kept.
    """

    p: int
    order: int
    generator: int
    elements: np.ndarray
    indicator: np.ndarray | None
    _index: CosetIndex | None = field(default=None, init=False, repr=False)

    def __contains__(self, x: int) -> bool:
        x = int(x) % self.p
        return x != 0 and pow(x, self.order, self.p) == 1

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
    g = pow(primitive_root(pm), (p - 1) // order, p)
    elems = []
    x = 1
    for _ in range(order):
        elems.append(x)
        x = x * g % p
    assert x == 1, "generator does not have the requested order"
    elements = np.sort(np.array(elems, dtype=np.int64))
    indicator = None
    if p <= DENSE_INDICATOR_LIMIT:
        indicator = np.zeros(p, dtype=np.uint8)
        indicator[elements] = 1
    return Subgroup(p, order, g, elements, indicator)
