"""Multiplicative subgroups of the nonzero residues modulo a prime, and the
discrete-log index of their cosets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, ResourceError
from .field import PrimeModulus, primitive_root

# Most entries (8 bytes each) of any array whose length follows the input:
# the H subgroup elements, the M = (p-1)/H cosets of the index (and every
# length-M array past it), the N residues of an interval and the residues
# of a trace's bucket cosets.  Nothing is listed per residue of the field.
LENGTH_LIMIT = 10**7
# Largest p - 1 whose square fits in int64.  The coset index and the literal
# trilinear check multiply two residues in int64, which wraps above it.
INT64_PRODUCT_LIMIT = math.isqrt(2**63 - 1)


def check_int64_products(p: int) -> None:
    """Refuse p when the product of two residues mod p can overflow int64."""
    if p - 1 > INT64_PRODUCT_LIMIT:
        raise ResourceError(
            f"p = {p} exceeds the int64 limit: products of two residues wrap once "
            f"p - 1 > {INT64_PRODUCT_LIMIT} = isqrt(2^63 - 1)"
        )


def check_length(quantity: str, n: int) -> None:
    """Refuse an array of n entries above LENGTH_LIMIT before it is built."""
    if n > LENGTH_LIMIT:
        raise ResourceError(f"{quantity} = {n} exceeds the length limit {LENGTH_LIMIT}")


def residue_grid(op, r: np.ndarray, c: np.ndarray, n: int, block: int):
    """(rows, cols, x) triples with x = op(r[rows, None], c[cols]) mod n, for
    op np.multiply or np.add on int64 values whose results fit in int64.

    Columns run outer and rows inner, in blocks of at most `block` entries
    that tile r x c exactly once; every block is written into the same two
    buffers, so the next block overwrites it.  Callers that keep a block size
    keep the order in which their sums meet each entry."""
    if r.size == 0 or c.size == 0:
        return
    width = min(c.size, block)
    height = min(r.size, max(1, block // width))
    buf, quo = np.empty((2, height * width), dtype=np.int64)
    for j in range(0, c.size, width):
        cols = slice(j, min(j + width, c.size))
        for i in range(0, r.size, height):
            rows = slice(i, min(i + height, r.size))
            shape = (rows.stop - i, cols.stop - j)
            x = op(r[rows, None], c[cols], out=buf[: shape[0] * shape[1]].reshape(shape))
            q = quo[: x.size].reshape(shape)
            # x - (x // n) * n: numpy's floor_divide by a scalar is several
            # times faster than its remainder, and also lands in [0, n) for x < 0
            np.multiply(np.floor_divide(x, n, out=q), n, out=q)
            yield rows, cols, np.subtract(x, q, out=x)


def _geometric(g: int, n: int, p: int) -> np.ndarray:
    """g^k mod p for k = 0..n-1, doubling the known prefix at each step.

    Products of two residues are taken in int64 while they fit, otherwise
    in Python integers (p above 2^31.5); the result is int64 either way."""
    fits = p - 1 <= INT64_PRODUCT_LIMIT
    out = np.ones(n, dtype=np.int64 if fits else object)
    size, step = 1, g % p
    while size < n:
        out[size : 2 * size] = out[: min(size, n - size)] * step % p
        size, step = 2 * size, step * step % p
    return out if fits else out.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Subgroup:
    """The unique multiplicative subgroup of order `order` dividing p - 1, and
    the discrete-log index of its M = (p-1)/H cosets.

    `elements` holds its H residues in power order, g^k for k = 0..H-1 with
    g = root^M the generator and root the primitive root it was derived from,
    immutable after construction and safe to share across workers; nothing
    of length p is built with it.  The power table root^(iM+j), laid out as
    an H x M matrix whose column j is coset j, is never stored:
    elements[i] = root^(iM) and reps[j] = root^j (coset 0 is the subgroup)
    give it a block at a time.  reps and the keys of coset_of are built on
    first use and kept, once p is within the int64 limit of their products
    and M within LENGTH_LIMIT, so the index adds O(M) memory to the elements;
    coset_of(x) is the coset of each residue x, M for x = 0.
    """

    p: int
    order: int
    root: int
    generator: int
    elements: np.ndarray
    # Not a field: perfbench/layers.py:128 reads it to count a subgroup's dense
    # bytes, and None counts none.  It goes when in-program metrics replace
    # that tracer.
    indicator = None

    @property
    def cosets(self) -> int:
        return (self.p - 1) // self.order

    def _check_index(self) -> None:
        """Refuse an index whose products wrap in int64, then one above
        LENGTH_LIMIT cosets, before either is built."""
        check_int64_products(self.p)
        check_length(f"p = {self.p}, H = {self.order}: coset count M = (p-1)/H", self.cosets)

    @cached_property
    def reps(self) -> np.ndarray:
        """root^j for j = 0..M-1, one residue of each coset."""
        self._check_index()
        return _geometric(self.root, self.cosets, self.p)

    @cached_property
    def _power_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, cosets): keys = 0 and the M residues root^(jH), sorted, and
        cosets[i] the j of keys[i] (M for the key 0)."""
        self._check_index()
        m = self.cosets
        powers = _geometric(pow(self.root, self.order, self.p), m, self.p)
        order = np.argsort(powers)
        return np.append(0, powers[order]), np.append(m, order)

    def coset_of(self, residues) -> np.ndarray:
        """The coset of each residue, M for 0: x = root^k has
        x^H = root^(kH), and root^H has order M, so x^H = root^(jH) exactly
        when k = j mod M.  x^H is taken by square-and-multiply in int64 (at
        most 2 log2 H products a residue) and found by bisection among the M
        powers root^(jH), which are built and sorted on first use
        (O(M log M))."""
        keys, cosets = self._power_keys
        p = self.p
        base = np.asarray(residues, dtype=np.int64) % p
        power = np.ones_like(base)
        for bit in bin(self.order)[2:]:
            power = power * power % p
            if bit == "1":
                power = power * base % p
        return cosets[np.searchsorted(keys, power)]

    def members(self, cosets: np.ndarray) -> np.ndarray:
        """The residues of the given cosets, sorted, refused above
        LENGTH_LIMIT of them."""
        reps = self.reps[cosets]
        check_length("coset members |cosets| * H", reps.size * self.order)
        return np.sort(reps[:, None] * self.elements % self.p, axis=None)


def subgroup_of_order(modulus: PrimeModulus | int, order: int) -> Subgroup:
    """Build the subgroup of the given order, generated by r^((p-1)/order)."""
    pm = modulus if isinstance(modulus, PrimeModulus) else PrimeModulus.from_int(modulus)
    p = pm.p
    if order < 1 or (p - 1) % order != 0:
        raise InputError(f"order {order} does not divide p - 1 = {p - 1}")
    check_length("subgroup order H", order)
    root = primitive_root(pm)
    g = pow(root, (p - 1) // order, p)
    assert pow(g, order, p) == 1, "generator does not have the requested order"
    return Subgroup(p, order, root, g, _geometric(g, order, p))
