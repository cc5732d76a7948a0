from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsumlab import (
    InputError,
    Interval,
    all_sums,
    difference_counts,
    divisors,
    j_count,
    max_sum,
    representation_counts,
    subgroup_of_order,
)
from expsumlab import subgroup
from expsumlab.expsum import period_error
from oracles import indicator, quadruple_loop_j, spread, subgroup_sum, tuple_count_T


def test_subgroup_examples():
    assert list(subgroup_of_order(13, 3).elements) == [1, 3, 9]
    assert list(subgroup_of_order(13, 1).elements) == [1]
    assert list(subgroup_of_order(13, 12).elements) == list(range(1, 13))


def test_subgroup_elements_above_int64_products():
    # p > 2^31.5: products of two residues are taken in Python integers
    p, h = 2**61 - 1, 210
    sub = subgroup_of_order(p, h)
    powers = sorted(pow(sub.generator, k, p) for k in range(h))
    assert [int(v) for v in sub.elements] == powers and len(set(powers)) == h


def test_order_must_divide():
    with pytest.raises(InputError):
        subgroup_of_order(13, 5)


def test_determinism():
    a = subgroup_of_order(1009, 48)
    b = subgroup_of_order(1009, 48)
    assert np.array_equal(a.elements, b.elements)
    assert a.generator == b.generator


@pytest.mark.parametrize("p,h", [(13, 3), (13, 6), (101, 10), (257, 16), (1009, 48)])
def test_subgroup_structure(p, h):
    sub = subgroup_of_order(p, h)
    assert sub.order == h == len(set(sub.elements))
    ind = indicator(sub)
    assert ind[1] == 1
    assert int(ind.sum()) == h
    assert all(ind[x] == 1 for x in sub.elements)
    # closure under multiplication, exhaustive for these sizes
    prods = (sub.elements[:, None] * sub.elements[None, :]) % p
    assert np.all(ind[prods] == 1)
    # every element has order dividing h
    assert all(pow(int(x), h, p) == 1 for x in sub.elements)


def test_coset_index_examples():
    assert subgroup_of_order(13, 12).coset_index().cosets == 1
    index = subgroup_of_order(13, 3).coset_index()
    assert index.cosets == 4 and index.root == 2
    assert list(index.reps) == [pow(2, j, 13) for j in range(4)]
    assert list(index.steps) == [pow(2, 4 * i, 13) for i in range(3)]
    assert subgroup_of_order(7, 1).coset_index().cosets == 6


def index_cosets(index) -> list[set[int]]:
    """The members of each coset, read off the index's power-table blocks."""
    cosets = [set() for _ in range(index.cosets)]
    for cols, block in index.blocks():
        for j, column in zip(range(index.cosets)[cols], block.T):
            cosets[j] |= {int(v) for v in column}
    return cosets


@pytest.mark.parametrize("p,h", [(3, 1), (3, 2), (13, 3), (101, 10), (1009, 16), (1009, 1008)])
def test_coset_index_partition(p, h):
    sub = subgroup_of_order(p, h)
    index = sub.coset_index()
    m = (p - 1) // h
    assert index.cosets == m
    g = index.root
    assert [int(v) for v in index.reps] == [pow(g, j, p) for j in range(m)]
    assert [int(v) for v in index.steps] == [pow(g, i * m, p) for i in range(h)]
    # coset j is {g^(j + iM)}: it has H members, all labelled j, and is rep_j * H
    seen = set()
    for j, coset in enumerate(index_cosets(index)):
        assert len(coset) == h
        assert {int(index.labels[v]) for v in coset} == {j}
        assert coset == {int(v) for v in (int(index.reps[j]) * sub.elements) % p}
        assert not coset & seen
        seen |= coset
    assert seen == set(range(1, p))
    assert {int(v) for v in index.steps} == {int(v) for v in sub.elements}


def assert_period_symmetry(table):
    """-1 = g^((p-1)/2): for odd H coset j + M/2 is minus coset j, so its
    period is the exact conjugate; for even H every period is exactly real."""
    half = table.index.cosets // 2
    if table.order % 2:
        assert np.array_equal(table.eta[half:], np.conj(table.eta[:half]))
        assert table.coset_magnitudes[half:].tobytes() == table.coset_magnitudes[:half].tobytes()
    else:
        assert np.all(table.eta.imag == 0)


@pytest.mark.parametrize("block", [1, 3, 7, 64])
@pytest.mark.parametrize(
    "p,h", [(3, 1), (3, 2), (13, 3), (13, 12), (101, 5), (101, 20), (1009, 16), (1009, 1)]
)
def test_coset_index_small_blocks(monkeypatch, block, p, h):
    """Blocks smaller than a row split the columns as well as the rows; the
    index and every layer that reads it come out the same.  The half tables
    of all_sums end inside what would be one block of the whole table (the
    columns of (101, 5) at block 7, the rows of (13, 12) at block 7 and of
    (101, 20) at block 64), and their blocks stop there."""
    monkeypatch.setattr(subgroup, "TABLE_BLOCK", block)
    sub = subgroup_of_order(p, h)
    index = sub.coset_index()
    for _, chunk in index.blocks():
        assert chunk.size <= block
    elems = [int(v) for v in sub.elements]
    for j, coset in enumerate(index_cosets(index)):
        assert coset == {int(v) for v in (int(index.reps[j]) * sub.elements) % p}
        assert {int(index.labels[v]) for v in coset} == {j}
    rows, cols = (h, index.cosets // 2) if h % 2 else (h // 2, index.cosets)
    entries = Counter()
    for cs, chunk in index.blocks(rows=rows, cols=cols):
        assert chunk.size <= block and chunk.shape[1] == len(range(cols)[cs])
        entries.update(int(v) for v in chunk.ravel())
    assert entries == Counter(
        int(index.reps[j]) * int(index.steps[i]) % p for i in range(rows) for j in range(cols)
    )
    table = all_sums(sub)
    assert_period_symmetry(table)
    fft = np.conj(np.fft.fft(indicator(sub).astype(np.float64)))
    assert np.max(np.abs(spread(index, table.eta, h) - fft)) <= 1e-9 * h
    # a* is the least residue within twice the period error of the maximum
    mags = spread(index, table.coset_magnitudes, h)[1:]
    a_star = 1 + int(np.flatnonzero(mags >= mags.max() - 2 * period_error(h))[0])
    assert max_sum(sub, table=table) == (a_star, mags.max())
    assert representation_counts(sub, 2).energy == tuple_count_T(elems, p, 2)


@given(st.sampled_from([13, 31, 61, 101, 181, 257]), st.data())
def test_subgroup_power_identity_property(p, data):
    h = data.draw(st.sampled_from(divisors(p - 1)))
    sub = subgroup_of_order(p, h)
    x = data.draw(st.sampled_from([int(v) for v in sub.elements]))
    y = data.draw(st.sampled_from([int(v) for v in sub.elements]))
    assert indicator(sub)[(x * y) % p] == 1
    assert pow(x, h, p) == 1


SMALL_PRIMES = [3, 5, 7, 13, 31, 61, 101, 181, 257]


@st.composite
def prime_order_interval(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    h = draw(st.sampled_from(divisors(p - 1)))
    start = draw(st.integers(0, p - 1))
    return p, h, start, draw(st.integers(1, min(p, max(1, 40 // h))))


@settings(max_examples=60)
@given(prime_order_interval())
@example((3, 1, 0, 3)).via("edge: p = 3, H = 1, the interval holds 0")
@example((3, 2, 2, 1)).via("edge: p = 3, H = p - 1, the interval is {0}")
@example((5, 1, 1, 2)).via("edge: H = 1, M = 4 cosets in conjugate pairs")
@example((13, 1, 5, 13)).via("edge: H = 1")
@example((13, 2, 11, 4)).via("edge: H = 2")
@example((101, 100, 0, 1)).via("edge: H = p - 1")
def test_coset_index_layers_against_oracles(case):
    p, h, start, n_len = case
    sub = subgroup_of_order(p, h)
    elems = [int(v) for v in sub.elements]
    table = all_sums(sub)
    assert_period_symmetry(table)
    values = spread(table.index, table.eta, h)
    mags = spread(table.index, table.coset_magnitudes, h)
    fft = np.conj(np.fft.fft(indicator(sub).astype(np.float64)))
    assert np.max(np.abs(values - fft)) <= 1e-9 * h
    for a in range(p):
        assert abs(values[a] - subgroup_sum(a, elems, p)) <= 1e-9 * h
        assert mags[a] == mags[-a % p]  # |S_-a| = |S_a| exactly
    for m in (1, 2, 3):
        if h**m <= 20000:
            assert representation_counts(sub, m).energy == tuple_count_T(elems, p, m), m
    pairs = Counter((h1 - h2) % p for h1 in elems for h2 in elems)
    diff = difference_counts(sub)
    assert list(spread(diff.index, diff.per_coset, diff.at_zero)) == [pairs[d] for d in range(p)]
    iv = Interval(start, n_len)
    expected = quadruple_loop_j([int(v) for v in iv.residues(p)], elems, p)
    assert j_count(iv, sub).energy == expected
