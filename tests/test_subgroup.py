from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expsumlab import (
    InputError,
    Interval,
    ResourceError,
    all_sums,
    difference_counts,
    divisors,
    is_prime,
    j_count,
    max_sum,
    representation_counts,
    single_sum,
    subgroup_of_order,
)
from expsumlab import expsum, field, subgroup
from oracles import (
    coset_labels,
    exact_sum,
    indicator,
    quadruple_loop_j,
    spread,
    subgroup_sum,
    tuple_count_T,
)


def test_subgroup_examples():
    # elements in power order g^k, g = 2^((p-1)/H) for the primitive root 2
    assert list(subgroup_of_order(13, 3).elements) == [1, 3, 9]
    assert list(subgroup_of_order(13, 1).elements) == [1]
    assert list(subgroup_of_order(13, 12).elements) == [pow(2, k, 13) for k in range(12)]


def test_subgroup_elements_above_int64_products():
    # p > 2^31.5: products of two residues are taken in Python integers
    p, h = 2**61 - 1, 210
    sub = subgroup_of_order(p, h)
    powers = [pow(sub.generator, k, p) for k in range(h)]
    assert [int(v) for v in sub.elements] == powers and len(set(powers)) == h


def test_coset_index_refused_above_int64_products():
    # (p - 1)^2 >= 2^63: the index's products g^(iM) * g^j would wrap in int64;
    # a refused p caches nothing, and single_sum builds no index
    for p, h in ((3037000507, 2), (4000000007, 2)):
        sub = subgroup_of_order(p, h)
        for lookup in (lambda: sub.reps, lambda: sub.coset_of(3), lambda: sub.members([0])):
            with pytest.raises(ResourceError, match="int64"):
                lookup()
        with pytest.raises(ResourceError, match="int64"):
            all_sums(sub)
        assert not {"reps", "_power_keys"} & vars(sub).keys()
        assert abs(single_sum(1, sub)) <= h
        assert not {"reps", "_power_keys"} & vars(sub).keys()


def test_members_above_length_limit():
    # a bucket's residues are listed only up to LENGTH_LIMIT: at p > 10^7 the
    # cosets of H = 22 hold up to p - 1 of them
    p, h = 20000003, 22
    sub = subgroup_of_order(p, h)
    cosets = np.array([5, 0, 3])
    x = sub.members(cosets)
    assert [int(v) for v in x] == sorted(pow(sub.root, int(j) + i * sub.cosets, p) for j in cosets for i in range(h))
    assert np.bincount(sub.coset_of(x)).tolist() == [h, 0, 0, h, 0, h]
    for size in (subgroup.LENGTH_LIMIT // h + 1, sub.cosets):
        with pytest.raises(ResourceError, match=f"coset members \\|cosets\\| \\* H = {size * h} exceeds"):
            sub.members(np.arange(size))


def test_coset_index_just_below_int64_products():
    # the largest prime with (p - 1)^2 < 2^63 still builds its index; the next
    # one, 3037000507, is refused above
    p, h, lim = 3037000493, 4 * 492061, subgroup.INT64_PRODUCT_LIMIT
    assert lim**2 < 2**63 <= (lim + 1) ** 2
    assert p - 1 <= lim < 3037000507 - 1
    sub = subgroup_of_order(p, h)
    g, m = sub.root, sub.cosets
    assert m == 1543
    assert [int(v) for v in sub.reps[-3:]] == [pow(g, j, p) for j in range(m - 3, m)]
    assert [int(v) for v in sub.elements[-3:]] == [pow(g, i * m, p) for i in range(h - 3, h)]
    grid = subgroup.residue_grid(np.multiply, sub.elements[:2], sub.reps, p, expsum.TABLE_BLOCK)
    _, _, block = next(grid)
    assert [int(v) for v in block[1, -3:]] == [pow(g, m + j, p) for j in range(m - 3, m)]


def test_order_must_divide():
    with pytest.raises(InputError):
        subgroup_of_order(13, 5)


def test_determinism():
    a = subgroup_of_order(1009, 48)
    b = subgroup_of_order(1009, 48)
    assert np.array_equal(a.elements, b.elements)
    assert a.generator == b.generator


def test_primitive_root_found_once_per_case(monkeypatch):
    """The subgroup keeps the primitive root its generator comes from, and
    the coset index reads it: one root search and one factorization of p - 1
    build the subgroup and its sum table."""
    calls = Counter()
    for module, name in ((subgroup, "primitive_root"), (field, "factorize")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    sub = subgroup_of_order(9999991, 99)
    table = all_sums(sub)
    assert calls == {"primitive_root": 1, "factorize": 1}
    assert table.sub is sub and pow(sub.root, (sub.p - 1) // 99, sub.p) == sub.generator


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
    assert subgroup_of_order(13, 12).cosets == 1
    sub = subgroup_of_order(13, 3)
    assert sub.cosets == 4 and sub.root == 2
    assert list(sub.reps) == [pow(2, j, 13) for j in range(4)]
    assert list(sub.elements) == [pow(2, 4 * i, 13) for i in range(3)]
    assert subgroup_of_order(7, 1).cosets == 6


@pytest.mark.parametrize("block", [1, 3, 64, 2**14])
@pytest.mark.parametrize("op", [np.multiply, np.add])
@pytest.mark.parametrize("rows,cols", [(1, 1), (5, 2), (2, 5), (7, 70), (70, 7), (130, 130), (2, 20000)])
def test_residue_grid(block, op, rows, cols):
    """Against the whole outer table mod n, with rows of both signs (each
    block is reduced into [0, n) either way): columns outer, rows inner, at
    most `block` entries a block, every entry in exactly one block."""
    n = 1009
    rng = np.random.default_rng(1000 * rows + cols)
    r, c = rng.integers(-n + 1, n, rows), rng.integers(0, n, cols)
    want = op.outer(r, c) % n
    seen = np.zeros((rows, cols), dtype=np.int64)
    starts = []
    for rs, cs, x in subgroup.residue_grid(op, r, c, n, block):
        assert x.size <= block and np.array_equal(x, want[rs, cs])
        seen[rs, cs] += 1
        starts.append((cs.start, rs.start))
    assert np.all(seen == 1) and starts == sorted(starts)


def test_residue_grid_empty():
    full = np.arange(5, dtype=np.int64)
    for r, c in ((full[:0], full), (full, full[:0]), (full[:0], full[:0])):
        assert list(subgroup.residue_grid(np.multiply, r, c, 7, 3)) == []


def test_coset_lookup_matches_oracle_labels_every_small_field():
    # every residue of every field p < 300 and every H | p - 1, and residues
    # given outside [0, p) land in the coset of their remainder
    for p in (n for n in range(3, 300) if is_prime(n)):
        x = np.arange(p, dtype=np.int64)
        for h in divisors(p - 1):
            sub = subgroup_of_order(p, h)
            want = coset_labels(p, sub.root, h)
            assert np.array_equal(sub.coset_of(x), want), (p, h)
            assert np.array_equal(sub.coset_of(x - p), want) and sub.coset_of(p + 1) == 0


def power_table(sub, rows=None, cols=None):
    """(cols, block) pairs of the subgroup's power table root^(iM+j), its
    first `rows` rows and `cols` columns (all by default), in the blocks of
    the sum table."""
    grid = subgroup.residue_grid(
        np.multiply, sub.elements[:rows], sub.reps[:cols], sub.p, expsum.TABLE_BLOCK
    )
    return ((cs, block) for _, cs, block in grid)


def index_cosets(sub) -> list[set[int]]:
    """The members of each coset, read off the power-table blocks."""
    cosets = [set() for _ in range(sub.cosets)]
    for cols, block in power_table(sub):
        for j, column in zip(range(sub.cosets)[cols], block.T):
            cosets[j] |= {int(v) for v in column}
    return cosets


@pytest.mark.parametrize("p,h", [(3, 1), (3, 2), (13, 3), (101, 10), (1009, 16), (1009, 1008)])
def test_coset_index_partition(p, h):
    sub = subgroup_of_order(p, h)
    m = (p - 1) // h
    assert sub.cosets == m
    g = sub.root
    assert [int(v) for v in sub.reps] == [pow(g, j, p) for j in range(m)]
    assert [int(v) for v in sub.elements] == [pow(g, i * m, p) for i in range(h)]
    # coset j is {g^(j + iM)}: it has H members, all labelled j, and is rep_j * H
    labels = coset_labels(p, g, h)
    seen = set()
    for j, coset in enumerate(index_cosets(sub)):
        assert len(coset) == h
        assert {int(labels[v]) for v in coset} == {j}
        assert coset == {int(v) for v in (int(sub.reps[j]) * sub.elements) % p}
        assert not coset & seen
        seen |= coset
    assert seen == set(range(1, p))


def assert_period_symmetry(table):
    """-1 = g^((p-1)/2): for odd H coset j + M/2 is minus coset j, so its
    period is the exact conjugate; for even H every period is exactly real,
    and the table stores it as float64."""
    half = table.sub.cosets // 2
    if table.order % 2:
        assert table.eta.dtype == np.complex128
        assert np.array_equal(table.eta[half:], np.conj(table.eta[:half]))
        assert table.coset_magnitudes[half:].tobytes() == table.coset_magnitudes[:half].tobytes()
    else:
        assert table.eta.dtype == np.float64


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
    monkeypatch.setattr(expsum, "TABLE_BLOCK", block)
    sub = subgroup_of_order(p, h)
    for _, chunk in power_table(sub):
        assert chunk.size <= block
    elems = [int(v) for v in sub.elements]
    labels = coset_labels(p, sub.root, h)
    for j, coset in enumerate(index_cosets(sub)):
        assert coset == {int(v) for v in (int(sub.reps[j]) * sub.elements) % p}
        assert {int(labels[v]) for v in coset} == {j}
    rows, cols = (h, sub.cosets // 2) if h % 2 else (h // 2, sub.cosets)
    entries = Counter()
    for cs, chunk in power_table(sub, rows=rows, cols=cols):
        assert chunk.size <= block and chunk.shape[1] == len(range(cols)[cs])
        entries.update(int(v) for v in chunk.ravel())
    assert entries == Counter(
        int(sub.reps[j]) * int(sub.elements[i]) % p for i in range(rows) for j in range(cols)
    )
    table = all_sums(sub)
    assert_period_symmetry(table)
    fft = np.conj(np.fft.fft(indicator(sub).astype(np.float64)))
    assert np.max(np.abs(spread(sub, table.eta, h) - fft)) <= 1e-9 * h
    # the period error read off these blocks covers every period
    for j, rep in enumerate(sub.reps):
        exact = exact_sum(int(rep), sub.elements, p)
        assert abs(table.eta[j] - exact) <= table.period_error, j
        assert abs(table.coset_magnitudes[j] - abs(exact)) <= table.period_error, j
    # a* is the least residue within twice the period error of the maximum
    mags = spread(sub, table.coset_magnitudes, h)[1:]
    a_star = 1 + int(np.flatnonzero(mags >= mags.max() - 2 * table.period_error)[0])
    assert max_sum(table) == (a_star, mags.max())
    assert representation_counts(table, 2).energy == tuple_count_T(elems, p, 2)


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
    values = spread(table.sub, table.eta, h)
    mags = spread(table.sub, table.coset_magnitudes, h)
    fft = np.conj(np.fft.fft(indicator(sub).astype(np.float64)))
    assert np.max(np.abs(values - fft)) <= 1e-9 * h
    for a in range(p):
        assert abs(values[a] - subgroup_sum(a, elems, p)) <= 1e-9 * h
        assert mags[a] == mags[-a % p]  # |S_-a| = |S_a| exactly
    for m in (1, 2, 3):
        if h**m <= 20000:
            assert representation_counts(table, m).energy == tuple_count_T(elems, p, m), m
    pairs = Counter((h1 - h2) % p for h1 in elems for h2 in elems)
    diff = difference_counts(table)
    assert list(spread(diff.sub, diff.per_coset, diff.at_zero)) == [pairs[d] for d in range(p)]
    iv = Interval(start, n_len)
    expected = quadruple_loop_j([int(v) for v in iv.residues(p)], elems, p)
    assert j_count(iv, table).energy == expected
