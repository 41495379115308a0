"""The restriction-lattice kernel against the definition of Sub(f).

The reference closure below follows the definition literally: starting at
f, repeatedly fix one currently-essential variable through
`KFunction.cofactor`.  It shares no code with the kernel.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from fnclass import bitops
from fnclass.diagrams import imp_count, imp_count_word, implementations
from fnclass.kfun import KFunction
from fnclass.separability import (separable_sets, sep_vector, sub_vector,
                                  subfunctions)
from fnclass.spform import parse


def definitional_closure(f: KFunction) -> dict:
    """Sub(f) by breadth-first search, each member with its essential set."""
    seen = {f: f.essential_set()}
    frontier = [f]
    while frontier:
        reached = []
        for g in frontier:
            for i in seen[g]:
                for c in range(g.k):
                    h = g.cofactor(i, c)
                    if h not in seen:
                        seen[h] = h.essential_set()
                        reached.append(h)
        frontier = reached
    return seen


def functions(k: int, n: int, count: int | None) -> list[KFunction]:
    """All of P_k^n, or a seeded sample of `count` functions."""
    size = k ** (k ** n)
    if count is None:
        return [KFunction.from_id(i, k, n) for i in range(size)]
    rng = random.Random(f"{k}:{n}")
    return [KFunction.from_id(rng.randrange(size), k, n) for _ in range(count)]


def mask_of(vars_) -> int:
    return sum(1 << (i - 1) for i in vars_)


@pytest.mark.parametrize("k,n,count", [
    (2, 3, None), (3, 2, None), (2, 4, 300), (2, 5, 100), (2, 6, 30),
    (3, 3, 60),
    # tables wider than 64 bits: the uint8 build
    (2, 7, 4), (3, 4, 12), (5, 2, 40)])
def test_kernel_matches_definition(k, n, count):
    fns = functions(k, n, count)
    fns += [KFunction.constant(k, n, 0), KFunction.constant(k, n, k - 1)]
    tables = np.array([np.frombuffer(f.values, np.uint8) for f in fns])
    lattice = bitops.restrictions(bitops.row_keys(tables, k), k, n, range(n))
    subs = bitops.sub_counts(lattice, n)
    seps = bitops.sep_counts(lattice.masks, n)
    for f, sub, sep in zip(fns, subs.tolist(), seps.tolist()):
        closure = definitional_closure(f)
        sets = {e for e in closure.values() if e}
        want_sub = [sum(len(e) == m for e in closure.values())
                    for m in range(n + 1)]
        want_sep = [sum(len(e) == m for e in sets) for m in range(1, n + 1)]
        assert (sub, sep) == (want_sub, want_sep), f
        assert subfunctions(f) == set(closure), f
        assert separable_sets(f) == sets, f
        assert (list(sub_vector(f)), list(sep_vector(f))) == (sub, sep), f
        if k == 2 and n >= 4:
            assert bitops.sub_closure_word(f.word, n) == {
                g.word: mask_of(e) for g, e in closure.items()}
            assert list(bitops.sep_profile_word(f.word, n)) == want_sep


@pytest.mark.parametrize("n,count", [(2, None), (3, None), (4, 150), (5, 6)])
def test_binary_imp_matches_enumeration(n, count):
    fns = functions(2, n, count)
    tables = np.array([np.frombuffer(f.values, np.uint8) for f in fns])
    got = bitops.imp_counts(
        bitops.restrictions(bitops.row_keys(tables, 2), 2, n, range(n)), 2)
    for f, imp in zip(fns, got.tolist()):
        want = len(implementations(f))
        assert (imp, imp_count(f), imp_count_word(f.word, n)) == \
            (want, want, want), f


@pytest.mark.parametrize("k,n,count", [
    (3, 2, None), (3, 3, 200), (4, 2, 300), (3, 4, 6)])
def test_imp_kernel_matches_enumeration(k, n, count):
    # the k-generic recursion counts every label path of every ordering
    fns = functions(k, n, count)
    tables = np.array([np.frombuffer(f.values, np.uint8) for f in fns])
    got = bitops.imp_counts(
        bitops.restrictions(bitops.row_keys(tables, k), k, n, range(n)), k)
    assert got.tolist() == [len(implementations(f)) for f in fns]
    for f, imp in list(zip(fns, got.tolist()))[::max(1, len(fns) // 50)]:
        assert imp_count(f) == imp, f


def gathered_masks(keys: np.ndarray, k: int, variables) -> np.ndarray:
    """Essential masks of a lattice's rows by gathers: per variable, each
    row where it is free is compared with the row that fixes it to 0."""
    index = np.arange((k + 1) ** len(variables))
    masks = np.zeros(keys.shape, dtype=np.int64)
    for digit, i in enumerate(variables):
        step = (k + 1) ** digit
        zero = np.where(index // step % (k + 1) == 0, index + step, index)
        masks |= (keys != keys[zero]).astype(np.int64) << i
    return masks


@pytest.mark.parametrize("k,n", [
    (2, 4), (3, 3), (4, 2),
    # tables wider than 64 bits: the uint8 build
    (2, 7), (3, 4), (5, 2)])
def test_masks_match_the_gather_formula(k, n):
    # seeded functions, and the same with one variable fixed (inessential)
    fns = functions(k, n, 30)
    fns += [f.cofactor(1 + j % n, j % k) for j, f in enumerate(fns[:10])]
    fns += [KFunction.constant(k, n, 0), KFunction.constant(k, n, k - 1)]
    tables = np.array([np.frombuffer(f.values, np.uint8) for f in fns])
    orders = [variables for size in range(n + 1)
              for variables in itertools.permutations(range(n), size)]
    if len(orders) > 100:  # P_2^7 has 13,700: keep () and a seeded sample
        orders = orders[:1] + random.Random(n).sample(orders[1:], 39)
    for variables in orders:
        lattice = bitops.restrictions(bitops.row_keys(tables, k), k, n,
                                      variables)
        assert np.array_equal(
            lattice.masks, gathered_masks(lattice.keys, k, variables)), \
            variables


def test_sep_counts_memory_stays_near_the_masks():
    # x1 xor x2 in P_2^20 over its 9-row lattice: one byte per possible
    # mask, not a (2^20, 20) one-hot matrix
    n = 20
    cells = np.arange(1 << n)
    table = ((cells ^ cells >> 1) & 1).astype(np.uint8)[None]
    masks = bitops.restrictions(bitops.row_keys(table, 2), 2, n, (0, 1)).masks
    tracemalloc.start()
    try:
        sep = bitops.sep_counts(masks, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sep.tolist() == [[2, 1] + [0] * (n - 2)]
    assert peak < 64 << 20, f"{peak >> 20} MiB"


def test_cold_sep_vector_memory_stays_near_the_lattice():
    # x1 xor x2 in P_2^20: Ess(f) comes from reshaped views of the table,
    # with no (n, k^n) cell-index table; the lattice is 9 rows of 2^20 cells
    n = 20
    cells = np.arange(1 << n)
    f = KFunction(2, n, ((cells ^ cells >> 1) & 1).astype(np.uint8).tobytes())
    bitops.function_lattice.cache_clear()
    tracemalloc.start()
    try:
        sep = sep_vector(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sep == (2, 1) + (0,) * (n - 2)
    assert peak < 64 << 20, f"{peak >> 20} MiB"


def test_word_kernels_past_64_bit_ids():
    # P_2^7 ids have 128 bits: the word kernels unpack the word's bits,
    # and tables_from_ids refuses ids that uint64 cannot hold
    w = 1 << 70 | 6
    f = KFunction.from_word(w, 7)
    assert bitops.sep_profile_word(w, 7) == sep_vector(f) == \
        (7, 21, 35, 35, 21, 7, 1)
    assert bitops.sub_closure_word(w, 7) == {
        g.word: mask_of(g.essential_set()) for g in subfunctions(f)}
    for k, n in [(2, 7), (4, 3), (2, 30)]:
        with pytest.raises(ValueError, match="64 bits"):
            bitops.tables_from_ids([0], k, n)
    assert bitops.tables_from_ids([(1 << 64) - 1], 2, 6).all()
    assert bitops.tables_from_ids([3 ** 27 - 1], 3, 3).min() == 2


def test_restrictions_refuses_what_is_not_row_keys():
    # a caller still handing over (N, k^n) uint8 tables, and raw k = 3 ids,
    # which are not keys (a ternary key packs 2 bits per cell): both are
    # refused by name of the key dtype, before the budget or any allocation
    stale = [(np.zeros((2, 3 ** 9), np.uint8), 9),
             (bitops.tables_from_ids(np.arange(10), 3, 2), 2),
             (np.arange(10), 2), (np.arange(10, dtype=np.uint64), 2)]
    for keys, n in stale:
        dtype = "V19683" if n == 9 else "uint32"
        with pytest.raises(ValueError, match=f"as dtype.'{dtype}'"):
            bitops.restrictions(keys, 3, n, range(n))


def test_lattice_budget_refuses_before_allocating():
    # 4^9 rows of 3^9 cells per function, about 5 GB each
    tables = np.zeros((2, 3 ** 9), np.uint8)
    with pytest.raises(MemoryError, match="budget"):
        bitops.restrictions(bitops.row_keys(tables, 3), 3, 9, range(9))


def test_packed_lattice_budget_counts_cells():
    # P_2^6 tables are one word each, yet the budget still counts
    # functions x 3^6 rows x 64 cells, so both builds refuse the same inputs
    fits = bitops.LATTICE_CELLS // (3 ** 6 * 64)
    lattice = bitops.restrictions(
        bitops.row_keys(np.zeros((fits, 64), np.uint8), 2), 2, 6, range(6))
    assert lattice.keys.shape == (3 ** 6, fits)
    with pytest.raises(MemoryError, match="budget"):
        bitops.restrictions(
            bitops.row_keys(np.zeros((fits + 1, 64), np.uint8), 2), 2, 6,
            range(6))


def test_lattice_row_zero_is_the_function():
    f = KFunction(3, 2, [0, 1, 2, 1, 1, 1, 2, 1, 0])
    lattice = bitops.function_lattice(f)
    rows = bitops.key_rows(lattice.keys, 3, 9)
    assert bytes(rows[0, 0]) == f.values
    assert lattice.masks[0, 0] == mask_of(f.essential_set())
    assert rows.shape == (16, 1, 9)
    # a batch, on both builds: row 0 is the input keys, and the masks take
    # the least dtype holding the highest varied variable's bit
    for k, n, variables in [(2, 4, range(4)), (3, 2, (1,)), (2, 10, (0, 9)),
                            (3, 4, (2, 0))]:
        keys = bitops.row_keys(np.array(
            [np.frombuffer(g.values, np.uint8) for g in functions(k, n, 12)]),
            k)
        lattice = bitops.restrictions(keys, k, n, variables)
        assert np.array_equal(lattice.keys[0], keys)
        assert lattice.masks.dtype == np.min_scalar_type(1 << max(variables))


def test_single_function_lattice_varies_essential_variables_only():
    # 3^12 rows of 4096 cells would need gigabytes; 3^3 rows suffice
    f = parse("x1*x2 + x3", 2, arity=12)
    small = parse("x1*x2 + x3", 2)
    keys = bitops.function_lattice(f).keys
    assert bitops.key_rows(keys, 2, 4096).shape == (27, 1, 4096)
    assert sub_vector(f) == sub_vector(small) + (0,) * 9
    assert sep_vector(f) == sep_vector(small) + (0,) * 9
    assert separable_sets(f) == separable_sets(small)
    assert imp_count(f) == imp_count(small) == 32
    assert len(subfunctions(f)) == len(subfunctions(small)) == 13


def test_masks_hold_variables_past_the_eighth():
    # x9 and x10 are mask bits 8 and 9, past a byte
    f = parse("x1*x9 + x10", 2, arity=10)
    small = parse("x1*x2 + x3", 2)
    lattice = bitops.function_lattice(f)
    assert lattice.variables == (0, 8, 9)
    assert np.array_equal(lattice.masks,
                          gathered_masks(lattice.keys, 2, lattice.variables))
    rename = {1: 1, 2: 9, 3: 10}
    assert separable_sets(f) == {frozenset(rename[i] for i in s)
                                 for s in separable_sets(small)}


# tables of at most 64 bits pack into the narrowest unsigned word at 1, 2, 4
# or 8 bits per cell; wider ones are their bytes reversed
KEY_DTYPES = {(2, 2): "u1", (2, 3): "u1", (2, 6): "u8", (3, 2): "u4",
              (3, 3): "u8", (4, 2): "u4", (16, 1): "u8", (2, 7): "V128",
              (5, 2): "V25"}


@pytest.mark.parametrize("k, n", KEY_DTYPES)
def test_row_keys_sort_like_ids(k, n):
    rng = random.Random(10 * k + n)
    fs = [KFunction(k, n, bytes(rng.randrange(k) for _ in range(k ** n)))
          for _ in range(48)]
    fs += [KFunction.constant(k, n, 0), KFunction.constant(k, n, k - 1)]
    fs += fs[:8]  # equal tables need equal keys
    tables = np.array([np.frombuffer(f.values, np.uint8) for f in fs])
    keys = bitops.row_keys(tables, k)
    assert keys.dtype == np.dtype(KEY_DTYPES[k, n])
    assert np.array_equal(bitops.key_rows(keys, k, k ** n), tables)
    ids = [f.id for f in fs]
    by_key = np.argsort(keys, kind="stable").tolist()
    assert by_key == sorted(range(len(fs)), key=ids.__getitem__)
    assert [keys[i] == keys[j] for i in range(len(fs)) for j in range(8)] == \
        [ids[i] == ids[j] for i in range(len(fs)) for j in range(8)]
    if keys.dtype.kind == "u":  # a word space: its ids become keys directly
        ids += [0, k ** k ** n - 1]
        want = bitops.row_keys(bitops.tables_from_ids(ids, k, n), k)
        got = bitops.keys_from_ids(ids, k, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
