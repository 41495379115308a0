import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnclass.kfun import KFunction, from_values

# the worked pair used across the suite, tables fixed by hand from the
# defining expressions (index = a1 + 2*a2 + 4*a3)
F_TABLE = [0, 0, 0, 1, 0, 1, 0, 0]   # x1*x2 + x1*x3
G_TABLE = [0, 0, 0, 1, 1, 0, 1, 1]   # x1*x2 + x1^0*x3
XOR23_TABLE = [0, 0, 1, 1, 1, 1, 0, 0]  # x2 + x3


def f_example():
    return KFunction(2, 3, F_TABLE)


def g_example():
    return KFunction(2, 3, G_TABLE)


class TestConstruction:
    def test_zero_ary_constant(self):
        f = from_values(2, 0, [1])
        assert f.eval(()) == 1
        assert f.ess() == 0

    def test_example_table(self):
        assert f_example().values == bytes(F_TABLE)

    def test_ternary_unary(self):
        f = from_values(3, 1, [2, 0, 1])
        assert [f.eval((a,)) for a in range(3)] == [2, 0, 1]
        assert f.range_of() == {0, 1, 2}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            from_values(2, 2, [0, 1, 0])

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_values(2, 1, [0, 2])

    def test_bad_radix(self):
        with pytest.raises(ValueError):
            KFunction(1, 1, [0])

    def test_radix_above_a_byte(self):
        # cells are bytes: 256 is the largest radix a table holds
        assert KFunction(256, 1, range(256)).values[255] == 255
        with pytest.raises(ValueError, match="table cells are bytes"):
            KFunction(300, 1, [0] * 300)


class TestEval:
    def test_f_point(self):
        assert f_example().eval((1, 0, 1)) == 1

    def test_g_point(self):
        assert g_example().eval((0, 1, 1)) == 1

    def test_constant(self):
        zero = KFunction.constant(2, 3, 0)
        assert all(zero.eval(p) == 0 for p in [(0, 0, 0), (1, 1, 1), (1, 0, 1)])

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            f_example().eval((0, 1))

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            f_example().eval((0, 1, 2))


class TestCofactor:
    def test_fixing_head_to_zero_gives_constant(self):
        assert f_example().cofactor(1, 0) == KFunction.constant(2, 3, 0)

    def test_fixing_head_to_one_gives_xor(self):
        assert f_example().cofactor(1, 1) == KFunction(2, 3, XOR23_TABLE)

    def test_constant_unchanged(self):
        one = KFunction.constant(2, 3, 1)
        assert one.cofactor(1, 0) == one

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            f_example().cofactor(4, 0)

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            f_example().cofactor(1, 2)

    def test_ternary_cofactor(self):
        # f(x1, x2) = x1 + x2 mod 3; fixing x2 = 1 shifts by one
        f = KFunction(3, 2, [(a + b) % 3 for b in range(3) for a in range(3)])
        g = f.cofactor(2, 1)
        assert [g.eval((a, 0)) for a in range(3)] == [1, 2, 0]
        assert not g.is_essential(2)


class TestEssential:
    def test_g_depends_on_all(self):
        assert g_example().essential_set() == {1, 2, 3}

    def test_constant_has_none(self):
        assert KFunction.constant(2, 1, 0).essential_set() == frozenset()

    def test_padded_variable_inessential(self):
        padded = KFunction(2, 4, F_TABLE + F_TABLE)
        assert not padded.is_essential(4)
        assert padded.essential_set() == {1, 2, 3}

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            f_example().is_essential(0)


class TestStronglyEssential:
    def test_example_by_brute_force(self):
        # oracle: scan every (i, c) directly against the definition
        f = f_example()
        expected = set()
        for i in f.essential_set():
            for c in range(2):
                if f.cofactor(i, c).essential_set() == f.essential_set() - {i}:
                    expected.add(i)
                    break
        assert f.strongly_essential_set() == expected
        assert 1 in f.strongly_essential_set()  # Ess(f(x1=1)) = {2, 3}

    def test_single_essential_variable(self):
        x1 = KFunction(2, 2, [0, 1, 0, 1])
        assert x1.strongly_essential_set() == {1}


class TestStronglyEssentialExistence:
    def test_exhaustive_up_to_four_variables(self):
        for n in range(5):
            for ident in range(2 ** (2 ** n)):
                f = KFunction.from_id(ident, 2, n)
                strong = f.strongly_essential_set()
                m = f.ess()
                if m >= 1:
                    assert strong
                if m >= 2:
                    assert len(strong) >= 2

    def test_sampled_five_variables(self):
        import random
        rng = random.Random(13)
        for _ in range(2000):
            f = KFunction.from_id(rng.getrandbits(32), 2, 5)
            strong = f.strongly_essential_set()
            if f.ess() >= 2:
                assert len(strong) >= 2


class TestRange:
    def test_constant(self):
        assert KFunction.constant(2, 2, 1).range_of() == {1}

    def test_xor(self):
        assert KFunction(2, 2, [0, 1, 1, 0]).range_of() == {0, 1}


class TestSerialization:
    def test_g_hex(self):
        assert g_example().to_hex() == "d8"

    def test_hex_round_trip(self):
        assert KFunction.from_hex("d8", 3) == g_example()

    def test_digits_round_trip(self):
        f = from_values(3, 1, [2, 0, 1])
        assert f.to_digits() == "2,0,1"
        assert KFunction.from_digits("2,0,1", 3, 1) == f

    def test_id_round_trip(self):
        f = g_example()
        assert KFunction.from_id(f.id, 2, 3) == f
        assert f.id == 0xD8

    def test_hex_too_wide(self):
        with pytest.raises(ValueError):
            KFunction.from_hex("1ff", 3)


def _points(k, n):
    """Every point of Z_k^n, x1 varying fastest (the table order)."""
    return [p[::-1] for p in itertools.product(range(k), repeat=n)]


def _oracle_tables(k, n, seed):
    """Random tables of P_k^n, and tables that ignore some variables."""
    rng = random.Random(seed)
    for _ in range(3):
        yield KFunction(k, n, [rng.randrange(k) for _ in range(k ** n)])
    for dropped in range(1, n + 1):
        keep = sorted(rng.sample(range(n), n - dropped))
        inner = KFunction(k, len(keep),
                          [rng.randrange(k) for _ in range(k ** len(keep))])
        yield KFunction(k, n, [inner.eval([p[j] for j in keep])
                               for p in _points(k, n)])


@pytest.mark.parametrize("k, n", [(k, n) for k in (2, 3, 4, 5)
                                  for n in range(4)] + [(2, 6), (2, 7)])
def test_pointwise_oracle(k, n):
    # only eval is trusted: f(x_i := c) at p is f at p with p_i replaced
    points = _points(k, n)
    for f in _oracle_tables(k, n, seed=10 * k + n):
        for i in range(1, n + 1):
            moved = False
            for c in range(k):
                fc = f.cofactor(i, c)
                for p in points:
                    q = p[:i - 1] + (c,) + p[i:]
                    assert fc.eval(p) == f.eval(q)
                    moved = moved or f.eval(p) != f.eval(q)
            assert f.is_essential(i) == moved
            assert (i in f.essential_set()) == moved


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 255), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 1), st.integers(0, 1))
def test_cofactor_laws(word, i, j, c, d):
    f = KFunction.from_id(word, 2, 3)
    fc = f.cofactor(i, c)
    assert fc.cofactor(i, c) == fc
    assert not fc.is_essential(i)
    assert fc.essential_set() <= f.essential_set() - {i}
    if i != j:
        assert f.cofactor(i, c).cofactor(j, d) == f.cofactor(j, d).cofactor(i, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2), st.data())
def test_eval_matches_table_order(k, n, data):
    size = k ** n
    vals = data.draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    f = KFunction(k, n, vals)
    idx = 0
    weight = 1
    point = data.draw(st.tuples(*[st.integers(0, k - 1)] * n))
    for a in point:
        idx += a * weight
        weight *= k
    assert f.eval(point) == vals[idx]
