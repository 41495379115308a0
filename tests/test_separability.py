import itertools
import random

import pytest

from fnclass.kfun import KFunction
from fnclass.separability import (distributive_sets, is_separable,
                                  minimal_transversals, s_systems, sep_vector,
                                  separable_sets, sub_vector,
                                  subfunction_chain, subfunctions)
from fnclass.spform import parse


def F():
    return parse("x1*x2 + x1*x3", 2)


def G():
    return parse("x1*x2 + x1^0*x3", 2)


def seeded(k, n, count, seed):
    rng = random.Random(seed)
    return [KFunction.from_id(rng.randrange(k ** k ** n), k, n)
            for _ in range(count)]


def every_m(f):
    ess = sorted(f.essential_set())
    return [frozenset(m) for r in range(1, len(ess) + 1)
            for m in itertools.combinations(ess, r)]


def blocking_oracle(m, f):
    """Dis(M, f) from the definition: the J in Ess(f) \\ M such that every
    assignment of J, applied with KFunction.restrict, leaves some member of
    M inessential, minimal under inclusion."""
    mset = frozenset(m)
    pool = sorted(f.essential_set() - mset)
    blocking = [frozenset(j) for size in range(1, len(pool) + 1)
                for j in itertools.combinations(pool, size)
                if not any(mset <= f.restrict(dict(zip(j, consts))).essential_set()
                           for consts in itertools.product(range(f.k), repeat=size))]
    return frozenset(j for j in blocking if not any(o < j for o in blocking))


# the eleven subfunctions of g and the thirteen of f, as expressions
SUB_G = ("0", "1", "x1", "x2", "x3", "x1^0", "x1*x2", "x1^0*x3",
         "x1 + x1^0*x3", "x1*x2 + x1^0", "x1*x2 + x1^0*x3")
SUB_F = ("0", "1", "x1", "x2", "x3", "x2^0", "x3^0", "x2 + x3", "x1*x2",
         "x1*x2^0", "x1*x3", "x1*x3^0", "x1*x2 + x1*x3")


class TestSubfunctions:
    def test_f_has_thirteen(self):
        subs = subfunctions(F())
        assert len(subs) == 13
        assert subs == {parse(e, 2, arity=3) for e in SUB_F}

    def test_g_has_eleven(self):
        subs = subfunctions(G())
        assert len(subs) == 11
        assert subs == {parse(e, 2, arity=3) for e in SUB_G}

    def test_constant(self):
        c = KFunction.constant(2, 2, 1)
        assert subfunctions(c) == {c}

    def test_ternary(self):
        f = KFunction(3, 1, [2, 0, 1])
        assert subfunctions(f) == {f, KFunction.constant(3, 1, 2),
                                   KFunction.constant(3, 1, 0),
                                   KFunction.constant(3, 1, 1)}


class TestSubVector:
    def test_f_partition_by_arity(self):
        # derived by splitting the 13 subfunctions of f by essential count:
        # {0,1} / {x1,x2,x3,x2^0,x3^0} / {x2+x3, x1x2, x1x2^0, x1x3, x1x3^0} / {f}
        assert sub_vector(F()) == (2, 5, 5, 1)

    def test_non_refinement_witness_vectors(self):
        f = parse("x1^0*x2*x3 + x1*x2^0*x3^0", 2)
        g = parse("x2*x3 + x1*x2^0*x3 + x1*x2*x3^0", 2)
        assert sub_vector(f)[1] == 6
        assert sub_vector(g)[1] == 3
        assert sum(sub_vector(f)) == 15
        assert sum(sub_vector(g)) == 12

    def test_totals(self):
        assert sum(sub_vector(F())) == 13
        assert sum(sub_vector(G())) == 11


class TestSeparableSets:
    def test_g_six_sets(self):
        assert separable_sets(G()) == {
            frozenset({1}), frozenset({2}), frozenset({3}),
            frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 2, 3})}

    def test_f_all_seven(self):
        expected = {frozenset(s) for r in range(1, 4)
                    for s in itertools.combinations((1, 2, 3), r)}
        assert separable_sets(F()) == expected

    def test_constant_none(self):
        assert separable_sets(KFunction.constant(2, 3, 0)) == set()

    def test_vectors(self):
        assert sep_vector(G()) == (3, 2, 1)
        assert sep_vector(F()) == (3, 3, 1)

    def test_vector_sums(self):
        assert sum(sep_vector(G())) == 6
        assert sum(sep_vector(F())) == 7


class TestIsSeparable:
    def test_pair_inseparable_in_g(self):
        assert not is_separable(G(), {2, 3})

    def test_pairs_separable_in_f(self):
        for pair in ({1, 2}, {1, 3}, {2, 3}):
            assert is_separable(F(), pair)

    def test_singletons_of_essential(self):
        for f in (F(), G()):
            for i in f.essential_set():
                assert is_separable(f, {i})

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            is_separable(F(), set())

    def test_non_essential_rejected(self):
        padded = parse("x1*x2", 2, arity=3)
        with pytest.raises(ValueError):
            is_separable(padded, {3})

    def test_agrees_with_subfunction_route_exhaustively(self):
        for ident in range(256):
            f = KFunction.from_id(ident, 2, 3)
            seps = separable_sets(f)
            ess = sorted(f.essential_set())
            for r in range(1, len(ess) + 1):
                for m in itertools.combinations(ess, r):
                    assert is_separable(f, m) == (frozenset(m) in seps)


class TestDistributiveSets:
    def test_worked_example(self):
        assert distributive_sets({2, 3}, G()) == {frozenset({1})}

    def test_empty_for_separable_set(self):
        assert distributive_sets({2, 3}, F()) == frozenset()

    def test_matches_blocking_oracle_exhaustive_n3(self):
        for ident in range(256):
            f = KFunction.from_id(ident, 2, 3)
            for m in every_m(f):
                assert distributive_sets(m, f) == blocking_oracle(m, f)

    def test_matches_blocking_oracle_cf53(self):
        f = KFunction.from_hex("cf53", 4)
        for m in every_m(f):
            assert distributive_sets(m, f) == blocking_oracle(m, f)
        assert distributive_sets({1, 2}, f) == {frozenset({3, 4})}

    @pytest.mark.parametrize("k,n,count", [(2, 5, 40), (3, 2, 60), (3, 3, 25)])
    def test_matches_blocking_oracle_samples(self, k, n, count):
        for f in seeded(k, n, count, seed=10 * k + n):
            for m in every_m(f):
                assert distributive_sets(m, f) == blocking_oracle(m, f)

    def test_matches_blocking_oracle_inessential_variables(self):
        # the lattice varies only Ess(f); the oracle fixes any variable.
        # In the last two, {1} blocks {2, 3} and so does its superset {1, 4}.
        for f in (parse("x1*x2 + x3", 2, arity=5),
                  parse("x2*x4 + x2^0*x5", 2, arity=6),
                  parse("x1*x3 + x2^0*x4", 3, arity=5),
                  parse("x1*x2 + x1^0*x3 + x4", 2, arity=5),
                  parse("x1^0*x2 + x1^1*x3 + x4", 3, arity=5)):
            assert f.ess() < f.n
            for m in every_m(f):
                assert distributive_sets(m, f) == blocking_oracle(m, f)

    def test_nonempty_iff_inseparable(self):
        for ident in range(256):
            f = KFunction.from_id(ident, 2, 3)
            ess = sorted(f.essential_set())
            for r in range(1, len(ess)):
                for m in itertools.combinations(ess, r):
                    dis = distributive_sets(m, f)
                    assert bool(dis) == (not is_separable(f, m))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            distributive_sets(set(), G())
        with pytest.raises(ValueError):
            distributive_sets({4}, G())


class TestSSystems:
    def test_single_singleton(self):
        assert s_systems([{1}]) == {frozenset({1})}

    def test_two_overlapping_pairs(self):
        # exhaustive check of the definition gives exactly {2} and {1, 3}
        assert s_systems([{1, 2}, {2, 3}]) == {frozenset({2}),
                                               frozenset({1, 3})}

    def test_existence_for_random_families(self):
        import random
        rng = random.Random(7)
        for _ in range(300):
            fam = [frozenset(rng.sample(range(1, 8), rng.randint(1, 4)))
                   for _ in range(rng.randint(1, 5))]
            assert s_systems(fam)

    def test_equals_minimal_transversals(self):
        import random
        rng = random.Random(8)
        for _ in range(300):
            fam = [frozenset(rng.sample(range(1, 8), rng.randint(1, 4)))
                   for _ in range(rng.randint(1, 5))]
            assert s_systems(fam) == minimal_transversals(fam)

    def test_empty_member_rejected(self):
        with pytest.raises(ValueError):
            s_systems([set()])


class TestSubfunctionChain:
    def test_from_projection(self):
        f = F()
        x1 = parse("x1", 2, arity=3)
        chain = subfunction_chain(f, x1)
        assert chain[0] == x1 and chain[-1] == f
        assert [h.ess() for h in chain] == [1, 2, 3]
        for lo, hi in zip(chain, chain[1:]):
            assert lo in subfunctions(hi)

    def test_reflexive(self):
        assert subfunction_chain(F(), F()) == [F()]

    def test_from_constant(self):
        chain = subfunction_chain(G(), KFunction.constant(2, 3, 0))
        assert [h.ess() for h in chain] == [0, 1, 2, 3]

    def test_not_a_subfunction(self):
        parity = parse("x1 + x2 + x3", 2)
        with pytest.raises(ValueError):
            subfunction_chain(F(), parity)

    def test_every_link_is_single_fix(self):
        f = G()
        for g in subfunctions(f):
            chain = subfunction_chain(f, g)
            for lo, hi in zip(chain, chain[1:]):
                assert hi.ess() == lo.ess() + 1
                fixes = [(i, c) for i in hi.essential_set() for c in range(2)
                         if hi.cofactor(i, c) == lo]
                assert fixes

    @pytest.mark.parametrize("f", [
        *seeded(3, 2, 15, seed=32), *seeded(3, 3, 4, seed=33),
        parse("x1*x2 + x3", 2, arity=5), parse("x1*x3 + x2^0*x4", 3, arity=5)],
        ids=lambda f: f"{f.k}-{f.n}-{f.table_text()[:12]}")
    def test_every_link_fixes_one_essential_variable(self, f):
        for g in subfunctions(f):
            chain = subfunction_chain(f, g)
            assert chain[0] == g and chain[-1] == f
            for lo, hi in zip(chain, chain[1:]):
                ess = hi.essential_set()
                assert any(hi.cofactor(i, c) == lo
                           and lo.essential_set() == ess - {i}
                           for i in ess for c in range(f.k))

    def test_constant_is_its_own_chain(self):
        for c in KFunction.constant(2, 3, 1), KFunction.constant(3, 2, 2):
            assert subfunction_chain(c, c) == [c]

    def test_not_a_subfunction_ternary(self):
        f = parse("x1*x2", 3)
        with pytest.raises(ValueError, match="not a subfunction"):
            subfunction_chain(f, parse("x1 + x2", 3))
        with pytest.raises(ValueError, match="same space"):
            subfunction_chain(f, parse("x1*x2", 3, arity=3))


class TestHereditaryInseparability:
    def test_exhaustive_n3(self):
        for ident in range(256):
            f = KFunction.from_id(ident, 2, 3)
            seps = separable_sets(f)
            ess = sorted(f.essential_set())
            insep = [frozenset(m) for r in range(2, len(ess))
                     for m in itertools.combinations(ess, r)
                     if frozenset(m) not in seps]
            if not insep:
                continue
            for g in subfunctions(f):
                g_seps = separable_sets(g)
                for m in insep:
                    assert m not in g_seps
