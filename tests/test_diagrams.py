import itertools

import pytest

from fnclass import diagrams as dg
from fnclass.diagrams import Implementation
from fnclass.kfun import KFunction
from fnclass.separability import separable_sets
from fnclass.spform import parse


def F():
    return parse("x1*x2 + x1*x3", 2)


def G():
    return parse("x1*x2 + x1^0*x3", 2)


def imp(vars_word: str, consts_word: str) -> Implementation:
    return Implementation(tuple(int(ch) for ch in vars_word),
                          tuple(int(ch) for ch in consts_word[:-1]),
                          int(consts_word[-1]))


# implementation sets of the worked pair under both tabulated orderings
IMPS_F_123 = {imp("1", "00"), imp("123", "1000"), imp("123", "1011"),
              imp("123", "1101"), imp("123", "1110")}
IMPS_F_213 = {imp("21", "000"), imp("213", "0100"), imp("213", "0111"),
              imp("21", "100"), imp("213", "1101"), imp("213", "1110")}
IMPS_G_123 = {imp("13", "000"), imp("13", "011"), imp("12", "100"),
              imp("12", "111")}
IMPS_G_213 = {imp("21", "010"), imp("213", "0000"), imp("213", "0011"),
              imp("213", "1000"), imp("213", "1011"), imp("21", "111")}


def odt_oracle(f: KFunction, order) -> dg.OrderedDiagram:
    """The decomposition tree built point by point: one recursion step per
    node, one `eval` per leaf."""
    nodes = []
    point = [0] * f.n

    def rec(level: int) -> int:
        if level == len(order):
            nodes.append(("T", f.eval(point)))
            return len(nodes) - 1
        var = order[level]
        children = []
        for c in range(f.k):
            point[var - 1] = c
            children.append(rec(level + 1))
        point[var - 1] = 0
        nodes.append(("N", var, tuple(children)))
        return len(nodes) - 1

    root = rec(0)
    return dg.OrderedDiagram(f.k, f.n, order, nodes, root, reduced=False)


def reduce_oracle(d: dg.OrderedDiagram,
                  remove_rule: bool = True) -> dg.OrderedDiagram:
    """Merge and remove rules in one bottom-up pass over a dict remap."""
    nodes: list = []
    remap: dict[int, int] = {}
    cache: dict = {}
    for old, nd in enumerate(d.nodes):
        if nd[0] == "T":
            key = nd
        else:
            children = tuple(remap[c] for c in nd[2])
            if remove_rule and len(set(children)) == 1:
                remap[old] = children[0]
                continue
            key = ("N", nd[1], children)
        if key not in cache:
            nodes.append(key)
            cache[key] = len(nodes) - 1
        remap[old] = cache[key]
    return dg.OrderedDiagram(d.k, d.n, d.ordering, nodes, remap[d.root],
                             reduced=True)


def oracle_cases():
    """Seeded functions, each with three random orderings of {1..n} and up
    to six of Ess(f); a third of them have x1 and x_n made inessential."""
    import random
    rng = random.Random(13)
    for k, top in ((2, 5), (3, 3)):
        for n in range(top + 1):
            for trial in range(12):
                f = KFunction(k, n, [rng.randrange(k) for _ in range(k ** n)])
                if n and trial % 3 == 0:
                    f = f.cofactor(1, rng.randrange(k)).cofactor(n, 0)
                ess = sorted(f.essential_set())
                orders = [tuple(rng.sample(range(1, n + 1), n))
                          for _ in range(3)]
                orders += list(itertools.islice(itertools.permutations(ess), 6))
                yield f, orders


class TestAgainstPointwiseOracles:
    def test_build_odt_matches_recursion(self):
        for f, orders in oracle_cases():
            for order in orders:
                assert dg.build_odt(f, order).canonical_key() == \
                    odt_oracle(f, order).canonical_key()

    @pytest.mark.parametrize("remove_rule", [True, False])
    def test_reduce_matches_dict_remap(self, remove_rule):
        for f, orders in oracle_cases():
            for order in orders:
                tree = odt_oracle(f, order)
                got = dg.reduce(dg.build_odt(f, order),
                                _remove_rule=remove_rule)
                assert got.reduced
                assert got.canonical_key() == \
                    reduce_oracle(tree, remove_rule).canonical_key()

    def test_orderings_of_essential_variables_only(self):
        # x2 inessential: a tree over (3, 1) alone reads x2 = 0 and reduces
        # to the diagram of the full ordering (3, 2, 1)
        f = parse("x1*x3 + 2*x3^2", 3, arity=3)
        short = dg.build_odt(f, (3, 1))
        assert short.node_count() == 13
        assert short.canonical_key() == odt_oracle(f, (3, 1)).canonical_key()
        assert dg.reduce(short).nodes == \
            dg.reduce(dg.build_odt(f, (3, 2, 1))).nodes


class TestBuildOdt:
    def test_g_leaves_in_path_order(self):
        d = dg.build_odt(G(), (1, 2, 3))
        leaves = [node[1] for node in d.nodes if node[0] == "T"]
        # post-order leaf sequence: x1 fixed first, x3 varying fastest
        assert leaves == [0, 1, 0, 1, 0, 0, 1, 1]
        assert d.terminal_count() == 8
        assert not d.reduced

    def test_zero_ary_constant(self):
        d = dg.build_odt(KFunction.constant(2, 0, 0), ())
        assert d.nodes == (("T", 0),)

    def test_ternary_projection(self):
        d = dg.build_odt(KFunction(3, 1, [0, 1, 2]), (1,))
        assert d.internal_count() == 1
        assert d.terminal_count() == 3

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            dg.build_odt(G(), (1, 1, 2))
        with pytest.raises(ValueError):
            dg.build_odt(G(), (1, 2, 4))

    def test_rejects_ordering_missing_essential(self):
        with pytest.raises(ValueError, match="essential"):
            dg.build_odt(G(), (1, 2))


class TestReduce:
    def test_g_diagram_shape(self):
        d = dg.reduce(dg.build_odt(G(), (1, 2, 3)))
        assert d.internal_count() == 3
        assert d.terminal_count() == 2
        assert dg.path_count(d) == 4

    def test_f_diagram_shape(self):
        d = dg.reduce(dg.build_odt(F(), (1, 2, 3)))
        assert d.internal_count() == 4
        assert dg.path_count(d) == 5

    def test_constant_reduces_to_terminal(self):
        d = dg.reduce(dg.build_odt(KFunction.constant(2, 3, 1), (1, 2, 3)))
        assert d.nodes == (("T", 1),)

    def test_idempotent_and_canonical(self):
        for ident in (0x28, 0xD8, 0x1B, 0x96):
            f = KFunction.from_id(ident, 2, 3)
            d1 = dg.reduce(dg.build_odt(f, (3, 1, 2)))
            d2 = dg.reduce(dg.build_odt(f, (3, 1, 2)))
            assert d1.canonical_key() == d2.canonical_key()
            assert dg.reduce(d1).canonical_key() == d1.canonical_key()

    def test_path_evaluation_matches_function(self):
        for ident in range(0, 256, 7):
            f = KFunction.from_id(ident, 2, 3)
            d = dg.reduce(dg.build_odt(f, (2, 3, 1)))
            for point in itertools.product(range(2), repeat=3):
                assert d.eval(point) == f.eval(point)

    def test_labels_equal_essential_set(self):
        padded = parse("x1 + x2", 2, arity=3)
        d = dg.reduce(dg.build_odt(padded, (1, 2, 3)))
        assert dg.diagram_labels(d) == {1, 2}

    def test_labels_require_reduced(self):
        with pytest.raises(ValueError):
            dg.diagram_labels(dg.build_odt(G(), (1, 2, 3)))


class TestImplementations:
    def test_g_under_both_orderings(self):
        assert dg.implementations_of(
            dg.reduce(dg.build_odt(G(), (1, 2, 3)))) == IMPS_G_123
        assert dg.implementations_of(
            dg.reduce(dg.build_odt(G(), (2, 1, 3)))) == IMPS_G_213

    def test_f_under_both_orderings(self):
        assert dg.implementations_of(
            dg.reduce(dg.build_odt(F(), (1, 2, 3)))) == IMPS_F_123
        assert dg.implementations_of(
            dg.reduce(dg.build_odt(F(), (2, 1, 3)))) == IMPS_F_213

    def test_constant_single_empty_path(self):
        d = dg.reduce(dg.build_odt(KFunction.constant(2, 2, 1), (1, 2)))
        assert dg.implementations_of(d) == {Implementation((), (), 1)}

    def test_union_sizes(self):
        assert len(dg.implementations(F())) == 33
        assert len(dg.implementations(G())) == 28
        assert len(dg.implementations(parse("x1 + x2", 2))) == 8

    def test_duplicate_collapses_across_orderings(self):
        # the short path of f appears under two orderings but counts once
        short = imp("1", "00")
        d123 = dg.implementations_of(dg.reduce(dg.build_odt(F(), (1, 2, 3))))
        d132 = dg.implementations_of(dg.reduce(dg.build_odt(F(), (1, 3, 2))))
        assert short in d123 and short in d132

    def test_g_identical_diagrams_for_tail_swap(self):
        # swapping the inseparable tail pair gives the same implementations
        a = dg.implementations_of(dg.reduce(dg.build_odt(G(), (1, 2, 3))))
        b = dg.implementations_of(dg.reduce(dg.build_odt(G(), (1, 3, 2))))
        assert a == b

    def test_words_are_paper_style_strings(self):
        i = imp("213", "0100")
        assert i.vars_word == "213"
        assert i.consts_word == "0100"
        assert i.to_json_dict() == {"vars": "213", "consts": "0100"}

    def test_requires_reduced(self):
        with pytest.raises(ValueError):
            dg.implementations_of(dg.build_odt(G(), (1, 2, 3)))

    def test_budget_guard(self):
        f = parse(" + ".join(f"x{i}" for i in range(1, 10)), 2)
        with pytest.raises(dg.DiagramBudgetError):
            dg.implementations(f, max_vars=8)


class TestImpCount:
    def test_worked_values(self):
        assert dg.imp_count(F()) == 33
        assert dg.imp_count(G()) == 28

    def test_triple_product_and_witness(self):
        assert dg.imp_count(parse("x1*x2*x3", 2)) == 21
        assert dg.imp_count(parse("x1*x2^0*x3^0 + x1", 2)) == 23

    def test_recursion_term_structure(self):
        # 33 = 1 + 8 + 6 + 6 + 6 + 6 over the essential cofactors of f
        f = F()
        terms = [dg.imp_count(f.cofactor(i, c))
                 for i in sorted(f.essential_set()) for c in range(2)]
        assert sorted(terms) == [1, 6, 6, 6, 6, 8]
        assert sum(terms) == 33

    def test_matches_enumeration_exhaustively_n3(self):
        for ident in range(256):
            f = KFunction.from_id(ident, 2, 3)
            assert dg.imp_count(f) == len(dg.implementations(f))

    def test_general_recursion_agrees_for_k2(self):
        for ident in range(0, 256, 3):
            f = KFunction.from_id(ident, 2, 3)
            assert dg.imp_count_recursive(f) == dg.imp_count(f)

    def test_general_recursion_matches_enumeration_for_k3(self):
        # against enumeration on all unary and sampled binary functions
        import random
        rng = random.Random(5)
        for ident in range(27):
            f = KFunction.from_id(ident, 3, 1)
            assert dg.imp_count_recursive(f) == len(dg.implementations(f))
        for _ in range(60):
            f = KFunction.from_id(rng.randrange(3 ** 9), 3, 2)
            assert dg.imp_count_recursive(f) == len(dg.implementations(f))
            assert dg.imp_count(f) == len(dg.implementations(f))


class TestDepth:
    def test_worked_values(self):
        assert dg.depth(dg.reduce(dg.build_odt(F(), (1, 2, 3)))) == 4
        assert dg.depth(dg.reduce(dg.build_odt(G(), (1, 2, 3)))) == 3

    def test_constant_depth_one(self):
        d = dg.reduce(dg.build_odt(KFunction.constant(2, 2, 0), (1, 2)))
        assert dg.depth(d) == 1

    def test_bound(self):
        for ident in range(0, 256, 5):
            f = KFunction.from_id(ident, 2, 3)
            for order in itertools.permutations(sorted(f.essential_set())):
                d = dg.reduce(dg.build_odt(f, order))
                assert dg.depth(d) <= f.ess() + 1


class TestDepthSearch:
    def test_full_depth_for_f(self):
        order = dg.find_full_depth_ordering(F())
        assert dg.depth(dg.reduce(dg.build_odt(F(), order))) == 4

    def test_full_depth_single_variable(self):
        x1 = parse("x1", 2)
        assert dg.find_full_depth_ordering(x1) == (1,)
        assert dg.depth(dg.reduce(dg.build_odt(x1, (1,)))) == 2

    def test_full_depth_for_g(self):
        order = dg.find_full_depth_ordering(G())
        assert dg.depth(dg.reduce(dg.build_odt(G(), order))) == 4

    @pytest.mark.parametrize("k,n,count", [(3, 3, 30), (2, 6, 30)])
    def test_full_depth_on_samples(self, k, n, count):
        import random
        rng = random.Random(100 * k + n)
        for _ in range(count):
            f = KFunction.from_id(rng.randrange(k ** k ** n), k, n)
            order = dg.find_full_depth_ordering(f)
            assert sorted(order) == sorted(f.essential_set())
            assert dg.depth(dg.reduce(dg.build_odt(f, order))) == f.ess() + 1

    def test_full_depth_rejects_constant(self):
        with pytest.raises(ValueError):
            dg.find_full_depth_ordering(KFunction.constant(2, 2, 0))

    def test_shallow_for_g(self):
        order = dg.find_shallow_ordering(G(), {2, 3})
        assert order[0] == 1
        assert dg.depth(dg.reduce(dg.build_odt(G(), order))) == 3

    def test_shallow_needs_whole_blocking_set_first(self):
        # only orderings leading with the full distributive pair go shallow
        f = KFunction.from_hex("cf53", 4)
        order = dg.find_shallow_ordering(f, {1, 2})
        assert set(order[:2]) == {3, 4}
        assert dg.depth(dg.reduce(dg.build_odt(f, order))) == 4

    def test_shallow_rejects_separable(self):
        with pytest.raises(ValueError):
            dg.find_shallow_ordering(F(), {2, 3})

    def test_shallow_exhaustive_small(self):
        for ident in range(256):
            f = KFunction.from_id(ident, 2, 3)
            ess = sorted(f.essential_set())
            seps = separable_sets(f)
            for r in range(2, len(ess)):
                for m in itertools.combinations(ess, r):
                    if frozenset(m) in seps:
                        continue
                    order = dg.find_shallow_ordering(f, m)
                    d = dg.reduce(dg.build_odt(f, order))
                    assert dg.depth(d) < len(ess) + 1


class TestSuffixCharacterization:
    def test_inseparable_suffix_exists_without_tail_restriction(self):
        # the unrestricted converse is false: this table has {2, 3}
        # inseparable yet an implementation word ending in (2, 3)
        f = KFunction.from_hex("1b", 3)
        assert frozenset({2, 3}) not in separable_sets(f)
        suffixes = {frozenset(i.vars[-m:])
                    for i in dg.implementations(f)
                    for m in range(1, len(i.vars) + 1)}
        assert frozenset({2, 3}) in suffixes

    def test_tail_restricted_suffixes_exactly_separable(self):
        for ident in range(256):
            f = KFunction.from_id(ident, 2, 3)
            ess = sorted(f.essential_set())
            got = set()
            for order in itertools.permutations(ess):
                d = dg.reduce(dg.build_odt(f, order))
                for i in dg.implementations_of(d):
                    for m in range(1, len(i.vars) + 1):
                        mset = frozenset(i.vars[-m:])
                        if mset == frozenset(order[-m:]):
                            got.add(mset)
            assert got == separable_sets(f)

    def test_every_essential_variable_ends_some_word(self):
        for f in (F(), G(), KFunction.from_hex("1b", 3)):
            lasts = {i.vars[-1] for i in dg.implementations(f) if i.vars}
            assert lasts == f.essential_set()


class TestDot:
    def test_g_structure(self):
        d = dg.reduce(dg.build_odt(G(), (1, 2, 3)))
        text = dg.to_dot(d, name="g")
        assert text.count("shape=circle") == 3
        assert text.count("shape=box") == 2
        assert "style=dashed" in text and "style=solid" in text

    def test_constant_single_box(self):
        d = dg.reduce(dg.build_odt(KFunction.constant(2, 1, 1), (1,)))
        assert dg.to_dot(d).count("shape=box") == 1

    def test_f_structure(self):
        d = dg.reduce(dg.build_odt(F(), (1, 2, 3)))
        assert dg.to_dot(d).count("shape=circle") == 4

    def test_k3_edges_labelled(self):
        d = dg.reduce(dg.build_odt(KFunction(3, 1, [0, 1, 2]), (1,)))
        text = dg.to_dot(d)
        assert 'label="2"' in text
