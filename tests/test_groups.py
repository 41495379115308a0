import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from fnclass import bitops, groups
from fnclass.groups import (GROUP_NAMES, GroupDescriptor, ID_TABLE,
                            OrbitBudgetError, Transformation, _BASE, _GROUPS,
                            _PARTS, _action, _expand, _id_action, _id_dtype,
                            _id_images, _is_prime, _maps,
                            _merged, _outer_sum, _part_action, _part_rounds,
                            _rounds,
                            _row_action,
                            _row_images, add_linear, affine,
                            arg_translate, canonical_form, count_orbits,
                            group_element, group_elements, group_generators,
                            identity, orbit_minima, orbit_partition,
                            output_image, output_map,
                            output_translate, var_perm, var_perm_value_maps)
from fnclass.diagrams import imp_count
from fnclass.kfun import KFunction
from fnclass.scan5 import _domain_maps, _orbit
from fnclass.separability import sub_vector
from fnclass.spform import parse


def big_endian_point_map(t, k, n):
    """Where each domain point flows, in the digit-string-as-numeral reading."""
    out = {}
    for idx, src in enumerate(t.domain_map):
        # t sends the function value at `src` to position `idx`, i.e. the
        # underlying point map sends point(idx) to point(src)
        def be(m):
            digits = []
            for _ in range(n):
                m, d = divmod(m, k)
                digits.append(d)
            return sum(d * k ** (n - 1 - i) for i, d in enumerate(digits))
        out[be(idx)] = be(src)
    return out


class TestActionExamples:
    def test_translate_cycle_ternary(self):
        t = arg_translate(3, 3, (2, 1, 0))
        pmap = big_endian_point_map(t, 3, 3)
        # following 0 -> 21 -> 15 -> 0 as base-3 numerals
        assert pmap[0] == 21
        assert pmap[21] == 15
        assert pmap[15] == 0

    def test_swap_cycle_ternary(self):
        t = var_perm(3, 3, (2, 1, 3))
        pmap = big_endian_point_map(t, 3, 3)
        for a, b in ((3, 9), (4, 10), (5, 11), (6, 18), (7, 19), (8, 20),
                     (15, 21), (16, 22), (17, 23)):
            assert pmap[a] == b
            assert pmap[b] == a

    def test_identity(self):
        f = parse("x1*x2 + x1^0*x3", 2)
        assert identity(2, 3).apply(f) == f

    def test_var_perm_moves_projection(self):
        x1 = parse("x1", 2, arity=2)
        x2 = parse("x2", 2, arity=2)
        swapped = var_perm(2, 2, (2, 1)).apply(x1)
        assert swapped == x2

    def test_output_translate(self):
        f = parse("x1*x2", 2)
        g = output_translate(2, 2, 1).apply(f)
        assert g == parse("x1*x2 + 1", 2)

    def test_add_linear(self):
        f = parse("x1*x2", 2)
        g = add_linear(2, 2, (1, 0)).apply(f)
        assert g == parse("x1*x2 + x1", 2)

    def test_affine_requires_nonsingular(self):
        for k, mat in [
            (2, [[1, 1], [1, 1]]),
            (3, [[1, 2], [2, 1]]),                   # det 1 - 4 = 0 mod 3
            (5, [[2, 4], [1, 2]]),                   # first row twice the second
            (2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]]),  # row 3 = row 1 + row 2
            (3, [[1, 2, 0], [0, 1, 1], [1, 1, 2]]),  # row 3 = row 1 + 2 row 2
        ]:
            n = len(mat)
            with pytest.raises(ValueError, match="singular"):
                affine(k, n, mat, (1,) * n, (0,) * n, 0)

    def test_linear_groups_require_prime_radix(self):
        with pytest.raises(ValueError, match="prime"):
            GroupDescriptor("lg", 4, 2)
        with pytest.raises(ValueError, match="prime"):
            affine(4, 2, [[1, 0], [0, 1]], (0, 0), (0, 0), 0)

    def test_value_maps_on_arguments(self):
        f = parse("x1^2", 3)  # indicator of x1 = 2
        t = var_perm_value_maps(3, 1, (1,), [(1, 2, 0)])
        g = t.apply(f)
        # x1 is remapped before evaluation, so the indicator moves
        assert g.values != f.values
        assert sorted(g.values) == sorted(f.values)


class TestComposition:
    def test_action_law_random(self):
        rng = random.Random(11)
        gens = group_generators(GroupDescriptor("rag", 2, 3))
        for _ in range(100):
            t1, t2 = rng.choice(gens), rng.choice(gens)
            f = KFunction.from_id(rng.randrange(256), 2, 3)
            assert (t1 @ t2).apply(f) == t1.apply(t2.apply(f))

    def test_identity_neutral(self):
        e = identity(2, 2)
        t = var_perm(2, 2, (2, 1))
        assert (e @ t) == t == (t @ e)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            var_perm(2, 2, (2, 1)).apply(parse("x1", 2, arity=3))
        with pytest.raises(ValueError):
            var_perm(2, 2, (2, 1)) @ var_perm(2, 3, (1, 2, 3))


def assert_element_by_index(gd):
    """`group_element` builds `group_elements`' list, index by index, and
    refuses the indices outside it."""
    elements = list(group_elements(gd))
    assert [group_element(gd, i) for i in range(len(elements))] == elements
    for index in (len(elements), -1):
        with pytest.raises(ValueError, match="no element"):
            group_element(gd, index)


class TestEnumeration:
    @pytest.mark.parametrize("name,k,n,order", [
        ("s", 2, 3, 6), ("ca", 2, 3, 8), ("g", 2, 3, 48), ("ge", 2, 3, 96),
        ("cf", 2, 3, 2), ("lf", 2, 4, 16), ("lg", 2, 3, 168),
        ("a", 2, 2, 24), ("rag", 2, 2, 192), ("axa1", 2, 2, 48),
        ("fullsym", 2, 2, 16), ("fullsym", 3, 2, 432), ("ge", 3, 2, 54),
    ])
    def test_element_counts(self, name, k, n, order):
        gd = GroupDescriptor(name, k, n)
        elements = list(group_elements(gd))
        assert len(elements) == order == gd.order()
        assert len(set(elements)) == order  # no duplicates

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                     (3, 2)])
    def test_fullsym_element_by_index(self, k, n):
        # the index order `verify` samples fullsym in
        assert_element_by_index(GroupDescriptor("fullsym", k, n))

    @pytest.mark.parametrize("name,k,n", [
        (name, k, n) for k, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
        for name in GROUP_NAMES
        if name != "fullsym" and GroupDescriptor(name, k, n).order() <= 3000])
    def test_element_by_index(self, name, k, n):
        assert_element_by_index(GroupDescriptor(name, k, n))

    def test_affine_sends_points_by_its_formula(self):
        # f(x) = g(xA + c) + a^t x + d, point by point, without digit tables
        rng = random.Random(3)
        for k, n in [(2, 3), (3, 2), (5, 2)]:
            mat = [[0]]
            while not round(np.linalg.det(mat)) % k:  # nonsingular mod k
                mat = [[rng.randrange(k) for _ in range(n)] for _ in range(n)]
            c, a = [rng.randrange(k) for _ in range(n)], [1] * n
            t = affine(k, n, mat, c, a, 1)
            for x, point in enumerate(itertools.product(range(k), repeat=n)):
                point = point[::-1]  # x_1 is the least significant digit
                image = [(sum(point[i] * mat[i][j] for i in range(n)) + c[j])
                         % k for j in range(n)]
                assert t.domain_map[x] == sum(v * k ** j
                                              for j, v in enumerate(image))
                off = (sum(point) + 1) % k
                assert t.out_maps[x] == tuple((v + off) % k for v in range(k))

    def test_generators_generate(self):
        for (k, n), name in itertools.product(((2, 2), (3, 1)), GROUP_NAMES):
            gd = GroupDescriptor(name, k, n)
            gens = group_generators(gd)
            closure = {identity(k, n)}
            frontier = list(closure)
            while frontier:
                new = []
                for t in frontier:
                    for g in gens:
                        c = g @ t
                        if c not in closure:
                            closure.add(c)
                            new.append(c)
                frontier = new
            assert len(closure) == gd.order(), gd
            assert closure == set(group_elements(gd)), gd

    def test_generators_are_cached_copies(self):
        gd = GroupDescriptor("ge", 2, 3)
        first, second = group_generators(gd), group_generators(gd)
        assert all(a is b for a, b in zip(first, second))
        elements = [t for factor in _action(tuple, gd) for t in factor]
        assert first == second == elements
        first.clear()
        second.append(identity(2, 3))
        assert group_generators(gd) == elements

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            GroupDescriptor("npn", 2, 2)

    def test_radix_below_two(self):
        # at k = 1 `_id_action` would look for a chunk size forever
        with pytest.raises(ValueError, match="radix"):
            GroupDescriptor("g", 1, 0)


class TestCanonicalForm:
    def test_complement_in_genus_group(self):
        ge = GroupDescriptor("ge", 2, 2)
        assert canonical_form(parse("x1^0", 2, arity=2), ge) == \
            canonical_form(parse("x1", 2, arity=2), ge)

    def test_double_complement_in_cube_group(self):
        g = GroupDescriptor("g", 2, 2)
        assert canonical_form(parse("x1*x2", 2), g) == \
            canonical_form(parse("x1^0*x2^0", 2), g)

    def test_projection_not_affine_to_product(self):
        rag = GroupDescriptor("rag", 2, 2)
        assert canonical_form(parse("x1^0", 2, arity=2), rag) != \
            canonical_form(parse("x1*x2", 2), rag)

    def test_canonical_is_orbit_minimum(self):
        gd = GroupDescriptor("g", 2, 2)
        f = parse("x1 + x2^0", 2)
        cf = canonical_form(f, gd)
        orbit_ids = {t.apply(f).id for t in group_elements(gd)}
        assert cf.id == min(orbit_ids)

    def test_budget(self):
        with pytest.raises(OrbitBudgetError):
            canonical_form(parse("x1 + x2*x3", 2), GroupDescriptor("ge", 2, 3),
                           max_orbit=3)

    def test_budget_row_bfs(self):
        # P_3^4 has 3^81 functions, so its orbits take the row BFS; x4's
        # s-orbit is x1..x4, and x1 has the least id
        x4 = KFunction(3, 4, bytes([0] * 27 + [1] * 27 + [2] * 27))
        assert canonical_form(x4, GroupDescriptor("s", 3, 4), max_orbit=4) == \
            KFunction(3, 4, bytes(range(3)) * 27)
        with pytest.raises(OrbitBudgetError):
            canonical_form(x4, GroupDescriptor("s", 3, 4), max_orbit=3)

    def test_budget_id_fallback(self, monkeypatch):
        # parity on P_2^5 is symmetric and every translation by a unit
        # vector complements it, so its ge-orbit is {f, ~f}; from one key
        # the merged s (119 elements) and ca (31) factors exceed
        # max_orbit = 2, so all 10 factors run one at a time
        ge = GroupDescriptor("ge", 2, 5)
        parity = KFunction.from_word(0x96696996, 5)
        rounds = []

        def counted_images(ids, factor):
            rounds.append(len(factor[0]))
            return _id_images(ids, factor)

        monkeypatch.setattr(groups, "_id_images", counted_images)
        ids = np.array([parity.id], np.intp)
        assert _expand(ids, groups._id_images, _rounds(_id_action, ge),
                       1 << 22).tolist() == [0x69969669, 0x96696996]
        assert rounds == [119, 31, 1]
        rounds.clear()
        assert _expand(ids, groups._id_images, _rounds(_id_action, ge),
                       2).tolist() == [0x69969669, 0x96696996]
        assert rounds == [1, 2, 3, 4, 1, 1, 1, 1, 1, 1]
        assert canonical_form(parity, ge, max_orbit=2).id == 0x69969669
        with pytest.raises(OrbitBudgetError):
            canonical_form(parity, ge, max_orbit=1)

    @pytest.mark.parametrize("name,k,n,seeds", [
        ("ge", 2, 5, ("parity", 1, 2)),
        *((name, 2, 4, (1, 2)) for name in GROUP_NAMES),
        ("s", 5, 1, (1,))])
    def test_budget_matches_the_whole_expansion(self, name, k, n, seeds):
        # the id path keeps only the least image of its last round when
        # that round's merged factor fits the budget; at every budget up
        # to the orbit's size + 1 where either path can decide otherwise
        # it must refuse exactly what `_expand` over all rounds refuses,
        # and otherwise give its least key (s on P_5^1 has no factors, so
        # no rounds).  Keys only accumulate, so `_expand` refuses exactly
        # the budgets below the orbit's size, and round r takes its merged
        # factor from the budget |keys before r| * (elements + 1) on: those
        # bounds, their neighbours, every budget up to 64 and every 97th
        # (every budget up to rag's orbits takes minutes)
        gd = GroupDescriptor(name, k, n)
        size = k ** k ** n
        rounds = _rounds(_id_action, gd)
        for seed in seeds:
            f = (KFunction.from_word(0x96696996, 5) if seed == "parity"
                 else KFunction.from_id(random.Random(seed).randrange(size),
                                        k, n))
            ids = np.array([f.id], _id_dtype(size))
            orbit = _expand(ids, _id_images, rounds, 1 << 22)
            bounds = {orbit.size} | {
                _expand(ids, _id_images, rounds[:r], 1 << 22).size
                * (elements + 1) for r, (_, elements, _) in enumerate(rounds)}
            budgets = ({b + d for b in bounds for d in (-1, 0, 1)}
                       | set(range(1, 65)) | set(range(1, orbit.size, 97)))
            for max_orbit in sorted(b for b in budgets
                                    if 1 <= b <= orbit.size + 1):
                try:
                    least = _expand(ids, _id_images, rounds, max_orbit)[0]
                except OrbitBudgetError:
                    with pytest.raises(OrbitBudgetError):
                        canonical_form(f, gd, max_orbit=max_orbit)
                else:
                    assert canonical_form(f, gd, max_orbit=max_orbit).id \
                        == least == orbit[0]


class TestOrbits:
    @pytest.mark.parametrize("name,k,n,count", [
        ("g", 2, 2, 6), ("ca", 2, 2, 7), ("ge", 2, 2, 4), ("rag", 2, 2, 2),
        ("s", 2, 2, 12), ("lg", 2, 2, 8), ("a", 2, 2, 5),
    ])
    def test_counts_small(self, name, k, n, count):
        assert count_orbits(GroupDescriptor(name, k, n)) == count

    def test_transversal_partitions_space(self):
        gd = GroupDescriptor("g", 2, 2)
        minima, sizes = orbit_minima(orbit_partition(gd))
        assert len(minima) == 6
        assert sizes.sum() == 16
        # representatives are the orbit minima and pairwise inequivalent
        reps = [KFunction.from_id(x, 2, 2) for x in minima.tolist()]
        for rep in reps:
            assert canonical_form(rep, gd) == rep
        forms = {canonical_form(rep, gd).id for rep in reps}
        assert len(forms) == 6

    def test_genus_orbits_match_table1_partition(self):
        # the four orbit classes coincide with the four imp-classes
        from fnclass.tables import TABLE1
        gd = GroupDescriptor("ge", 2, 2)
        minima, sizes = orbit_minima(orbit_partition(gd))
        assert len(minima) == 4
        listed = {}
        for members, imp, size in TABLE1:
            reps = {canonical_form(parse(e, 2, arity=2), gd).id
                    for e in members}
            assert len(reps) == 1
            listed[reps.pop()] = (len(members), imp)
        for least, size in zip(minima.tolist(), sizes.tolist()):
            assert least in listed
            assert listed[least][0] == size

    def test_space_too_large(self):
        with pytest.raises(OrbitBudgetError):
            count_orbits(GroupDescriptor("ge", 2, 3), max_space=100)


class TestProfileEquivalentPair:
    # the pair is sub- and imp-equivalent, and ALSO affinely equivalent:
    # g(x) = f(xA + c) + x1 + x3 with A the x1/x3 swap and c = (1,0,0),
    # found by exhausting all 21504 affine transformations; the witness is
    # frozen below
    def test_profile_equivalences(self):
        f = parse("x1*x2^0*x3 + x1^0", 2)
        g = parse("x1*x2^0*x3 + x1*x2", 2)
        assert sub_vector(f) == sub_vector(g)
        assert sub_vector(f)[1:] == (3, 3, 1)
        assert imp_count(f) == imp_count(g)

    def test_affine_witness(self):
        f = parse("x1*x2^0*x3 + x1^0", 2)
        g = parse("x1*x2^0*x3 + x1*x2", 2)
        t = affine(2, 3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                   (1, 0, 0), (1, 0, 1), 0)
        assert t.apply(f) == g
        rag = GroupDescriptor("rag", 2, 3)
        assert canonical_form(f, rag) == canonical_form(g, rag)


class TestOutputImage:
    def test_collapsing_map_kills_essentials(self):
        vals = bytearray([1] * 8)
        vals[0] = 0
        f = KFunction(2, 3, bytes(vals))
        g = output_image(f, (0, 0))
        assert g.ess() == 0 != f.ess()

    def test_permutation_matches_group_element(self):
        f = parse("x1*x2", 2)
        assert output_image(f, (1, 0)) == output_translate(2, 2, 1).apply(f)

    def test_rejects_bad_map(self):
        with pytest.raises(ValueError):
            output_image(parse("x1", 2), (0, 2))


# -- independent orbit oracles over the enumerated group elements ------------

ORACLE_SPACES = [(name, k, n) for k, n in ((2, 3), (3, 2))
                 for name in ("s", "ca", "g", "ge", "cf", "lf", "lg", "a",
                              "axa1", "rag", "fullsym")] + \
    [(name, 2, 4) for name in ("s", "ca", "g", "ge", "cf", "lf", "fullsym")] + \
    [(name, k, 1) for k in (5, 7)  # generators of order k, not involutions
     for name in ("s", "ca", "g", "ge", "cf", "lf", "lg", "a", "axa1", "rag")]


def burnside_orbits(elements, k):
    """Orbit count as the mean number of functions each element fixes.

    A fixed f satisfies f(x) = out_maps[x][f(domain_map[x])], so along a
    cycle x_0 -> x_1 -> ... of domain_map, f(x_0) must be a fixed value of
    out_maps[x_0] o out_maps[x_1] o ..., and it determines the rest.
    """
    total = 0
    for t in elements:
        fixed = 1
        visited = set()
        for start in range(len(t.domain_map)):
            if start in visited:
                continue
            composed = list(range(k))
            x = start
            while x not in visited:
                visited.add(x)
                composed = [composed[t.out_maps[x][v]] for v in range(k)]
                x = t.domain_map[x]
            fixed *= sum(composed[v] == v for v in range(k))
        total += fixed
    assert total % len(elements) == 0
    return total // len(elements)


class TestOrbitOracles:
    @pytest.mark.parametrize("name,k,n", ORACLE_SPACES)
    def test_partition_matches_element_oracles(self, name, k, n):
        gd = GroupDescriptor(name, k, n)
        elements = list(group_elements(gd))
        labels = orbit_partition(gd)
        assert int(np.unique(labels).size) == count_orbits(gd) == \
            orbit_minima(labels)[0].size == burnside_orbits(elements, k)
        rng = random.Random(f"{name}{k}{n}")
        for x in rng.sample(range(labels.size), 4):
            f = KFunction.from_id(x, k, n)
            least = min(t.apply(f).id for t in elements)
            assert labels[x] == least
            assert canonical_form(f, gd).id == least

    @pytest.mark.parametrize("name,k,n", [("rag", 2, 4), ("g", 7, 1)])
    def test_partition_allocates_no_round_temporaries(self, name, k, n):
        # a first call makes the labels of every base on the group's chain
        # (lg and a for rag, s for g, cached) and its own, a spare in the
        # id dtype (2 bytes per id on P_2^4, 4 on P_7^1) and one intp
        # permutation that np.take gathers with as it is: 2.1 and 2.5 intp
        # arrays; one more intp temporary of the space's size per factor
        # element, such as np.take's copy of narrow indices, would pass
        # the bound
        gd = GroupDescriptor(name, k, n)
        orbit_partition(gd)  # build the cached factor tables
        groups._base_labels.cache_clear()
        tracemalloc.start()
        try:
            labels = orbit_partition(gd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * labels.size * 8

    @pytest.mark.parametrize("name,k,n", [("ge", 2, 5), ("cf", 2, 7),
                                          ("s", 3, 4), ("ge", 15, 1),
                                          ("ge", 16, 1), ("g", 3, 3),
                                          ("cf", 2, 6), ("ge", 4, 2)])
    def test_canonical_form_is_element_minimum(self, name, k, n):
        # the id expansion runs up to 2^63 functions (P_2^5, P_4^2, P_15^1
        # and P_3^3), reading P_2^5's and P_4^2's chunk digits as bytes;
        # above, the row expansion keys P_2^6 on the packed id and P_16^1,
        # P_2^7 and P_3^4 on the row bytes, last cell first
        gd = GroupDescriptor(name, k, n)
        rng = random.Random(7)
        f = KFunction(k, n, bytes(rng.randrange(k) for _ in range(k ** n)))
        form = canonical_form(f, gd)
        assert form.id == min(t.apply(f).id for t in group_elements(gd))
        assert canonical_form(form, gd) == form


class TestOrbitBfs:
    # the orbit expansion over merged factors, on ids and on table rows
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_p25_ge_orbit_matches_scan5(self, seed):
        w = random.Random(seed).getrandbits(32)
        ge = GroupDescriptor("ge", 2, 5)
        orbit = _expand(np.array([w], np.uint32), groups._id_images,
                        _rounds(_id_action, ge), 1 << 22)
        assert orbit.dtype == np.uint32  # the id expansion, in the id dtype
        assert orbit.tolist() == _orbit(w, _domain_maps(5)).tolist()
        assert canonical_form(KFunction.from_word(w, 5), ge).id == orbit[0]

    @pytest.mark.parametrize("name,k,n", ORACLE_SPACES)
    def test_row_and_id_bfs_agree(self, name, k, n):
        gd = GroupDescriptor(name, k, n)
        rng = random.Random(f"{name}{k}{n}")
        for _ in range(3):
            f = KFunction(k, n, bytes(rng.randrange(k) for _ in range(k ** n)))
            table = np.frombuffer(f.values, np.uint8)[None, :]
            rows = bitops.key_rows(_expand(bitops.row_keys(table, k),
                                           _row_images,
                                           _rounds(_row_action, gd),
                                           1 << 22), k, k ** n)
            ids = rows.astype(np.intp) @ k ** np.arange(k ** n)
            assert ids.tolist() == _expand(np.array([f.id], np.intp),
                                           _id_images,
                                           _rounds(_id_action, gd),
                                           1 << 22).tolist()

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_forms_match_labels_on_p24(self, name):
        # lg on P_2^4 merges its 15 factors in runs of 7, 6 and 2 whose
        # products are not closed under inverses, so a run composed in the
        # wrong order reaches other keys; the label pass checks the forms
        # through the unmerged factors
        gd = GroupDescriptor(name, 2, 4)
        labels = orbit_partition(gd)
        for x in random.Random(name).sample(range(labels.size), 20):
            f = KFunction.from_id(x, 2, 4)
            assert canonical_form(f, gd).id == labels[x]


class TestIdDtype:
    # each space's ids in the narrowest unsigned dtype that holds them:
    # P_2^3's 256 ids exactly filling uint8, P_2^4's 2^16 uint16, P_7^1 in
    # uint32, P_3^3 and P_15^1 (expansion only) in uint64; ge holds the
    # output translations cf, lf the added linear functions, and both send
    # id 0 and the largest id elsewhere
    @pytest.mark.parametrize("k,n,dtype", [(2, 3, np.uint8),
                                           (2, 4, np.uint16),
                                           (3, 2, np.uint16),
                                           (7, 1, np.uint32),
                                           (3, 3, np.uint64),
                                           (15, 1, np.uint64)])
    @pytest.mark.parametrize("name", ["ge", "lf"])
    def test_ids_at_the_dtype_bounds(self, name, k, n, dtype):
        gd = GroupDescriptor(name, k, n)
        size = k ** k ** n
        assert _id_dtype(size) == dtype
        for tables in (*_action(_id_action, gd),
                       *(merged for merged, _, _ in _rounds(_id_action, gd))):
            assert all(table.dtype == dtype for table in tables)
            # every element's largest image is the largest id, no more
            assert (sum(table.max(axis=1).astype(object) for table in tables)
                    == size - 1).all()
        elements = list(group_elements(gd))
        labels = orbit_partition(gd) if size <= 1 << 22 else None
        if labels is not None:
            assert labels.dtype == dtype
        for x in (0, size - 1):
            f = KFunction.from_id(x, k, n)
            least = min(t.apply(f).id for t in elements)
            assert canonical_form(f, gd).id == least
            if labels is not None:
                assert labels[x] == least


# -- the id permutations of the orbit partition, against Transformation.apply

def _all_generators(k, n):
    """The distinct factor elements of every group on P_k^n (k prime)."""
    gens = {t for name in GROUP_NAMES
            for t in group_generators(GroupDescriptor(name, k, n))}
    return sorted(gens, key=lambda t: (t.domain_map, t.out_maps))


class TestIdPermutations:
    # P_7^1 has 3 full chunks of 2 cells and a short last one; n = 0 has a
    # single cell; P_2^4 has two full chunks
    @pytest.mark.parametrize("k,n", [(2, 0), (3, 0), (2, 1), (2, 2), (2, 3),
                                     (3, 1), (3, 2), (5, 1), (7, 1), (2, 4)])
    def test_permutation_matches_apply(self, k, n):
        size = k ** k ** n
        ids = (range(size) if size <= 20_000
               else random.Random(f"{k}{n}").sample(range(size), 2000))
        for t in _all_generators(k, n):
            perm = _outer_sum(table[0] for table in _id_action(_maps([t])))
            assert perm.shape == (size,) and perm.dtype == _id_dtype(size)
            assert (np.bincount(perm, minlength=size) == 1).all()
            expected = [t.apply(KFunction.from_id(x, k, n)).id for x in ids]
            assert perm[list(ids)].tolist() == expected, t

    # P_2^4, P_2^5 and P_4^2 read each chunk's digit as a byte of the id
    # (tables of 256 entries), P_3^2 and P_3^3 divide (243 and fewer)
    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (4, 2), (3, 2), (3, 3)])
    def test_images_match_apply(self, k, n):
        size = k ** k ** n
        rng = random.Random(f"images{k}{n}")
        xs = [0, size - 1, *(rng.randrange(size) for _ in range(6))]
        fs = [KFunction.from_id(x, k, n) for x in xs]
        for part in _PARTS:
            if part in ("lg", "units") and not _is_prime(k):
                continue
            for (maps, _), (tables, elements, _) in zip(
                    _merged(part, k, n), _part_rounds(_id_action, part, k, n)):
                assert all(table.flags.f_contiguous for table in tables)
                assert all(table.shape[1] == 256
                           for table in tables) == (k != 3)
                ts = [Transformation(k, n, dom, out) for dom, out
                      in zip(maps[0].tolist(), maps[1].tolist())]
                expected = [[t.apply(f).id for t in ts] for f in fs]
                for dtype in (_id_dtype(size), np.intp):
                    images = _id_images(np.array(xs, dtype), tables)
                    assert images.dtype == _id_dtype(size)
                    assert images.reshape(len(xs), elements).tolist() == \
                        expected, (part, dtype)


# -- the factorizations behind both orbit passes, against group_elements

def _products(factors, k, n):
    """Every composition of one element or the identity per factor, the
    first factor outermost."""
    e = identity(k, n)
    products = {e}
    for factor in factors:
        products = {p @ t for p in products for t in (e, *factor)}
    return products


def _factors(which, parts, k, n):
    """The labelling pass's factors of these parts, or the expansion's
    merged ones after checking each merges its run of labelling factors."""
    factors = []
    for part in parts:
        labelling = [list(f) for f in _PARTS[part].factors(k, n) if f]
        if which == "labelling":
            factors += labelling
            continue
        e = identity(k, n)
        for merged, span in _merged(part, k, n):
            elements = [Transformation(k, n, dom, out) for dom, out
                        in zip(merged[0].tolist(), merged[1].tolist())]
            # every non-identity product of the run, the later factor outer
            assert len(set(elements)) == len(elements) <= ID_TABLE
            run = labelling[span][::-1]
            assert set(elements) == _products(run, k, n) - {e}
            factors.append(elements)
    return factors


def _both(cases):
    """Each case for the labelling factors (under its own id) and for the
    merged expansion factors."""
    return ([pytest.param("labelling", *case, id="-".join(map(str, case)))
             for case in cases]
            + [pytest.param("expansion", *case,
                            id="-".join(map(str, ("expansion", *case))))
               for case in cases])


class TestFactorizations:
    # `orbit_partition` lowers x's label over t_1 ... t_r x and
    # `canonical_form` reaches t_r ... t_1 f, one element or the identity
    # per (merged) factor: a factor that misses part of the group would
    # give wrong labels or forms silently
    @pytest.mark.parametrize("which,name,k,n", _both([
        (name, k, n) for k, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                  (5, 1), (7, 1))
        for name in GROUP_NAMES if (name, k) != ("fullsym", 7)]))
    def test_factor_products_are_the_group(self, which, name, k, n):
        gd = GroupDescriptor(name, k, n)
        factors = _factors(which, _GROUPS[name], k, n)
        assert all(factors) and identity(k, n) not in set().union(*factors)
        elements = set(group_elements(gd))
        assert _products(factors[::-1], k, n) == elements
        if which == "labelling":
            assert factors == [list(f) for f in _action(tuple, gd)]
            assert _products(factors, k, n) == elements

    @pytest.mark.parametrize("which,part", _both([("s",), ("vals",),
                                                  ("outs",)]))
    def test_fullsym_parts_on_p71(self, which, part):
        # fullsym on P_7^1 has 7!^2 elements, too many to list; it composes
        # one element of each part, so its parts' products cover it
        order, element, _ = _PARTS[part]
        elements = {element(7, 1, i) for i in range(order(7, 1))}
        factors = _factors(which, [part], 7, 1)
        assert _products(factors[::-1], 7, 1) == elements
        if which == "labelling":
            assert _products(factors, 7, 1) == elements

    @pytest.mark.parametrize("name,k,n", [("rag", 2, 4), ("fullsym", 3, 2),
                                          ("axa1", 5, 1), ("g", 7, 1),
                                          ("lf", 3, 2)])
    def test_partition_gathers_once_per_factor_element(self, name, k, n,
                                                        monkeypatch):
        # with no labels cached a call gathers once per element of its
        # whole part chain; a repeat resumes from its base's cached labels
        # and gathers over the parts beyond the base only, and a base's
        # repeat comes from the cache with no gather
        gd = GroupDescriptor(name, k, n)
        orbit_partition(gd)  # build the cached tables
        take, gathers = np.take, []

        def counted_take(*args, **kwargs):
            gathers.append(args[1].size)
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", counted_take)
        groups._base_labels.cache_clear()
        labels = orbit_partition(gd)
        assert len(gathers) == sum(map(len, _action(tuple, gd))) == \
            len(group_generators(gd))
        assert gathers == [labels.size] * len(gathers)
        gathers.clear()
        assert orbit_partition(gd).tolist() == labels.tolist()
        base = _BASE[name]
        beyond = _GROUPS[name][len(_GROUPS[base]) if base else 0:]
        assert len(gathers) == (0 if name in _BASE.values() else sum(
            len(factor) for part in beyond
            for factor in _part_action(tuple, part, k, n)))
        assert gathers == [labels.size] * len(gathers)


# -- resuming from a base's cached labels, against the pass from every id

def _reference_partition(gd):
    """Every id its own label, lowered over each element of every factor
    of the group in turn: the label pass with no base."""
    size = gd.k ** gd.k ** gd.n
    lab = np.arange(size, dtype=_id_dtype(size))
    for factor in _action(_id_action, gd):
        for tables in zip(*factor):  # one element at a time
            np.minimum(lab, lab[_outer_sum(tables)], out=lab)
    return lab


class TestBaseResume:
    def test_base_parts_are_a_proper_prefix(self):
        assert {name: base for name, base in _BASE.items() if base} == {
            "g": "s", "ge": "g", "a": "lg", "axa1": "a", "rag": "a",
            "fullsym": "s"}
        for name, base in _BASE.items():
            if base is not None:
                prefix = _GROUPS[base]
                assert len(prefix) < len(_GROUPS[name])
                assert _GROUPS[name][:len(prefix)] == prefix

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                     (3, 2), (5, 1), (7, 1)])
    def test_labels_match_the_pass_from_every_id(self, k, n):
        # bases computed before and after the groups resuming from them
        gds = [GroupDescriptor(name, k, n) for name in GROUP_NAMES]
        expected = {gd: _reference_partition(gd) for gd in gds}
        for order in (gds, gds[::-1]):
            groups._base_labels.cache_clear()
            for gd in order:
                labels = orbit_partition(gd)
                assert not labels.flags.writeable
                assert labels.dtype == expected[gd].dtype
                assert labels.tobytes() == expected[gd].tobytes(), gd
