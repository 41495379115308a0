import itertools
import random
import time

import pytest

from fnclass import bitops
from fnclass import diagrams as dg
from fnclass import verify
from fnclass.kfun import KFunction
from fnclass.spform import parse
from fnclass.verify import EXHAUSTIVE_POOL, _function_pool, run_checks

IMPLEMENTATION_CHECKS = ["separable-iff-tail-implementation-suffix",
                         "separable-implies-implementation-suffix",
                         "essential-terminal-letters",
                         "imp-recursion-vs-enumeration"]


def test_default_profile_all_pass():
    run = run_checks(k=2, n_exhaustive=3, n_sampled=3, samples=0, seed=0)
    failing = [r.name for r in run.results if not r.passed]
    assert run.ok, failing


def test_mutant_breaks_label_lemma():
    run = run_checks(k=2, n_exhaustive=2, n_sampled=2, samples=0, seed=0,
                     mutant="no-remove-rule",
                     names=["label-lemma"])
    assert not run.ok


def test_depth_theorems_catch_a_reversed_descent(monkeypatch):
    # the full-depth ordering is the walk's, unchecked; a walk read back to
    # front must surface as a failing depth check, not be repaired
    descent = bitops.descent

    def reversed_descent(*args):
        path = descent(*args)
        return None if path is None else path[::-1]

    monkeypatch.setattr(bitops, "descent", reversed_descent)
    run = run_checks(k=2, n_exhaustive=3, n_sampled=3, samples=0, seed=0,
                     names=["depth-theorems"])
    (result,) = run.results
    assert not result.passed


def test_mutant_name_validated():
    import pytest
    with pytest.raises(ValueError):
        run_checks(mutant="bogus")


def test_no_names_runs_no_check():
    # only None means every check
    assert run_checks(k=2, n_exhaustive=1, n_sampled=0, names=[]).results == []


def test_check_names_validated():
    # a misspelt name must not pass by running nothing
    with pytest.raises(ValueError, match="cofactor-law'"):
        run_checks(names=["cofactor-law", "label-lemma"])


def test_single_fix_check_reports_known_counterexample():
    # the single-variable fixing claim fails once distributive sets need
    # two variables; cf53 is the smallest sampled witness we pin here
    f = KFunction.from_hex("cf53", 4)
    pool = [(2, 4, [f])]
    run = run_checks(k=2, n_exhaustive=0, n_sampled=0, samples=0, seed=0,
                     names=["single-fix-kills-inseparable-part"],
                     extra_pools=pool)
    (result,) = run.results
    assert not result.passed
    assert "cf53" in result.counterexample


def test_ternary_sweep_passes():
    run = run_checks(k=3, n_exhaustive=1, n_sampled=2, samples=25, seed=1)
    failing = [r.name for r in run.results if not r.passed]
    assert run.ok, failing


def test_results_serialize():
    run = run_checks(k=2, n_exhaustive=2, n_sampled=2, samples=0, seed=0,
                     names=["cofactor-laws"])
    payload = run.to_json_dict()
    assert payload["ok"] is True
    assert payload["checks"][0]["name"] == "cofactor-laws"


def test_exhaustive_pool_limit():
    # all of P_2^4 still fits; P_4^2 (4^16 functions) is refused unlisted
    assert len(_function_pool(2, 4, 4, 0, 0)[-1][2]) == EXHAUSTIVE_POOL
    with pytest.raises(MemoryError):
        _function_pool(4, 2, 2, 0, 0)


def family(bits: int, n: int) -> set:
    """The variable sets whose masks are the set bits of a census int."""
    return {frozenset(i + 1 for i in range(n) if m >> i & 1)
            for m in range(1 << n) if bits >> m & 1}


def census_reference(f: KFunction, mutant):
    """The census fields straight from the diagrams: tail suffixes as the
    tail-suffix check used to collect them, the rest from `implementations`."""
    tail = set()
    for order in itertools.permutations(sorted(f.essential_set())):
        d = dg.reduce(dg.build_odt(f, order), _remove_rule=mutant is None)
        for imp in dg.implementations_of(d):
            for m in range(1, len(imp.vars) + 1):
                if frozenset(imp.vars[-m:]) == frozenset(order[-m:]):
                    tail.add(frozenset(order[-m:]))
    imps = dg.implementations(f)
    suffixes = {frozenset(imp.vars[-m:])
                for imp in imps for m in range(1, len(imp.vars) + 1)}
    return tail, suffixes, {imp.vars[-1] for imp in imps if imp.vars}, len(imps)


def census_pool() -> list[KFunction]:
    rng = random.Random(15)
    fns = [KFunction.from_id(i, 2, 3) for i in range(256)]
    fns += [KFunction.from_id(rng.randrange(1 << 16), 2, 4) for _ in range(40)]
    fns += [KFunction.from_id(rng.randrange(3 ** 9), 3, 2) for _ in range(40)]
    # inessential variables: fixed ones, and ones the arity adds
    fns += [f.cofactor(1 + j % 4, j % 2) for j, f in enumerate(fns[256:276])]
    fns += [parse("x1*x3 + x4", 2, arity=5),
            KFunction.from_id(rng.randrange(3 ** 27), 3, 3).cofactor(2, 1)]
    return fns


@pytest.mark.parametrize("mutant", [None, "no-remove-rule"])
def test_census_matches_the_diagrams(mutant):
    for f in census_pool():
        census = verify._census(f, mutant)
        tail, suffixes, terminals, imp = census_reference(f, mutant)
        assert family(census.tail, f.n) == tail, f
        if mutant is None:  # only the tail-suffix check reads a mutant census
            assert family(census.suffixes, f.n) == suffixes, f
            assert census.terminals == sum(1 << i - 1 for i in terminals), f
            assert census.imp == imp, f


def test_mutant_reaches_the_tail_suffix_check_only():
    run = run_checks(k=2, n_exhaustive=3, n_sampled=3, samples=0,
                     mutant="no-remove-rule", names=IMPLEMENTATION_CHECKS)
    assert [(r.name, r.passed, r.checked, r.counterexample)
            for r in run.results] == [
        ("separable-iff-tail-implementation-suffix", False, 50, "1b"),
        ("separable-implies-implementation-suffix", True, 278, None),
        ("essential-terminal-letters", True, 278, None),
        ("imp-recursion-vs-enumeration", True, 278, None)]


@pytest.mark.parametrize("mutant", [None, "no-remove-rule"])
def test_census_built_once_per_function_and_mutant(monkeypatch, mutant):
    built = []
    census = verify._census
    monkeypatch.setattr(verify, "_census",
                        lambda f, m: built.append((f, m)) or census(f, m))
    run_checks(k=2, n_exhaustive=2, n_sampled=3, samples=30, seed=0,
               mutant=mutant, names=IMPLEMENTATION_CHECKS)
    assert built and len(built) == len(set(built))
    assert {m for _, m in built} == {None, mutant}


def pinned(counts, failures):
    """(name, passed, checked, counterexample) of every check in CHECKS
    order, from each check's case count and the failing ones' texts."""
    names = [name for name, _ in verify.CHECKS]
    assert len(counts) == len(names)
    return [(name, name not in failures, checked, failures.get(name))
            for name, checked in zip(names, counts)]


# every check's outcome on three small sweeps, as the hand-written
# count-and-stop loops that `_sweep` replaced reported it
PINNED_SWEEPS = [
    (dict(k=2, n_exhaustive=2, n_sampled=3, samples=40),
     pinned([404, 62, 279, 4, 8, 204, 204, 4, 299, 278, 394, 62, 62, 62, 62,
             233, 124, 3, 2192, 4, 62], {})),
    (dict(k=2, n_exhaustive=2, n_sampled=3, samples=40,
          mutant="no-remove-rule"),
     pinned([404, 62, 279, 4, 8, 204, 204, 4, 299, 3, 394, 23, 62, 62, 62,
             54, 124, 3, 2192, 4, 62],
            {"label-lemma": "0",
             "separable-iff-tail-implementation-suffix": "c5",
             "depth-theorems": "c5"})),
    (dict(k=3, n_exhaustive=1, n_sampled=2, samples=30),
     pinned([321, 60, 114, 0, 0, 200, 200, 0, 264, 90, 354, 60, 60, 60, 60,
             144, 360, 2, 2412, 2, 60], {})),
]


@pytest.mark.parametrize("config, expected", PINNED_SWEEPS)
def test_every_check_keeps_its_pinned_outcome(config, expected):
    run = run_checks(**config)
    assert [(r.name, r.passed, r.checked, r.counterexample)
            for r in run.results] == expected


def test_fullsym_check_samples_without_listing_the_group():
    # fullsym on P_8^1 has 8!^2 = 1,625,702,400 elements: listing them
    # never finishes, drawing 48 indices is instant
    start = time.perf_counter()
    run = run_checks(k=8, n_exhaustive=0, n_sampled=1, samples=3, seed=0,
                     names=["symmetric-transform-invariance"])
    (result,) = run.results
    assert result.passed and result.checked == 48 * 3
    assert time.perf_counter() - start < 20


def test_fullsym_check_samples_past_64_bit_orders():
    # fullsym on P_13^1 has 13!^2 (about 2^65) elements, past what
    # `random.sample` can draw from
    run = run_checks(k=13, n_exhaustive=0, n_sampled=1, samples=1, seed=0,
                     names=["symmetric-transform-invariance"])
    (result,) = run.results
    assert result.passed and result.checked == 48


def test_output_permutations_sampled_above_48():
    # 5! = 120 value permutations: 48 of them are drawn per function
    pools = _function_pool(5, 0, 1, 1, 0)
    run = run_checks(k=5, n_exhaustive=0, n_sampled=1, samples=1, seed=0,
                     names=["output-permutation-invariance"])
    (result,) = run.results
    assert result.passed
    assert result.checked == 48 * sum(len(fns) for _, _, fns in pools)
