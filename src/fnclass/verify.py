"""Executable checks for the structural results the library relies on.

Each check sweeps a set of functions (exhaustively for small spaces,
randomly sampled above) and confirms one structural property: the
separability/distributivity laws, the diagram lemmas, the depth results,
the invariance of the complexity measures under the symmetric
transformations, and the refinement relations between the three
classifications.  A per-function check is a generator `cases(k, n, f)`
that yields one result per case; `_sweep` alone walks the pools, counts
the cases and stops at the first result that is not True, naming that
function's table (or the text the case yielded) to replay.  The four
implementation checks read one census per function and mutant, built
once per `run_checks` call from the ess(f)! reduced diagrams (`_census`).
The checks that compare whole spaces or fixed witnesses count their own
cases.

`mutant` corrupts one step (skipping the redundant-node reduction rule) to
prove the checks can fail.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass, field
from functools import cache
from math import comb, factorial
from typing import NamedTuple

from . import bitops
from . import diagrams as dg
from . import separability as sp
from .classify import refinement_check, scan_space
from .groups import (GroupDescriptor, _nth_permutation, group_element,
                     output_image)
from .kfun import KFunction, space_size
from .spform import parse

MUTANTS = ("no-remove-rule",)
#: Most functions one exhaustive sweep may list (all of P_2^4); a larger
#: space raises MemoryError before any function is built.
EXHAUSTIVE_POOL = 1 << 16


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    counterexample: str | None = None
    note: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  [{self.counterexample}]" if self.counterexample else ""
        note = f"  ({self.note})" if self.note and not self.passed else ""
        return f"{status}  {self.name} ({self.checked} cases){extra}{note}"


@dataclass
class VerifyRun:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {"ok": self.ok,
                "checks": [{"name": r.name, "passed": r.passed,
                            "checked": r.checked,
                            "counterexample": r.counterexample,
                            "note": r.note} for r in self.results]}


def _exhaustive(k: int, n: int):
    for ident in range(k ** (k ** n)):
        yield KFunction.from_id(ident, k, n)


def _sampled(k: int, n: int, count: int, rng: random.Random):
    space = k ** (k ** n)
    for _ in range(count):
        yield KFunction.from_id(rng.randrange(space), k, n)


def _function_pool(k: int, n_exhaustive: int, n_sampled: int, samples: int,
                   seed: int):
    """(k, n, iterator) triples covering the requested sweep."""
    if space_size(k, n_exhaustive, EXHAUSTIVE_POOL) is None:
        raise MemoryError(f"exhaustive sweep of P_{k}^{n_exhaustive} exceeds "
                          f"the pool limit of {EXHAUSTIVE_POOL} functions")
    rng = random.Random(seed)
    pools = []
    for n in range(n_exhaustive + 1):
        pools.append((k, n, list(_exhaustive(k, n))))
    for n in range(n_exhaustive + 1, n_sampled + 1):
        pools.append((k, n, list(_sampled(k, n, samples, rng))))
    return pools


def _sweep(pools, cases, keep=lambda f: True):
    """(passed, checked, counterexample) of one per-function check.

    Every f of the pools that `keep` admits is checked by the generator
    `cases(k, n, f)`, one yielded result per case.  The first result that
    is not True stops the sweep; the counterexample is that result where it
    is a text, else f's table.
    """
    checked = 0
    for k, n, fns in pools:
        for f in filter(keep, fns):
            for result in cases(k, n, f):
                checked += 1
                if result is not True:
                    return False, checked, (result if isinstance(result, str)
                                            else f.table_text())
    return True, checked, None


def _at_most_five(f: KFunction) -> bool:
    return f.ess() <= 5


def _reduced(f: KFunction, order, mutant: str | None):
    return dg.reduce(dg.build_odt(f, order), _remove_rule=mutant != "no-remove-rule")


class _Census(NamedTuple):
    """Per function and mutant, what the implementation checks compare of
    the ess(f)! reduced diagrams; a family of sets has bit m per mask m."""
    tail: int       # word suffixes M under an ordering that ends in M
    suffixes: int   # suffixes of the words of Imp(f)
    terminals: int  # mask of the words' last letters
    imp: int        # |Imp(f)|


def _census(f: KFunction, mutant: str | None) -> _Census:
    imps = set()
    tail = suffixes = terminals = 0
    for order in itertools.permutations(sorted(f.essential_set())):
        for imp in dg.implementations_of(_reduced(f, order, mutant)):
            imps.add(imp)
            got = end = 0  # masks of the word's and the ordering's suffixes
            for i, j in zip(reversed(imp.vars), reversed(order)):
                got, end = got | 1 << i - 1, end | 1 << j - 1
                suffixes |= 1 << got
                tail |= (got == end) << got
            terminals |= 1 << imp.vars[-1] - 1 if imp.vars else 0
    return _Census(tail, suffixes, terminals, len(imps))


def _bitset(sets) -> int:
    return sum({1 << sum(1 << i - 1 for i in m) for m in sets})


def _census_check(pools, census, mutant, holds):
    """One case per f with ess(f) <= 5: `holds(f, census(f, mutant))`."""
    return _sweep(pools, lambda k, n, f: (holds(f, census(f, mutant)),),
                  keep=_at_most_five)


def _inseparable_sets(f: KFunction):
    ess = f.essential_set()
    seps = sp.separable_sets(f)
    for size in range(2, len(ess)):
        for m in itertools.combinations(sorted(ess), size):
            if frozenset(m) not in seps:
                yield frozenset(m)


def _s_system_sweep(pools, rng, holds):
    """Both s-system checks: `holds(Dis(M, f))` for every inseparable M of
    each f, then `holds` on 200 random families of subsets of x1..x6.  The
    families are drawn lazily, as a pool with k = 0, so a failure stops
    the draws."""
    def cases(k, n, f):
        if not k:  # f is a family
            yield holds(f) or str(f)
            return
        for m in _inseparable_sets(f):
            yield holds(sp.distributive_sets(m, f))
    families = ([frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 4))] for _ in range(200))
    return _sweep([*pools, (0, 0, families)], cases)


# ---------------------------------------------------------------------------
# individual checks; each returns (passed, checked, counterexample)
# ---------------------------------------------------------------------------

def _check_cofactor_laws(pools, mutant, rng, census):
    def cases(k, n, f):
        ess = f.essential_set()
        for i in range(1, n + 1):
            for c in range(k):
                g = f.cofactor(i, c)
                yield (g.cofactor(i, c) == g and not g.is_essential(i)
                       and g.essential_set() <= ess - {i})
        for i in sorted(ess)[:2]:
            for j in sorted(ess - {i})[:1]:
                yield (f.cofactor(i, 0).cofactor(j, 1)
                       == f.cofactor(j, 1).cofactor(i, 0))
    return _sweep(pools, cases)


def _check_strongly_essential(pools, mutant, rng, census):
    return _sweep(pools, lambda k, n, f: (
        len(f.strongly_essential_set()) >= min(f.ess(), 2),))


def _check_distributive_union(pools, mutant, rng, census):
    def cases(k, n, f):
        seps = sp.separable_sets(f)
        for m in _inseparable_sets(f):
            dis = sp.distributive_sets(m, f)
            if not dis:
                yield False
            for beta in sp.s_systems(dis):
                yield m | beta in seps and not any(
                    m | frozenset(alpha) in seps for r in range(len(beta))
                    for alpha in itertools.combinations(sorted(beta), r))
    return _sweep(pools, cases)


def _check_single_fix_claim(pools, mutant, rng, census):
    """Single-variable form: fixing any s-system variable kills part of M.

    Holds whenever the distributive family has a singleton member covering
    the variable (always the case for n <= 3), but fails in general: for
    the 4-variable function cf53 with M = {1, 2} the only distributive set
    is {3, 4}, and fixing x3 = 1 keeps all of M essential.  Kept as an
    honest check; the shallow-ordering construction does not rely on it.
    """
    def cases(k, n, f):
        for m in _inseparable_sets(f):
            for beta in sp.s_systems(sp.distributive_sets(m, f)):
                for i in beta:
                    for c in range(k):
                        yield (not m <= f.cofactor(i, c).essential_set()
                               or f"{f.table_text()} M={sorted(m)} x{i}={c}")
    return _sweep(pools, cases)


def _check_s_system_nonempty(pools, mutant, rng, census):
    return _s_system_sweep(pools, rng, lambda fam: bool(sp.s_systems(fam)))


def _check_transversal_characterization(pools, mutant, rng, census):
    return _s_system_sweep(pools, rng, lambda fam:
                           sp.s_systems(fam) == sp.minimal_transversals(fam))


def _check_hereditary_inseparability(pools, mutant, rng, census):
    def cases(k, n, f):
        subs = sp.subfunctions(f)
        for m in _inseparable_sets(f):
            for g in subs:
                if m <= g.essential_set():
                    yield m not in sp.separable_sets(g)
    return _sweep(pools, cases)


def _check_sep_oracle(pools, mutant, rng, census):
    def cases(k, n, f):
        ess, seps = sorted(f.essential_set()), sp.separable_sets(f)
        for size in range(1, len(ess) + 1):
            for m in itertools.combinations(ess, size):
                yield sp.is_separable(f, m) == (frozenset(m) in seps)
    return _sweep(pools, cases)


def _check_chains(pools, mutant, rng, census):
    def cases(k, n, f):
        subs = list(sp.subfunctions(f))
        for g in subs if len(subs) <= 6 else rng.sample(subs, 6):
            chain = sp.subfunction_chain(f, g)
            # each link one step: a cofactor of hi on one essential variable
            yield chain[0] == g and chain[-1] == f and all(
                hi.ess() == lo.ess() + 1
                and any(lo == hi.cofactor(x, c)
                        for x in hi.essential_set() for c in range(k))
                for lo, hi in zip(chain, chain[1:]))
    return _sweep(pools, cases)


def _check_label_lemma(pools, mutant, rng, census):
    # orderings over ALL variables: inessential ones must reduce away
    def cases(k, n, f):
        ess = f.essential_set()
        orders = list(itertools.permutations(range(1, n + 1)))
        for order in orders if len(orders) <= 6 else rng.sample(orders, 6):
            yield dg.diagram_labels(_reduced(f, order, mutant)) == ess
    return _sweep(pools, cases)


def _check_reduction_soundness(pools, mutant, rng, census):
    def cases(k, n, f):
        ess = sorted(f.essential_set())
        d = _reduced(f, ess, mutant)
        *points, last = bitops.cell_digits(k, n).T.tolist()
        for point in points:
            yield d.eval(point) == f.eval(point)
        # the last point's case also checks canonical determinism
        yield d.eval(last) == f.eval(last) and \
            _reduced(f, ess, mutant).canonical_key() == d.canonical_key()
    return _sweep(pools, cases)


def _check_tail_suffix(pools, mutant, rng, census):
    """Separability by implementation suffixes under tail-respecting orderings.

    M is separable iff some ordering that keeps M in its final |M| positions
    has an implementation whose variable word ends with exactly M.  The
    tail qualification matters: without it the backward direction is false
    (see _check_suffix_forward_only), because a path may skip an essential
    variable whenever its branch collapses early.
    """
    return _census_check(pools, census, mutant, lambda f, c:
                         c.tail == _bitset(sp.separable_sets(f)))


def _check_suffix_forward_only(pools, mutant, rng, census):
    """Every separable set appears as some implementation suffix.

    Only this direction of the unrestricted suffix statement is true; the
    converse fails, e.g. table 1b (n = 3) yields the suffix {2, 3} on the
    ordering (2, 3, 1) although {2, 3} is inseparable there.
    """
    return _census_check(pools, census, None, lambda f, c:
                         not _bitset(sp.separable_sets(f)) & ~c.suffixes)


def _check_terminal_letters(pools, mutant, rng, census):
    return _census_check(pools, census, None, lambda f, c: c.terminals
                         == sum(1 << i - 1 for i in f.essential_set()))


def _check_imp_recursion(pools, mutant, rng, census):
    return _census_check(pools, census, None, lambda f, c:
                         dg.imp_count(f) == dg.imp_count_recursive(f) == c.imp)


def _check_depth_theorems(pools, mutant, rng, census):
    def cases(k, n, f):
        ess = f.essential_set()
        full = len(ess) + 1
        # depth bound over a few orderings
        orders = list(itertools.permutations(sorted(ess)))
        for order in orders if len(orders) <= 4 else rng.sample(orders, 4):
            yield dg.depth(_reduced(f, order, mutant)) <= full
        if ess:
            order = dg.find_full_depth_ordering(f)
            yield dg.depth(_reduced(f, order, mutant)) == full
        for m in _inseparable_sets(f):
            order = dg.find_shallow_ordering(f, m)
            yield dg.depth(_reduced(f, order, mutant)) < full
    return _sweep(pools, cases)


def _sample_indices(rng, order: int):
    """48 distinct indices below `order` (all of them if there are no more);
    `rng.sample` while `range(order)` has a length, distinct `rng.randrange`
    draws above sys.maxsize."""
    if order <= 48:
        return range(order)
    if order <= sys.maxsize:
        return rng.sample(range(order), 48)
    picks = {}
    while len(picks) < 48:
        picks[rng.randrange(order)] = None
    return list(picks)


def _check_output_perm_invariance(pools, mutant, rng, census):
    # all k! value permutations up to k = 4, above that 48 drawn per function
    def cases(k, n, f):
        base = dg.imp_count(f), sp.sub_vector(f)
        for i in _sample_indices(rng, factorial(k)):
            g = output_image(f, _nth_permutation(range(k), i))
            yield (dg.imp_count(g), sp.sub_vector(g)) == base
    return _sweep(pools, cases, keep=_at_most_five)


def _check_non_bijective_breaks(pools, mutant, rng, census):
    # the collapsing value map sends the point-indicator function to a
    # constant, so neither measure can survive
    checked = 0
    for k, n in {(k, n) for k, n, _ in pools if n >= 1}:
        sigma = [0] * k  # everything collapses to 0
        vals = bytearray([1] * (k ** n))
        vals[0] = 0
        f = KFunction(k, n, bytes(vals))  # 0 at the origin, 1 elsewhere
        g = output_image(f, sigma)
        checked += 1
        if dg.imp_count(g) == dg.imp_count(f):
            return False, checked, f.table_text()
        if sp.sub_vector(g) == sp.sub_vector(f):
            return False, checked, f.table_text()
    return True, checked, None


def _check_fullsym_invariance(pools, mutant, rng, census):
    elements = {}  # per space: 48 group elements, drawn before its functions

    def spaces():
        for k, n, fns in pools:
            if n >= 1:
                gd = GroupDescriptor("fullsym", k, n)
                elements[k, n] = [group_element(gd, i)
                                  for i in _sample_indices(rng, gd.order())]
                yield k, n, fns if len(fns) <= 220 else rng.sample(fns, 220)

    def measures(f):
        return dg.imp_count(f), sp.sub_vector(f), sp.sep_vector(f)

    def cases(k, n, f):
        base = measures(f)
        for t in elements[k, n]:
            yield measures(t.apply(f)) == base
    return _sweep(spaces(), cases, keep=_at_most_five)


def _check_refinements(pools, mutant, rng, census):
    # refinements on the exhaustively scanned spaces
    checked = 0
    for k, n, fns in pools:
        if n < 2 or len(fns) != space_size(k, n, EXHAUSTIVE_POOL):
            continue
        reports = scan_space(k, n, ("imp", "sub", "sep"), keep_assignment=True)
        checked += 2
        if not refinement_check(reports["imp"], reports["sep"]):
            return False, checked, f"imp does not refine sep at k={k} n={n}"
        if not refinement_check(reports["sub"], reports["sep"]):
            return False, checked, f"sub does not refine sep at k={k} n={n}"
    # the two frozen non-refinement witness pairs
    f1 = parse("x1^0*x2*x3 + x1*x2^0*x3^0", 2)
    g1 = parse("x2*x3 + x1*x2^0*x3 + x1*x2*x3^0", 2)
    checked += 1
    if not (dg.imp_count(f1) == dg.imp_count(g1) == 36):
        return False, checked, "imp witness values"
    if sp.sub_vector(f1) == sp.sub_vector(g1):
        return False, checked, "sub witness: vectors unexpectedly equal"
    f2 = parse("x1*x2^0*x3^0 + x1", 2)
    g2 = parse("x1*x2*x3", 2)
    checked += 1
    if sp.sub_vector(f2) != sp.sub_vector(g2):
        return False, checked, "sub witness: vectors unexpectedly differ"
    if dg.imp_count(f2) == dg.imp_count(g2):
        return False, checked, "imp witness: counts unexpectedly equal"
    if (dg.imp_count(f2), dg.imp_count(g2)) != (23, 21):
        return False, checked, "imp witness: wrong counts"
    return True, checked, None


def _check_profile_consistency(pools, mutant, rng, census):
    def cases(k, n, f):
        sep, ess = sp.sep_vector(f), f.ess()
        yield (sum(sp.sub_vector(f)) == len(sp.subfunctions(f))
               and sum(sep) == len(sp.separable_sets(f))
               and all(cnt <= comb(ess, m) for m, cnt in enumerate(sep, 1)))
    return _sweep(pools, cases)


CHECKS = [
    ("cofactor-laws", _check_cofactor_laws),
    ("strongly-essential-existence", _check_strongly_essential),
    ("separability-oracle-agreement", _check_sep_oracle),
    ("distributive-union-separable", _check_distributive_union),
    ("single-fix-kills-inseparable-part", _check_single_fix_claim),
    ("s-system-existence", _check_s_system_nonempty),
    ("s-system-transversal-characterization", _check_transversal_characterization),
    ("hereditary-inseparability", _check_hereditary_inseparability),
    ("subfunction-chains", _check_chains),
    ("label-lemma", _check_label_lemma),
    ("reduction-soundness", _check_reduction_soundness),
    ("separable-iff-tail-implementation-suffix", _check_tail_suffix),
    ("separable-implies-implementation-suffix", _check_suffix_forward_only),
    ("essential-terminal-letters", _check_terminal_letters),
    ("imp-recursion-vs-enumeration", _check_imp_recursion),
    ("depth-theorems", _check_depth_theorems),
    ("output-permutation-invariance", _check_output_perm_invariance),
    ("non-bijective-map-breaks-invariance", _check_non_bijective_breaks),
    ("symmetric-transform-invariance", _check_fullsym_invariance),
    ("classification-refinements", _check_refinements),
    ("profile-consistency", _check_profile_consistency),
]


# context attached to results of checks with documented caveats
CHECK_NOTES = {
    "single-fix-kills-inseparable-part":
        "strict single-variable form; holds only while every distributive "
        "set has a singleton member (always true up to three variables) and "
        "fails above that; nothing else relies on it",
}


def run_checks(k: int = 2, n_exhaustive: int = 3, n_sampled: int = 4,
               samples: int = 200, seed: int = 0, mutant: str | None = None,
               names: list[str] | None = None, extra_pools=None) -> VerifyRun:
    """Run the named checks (all of them if `names` is None) over the
    configured sweep."""
    if mutant is not None and mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant!r}; choose from {MUTANTS}")
    unknown = set(names or ()) - {name for name, _ in CHECKS}
    if unknown:
        raise ValueError(f"unknown checks {sorted(unknown)}")
    rng = random.Random(seed)
    pools = _function_pool(k, n_exhaustive, n_sampled, samples, seed)
    if extra_pools:
        pools.extend(extra_pools)
    run = VerifyRun()
    census = cache(_census)  # each (f, mutant) built once per call
    for name, fn in CHECKS:
        if names is not None and name not in names:
            continue
        passed, checked, cex = fn(pools, mutant, rng, census)
        run.results.append(CheckResult(name, passed, checked, cex,
                                       note=CHECK_NOTES.get(name, "")))
    return run
