"""Executable checks for the structural results the library relies on.

Each check sweeps a set of functions (exhaustively for small spaces,
randomly sampled above) and confirms one structural property: the
separability/distributivity laws, the diagram lemmas, the depth results,
the invariance of the complexity measures under the symmetric
transformations, and the refinement relations between the three
classifications; a failing one names a function table to replay.  The
four implementation checks read one census per function and mutant, built
once per `run_checks` call from the ess(f)! reduced diagrams (`_census`).

`mutant` corrupts one step (skipping the redundant-node reduction rule) to
prove the checks can fail.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cache
from math import comb
from typing import NamedTuple

from . import diagrams as dg
from . import separability as sp
from .classify import imp_equivalent_direct, imp_signature, scan_space, refinement_check
from .groups import GroupDescriptor, group_elements, output_image
from .kfun import KFunction
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
    # k^64 > 2^16, so capping the exponent keeps the test exact and cheap
    if k ** min(k ** n_exhaustive, 64) > EXHAUSTIVE_POOL:
        raise MemoryError(f"exhaustive sweep of P_{k}^{n_exhaustive} exceeds "
                          f"the pool limit of {EXHAUSTIVE_POOL} functions")
    rng = random.Random(seed)
    pools = []
    for n in range(n_exhaustive + 1):
        pools.append((k, n, list(_exhaustive(k, n))))
    for n in range(n_exhaustive + 1, n_sampled + 1):
        pools.append((k, n, list(_sampled(k, n, samples, rng))))
    return pools


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
    """Counts f with ess(f) <= 5 until `holds(f, census(f, mutant))` fails."""
    checked = 0
    for f in (f for _, _, fns in pools for f in fns if f.ess() <= 5):
        checked += 1
        if not holds(f, census(f, mutant)):
            return False, checked, f.table_text()
    return True, checked, None


# ---------------------------------------------------------------------------
# individual checks; each returns (passed, checked, counterexample)
# ---------------------------------------------------------------------------

def _check_cofactor_laws(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            for i in range(1, n + 1):
                for c in range(k):
                    g = f.cofactor(i, c)
                    checked += 1
                    if g.cofactor(i, c) != g or g.is_essential(i):
                        return False, checked, f.table_text()
                    if not g.essential_set() <= f.essential_set() - {i}:
                        return False, checked, f.table_text()
            ess = f.essential_set()
            for i in sorted(ess)[:2]:
                for j in sorted(ess - {i})[:1]:
                    a = f.cofactor(i, 0).cofactor(j, 1)
                    b = f.cofactor(j, 1).cofactor(i, 0)
                    checked += 1
                    if a != b:
                        return False, checked, f.table_text()
    return True, checked, None


def _check_strongly_essential(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            m = f.ess()
            strong = f.strongly_essential_set()
            checked += 1
            if m >= 1 and not strong:
                return False, checked, f.table_text()
            if m >= 2 and len(strong) < 2:
                return False, checked, f.table_text()
    return True, checked, None


def _inseparable_sets(f: KFunction):
    ess = f.essential_set()
    seps = sp.separable_sets(f)
    for size in range(2, len(ess)):
        for m in itertools.combinations(sorted(ess), size):
            if frozenset(m) not in seps:
                yield frozenset(m)


def _check_distributive_union(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            seps = sp.separable_sets(f)
            for m in _inseparable_sets(f):
                dis = sp.distributive_sets(m, f)
                if not dis:
                    return False, checked, f.table_text()
                for beta in sp.s_systems(dis):
                    checked += 1
                    if m | beta not in seps:
                        return False, checked, f.table_text()
                    for r in range(len(beta)):
                        for alpha in itertools.combinations(sorted(beta), r):
                            if m | frozenset(alpha) in seps:
                                return False, checked, f.table_text()
    return True, checked, None


def _check_single_fix_claim(pools, mutant, rng, census):
    """Single-variable form: fixing any s-system variable kills part of M.

    Holds whenever the distributive family has a singleton member covering
    the variable (always the case for n <= 3), but fails in general: for
    the 4-variable function cf53 with M = {1, 2} the only distributive set
    is {3, 4}, and fixing x3 = 1 keeps all of M essential.  Kept as an
    honest check; the shallow-ordering construction does not rely on it.
    """
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            for m in _inseparable_sets(f):
                dis = sp.distributive_sets(m, f)
                for beta in sp.s_systems(dis):
                    for i in beta:
                        for c in range(k):
                            checked += 1
                            if m <= f.cofactor(i, c).essential_set():
                                return False, checked, \
                                    f"{f.table_text()} M={sorted(m)} x{i}={c}"
    return True, checked, None


def _check_s_system_nonempty(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            for m in _inseparable_sets(f):
                checked += 1
                if not sp.s_systems(sp.distributive_sets(m, f)):
                    return False, checked, f.table_text()
    # random families too
    for _ in range(200):
        fam = [frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
               for _ in range(rng.randint(1, 4))]
        checked += 1
        if not sp.s_systems(fam):
            return False, checked, str(fam)
    return True, checked, None


def _check_transversal_characterization(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            for m in _inseparable_sets(f):
                dis = sp.distributive_sets(m, f)
                checked += 1
                if sp.s_systems(dis) != sp.minimal_transversals(dis):
                    return False, checked, f.table_text()
    for _ in range(200):
        fam = [frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
               for _ in range(rng.randint(1, 4))]
        checked += 1
        if sp.s_systems(fam) != sp.minimal_transversals(fam):
            return False, checked, str(fam)
    return True, checked, None


def _check_hereditary_inseparability(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            seps = sp.separable_sets(f)
            subs = sp.subfunctions(f)
            for m in _inseparable_sets(f):
                for g in subs:
                    if m <= g.essential_set():
                        checked += 1
                        if m in sp.separable_sets(g):
                            return False, checked, f.table_text()
    return True, checked, None


def _check_sep_oracle(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            ess = f.essential_set()
            seps = sp.separable_sets(f)
            for size in range(1, len(ess) + 1):
                for m in itertools.combinations(sorted(ess), size):
                    checked += 1
                    if sp.is_separable(f, m) != (frozenset(m) in seps):
                        return False, checked, f.table_text()
    return True, checked, None


def _check_chains(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            subs = list(sp.subfunctions(f))
            picks = subs if len(subs) <= 6 else rng.sample(subs, 6)
            for g in picks:
                chain = sp.subfunction_chain(f, g)
                checked += 1
                if chain[0] != g or chain[-1] != f:
                    return False, checked, f.table_text()
                for lo, hi in zip(chain, chain[1:]):
                    if hi.ess() != lo.ess() + 1:
                        return False, checked, f.table_text()
                    # one step: a cofactor of hi on one essential variable
                    if not any(lo == hi.cofactor(x, c)
                               for x in hi.essential_set() for c in range(k)):
                        return False, checked, f.table_text()
    return True, checked, None


def _check_label_lemma(pools, mutant, rng, census):
    # orderings over ALL variables: inessential ones must reduce away
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            ess = f.essential_set()
            orders = list(itertools.permutations(range(1, n + 1)))
            if len(orders) > 6:
                orders = rng.sample(orders, 6)
            for order in orders:
                checked += 1
                if dg.diagram_labels(_reduced(f, order, mutant)) != ess:
                    return False, checked, f.table_text()
    return True, checked, None


def _check_reduction_soundness(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            ess = sorted(f.essential_set())
            d = _reduced(f, ess, mutant)
            for ident in range(min(len(f.values), k ** n)):
                m = ident
                point = []
                for _ in range(n):
                    m, digit = divmod(m, k)
                    point.append(digit)
                checked += 1
                if d.eval(point) != f.eval(point):
                    return False, checked, f.table_text()
            # canonical determinism
            if _reduced(f, ess, mutant).canonical_key() != d.canonical_key():
                return False, checked, f.table_text()
    return True, checked, None


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
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            ess = f.essential_set()
            # depth bound over a few orderings
            orders = list(itertools.permutations(sorted(ess)))
            if len(orders) > 4:
                orders = rng.sample(orders, 4)
            for order in orders:
                checked += 1
                if dg.depth(_reduced(f, order, mutant)) > len(ess) + 1:
                    return False, checked, f.table_text()
            if ess:
                order = dg.find_full_depth_ordering(f)
                checked += 1
                if dg.depth(_reduced(f, order, mutant)) != len(ess) + 1:
                    return False, checked, f.table_text()
            for m in _inseparable_sets(f):
                order = dg.find_shallow_ordering(f, m)
                checked += 1
                if dg.depth(_reduced(f, order, mutant)) >= len(ess) + 1:
                    return False, checked, f.table_text()
    return True, checked, None


def _check_output_perm_invariance(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        perms = list(itertools.permutations(range(k)))
        for f in fns:
            if f.ess() > 5:
                continue
            base_imp = dg.imp_count(f)
            base_sub = sp.sub_vector(f)
            for sigma in perms:
                g = output_image(f, sigma)
                checked += 1
                if dg.imp_count(g) != base_imp or sp.sub_vector(g) != base_sub:
                    return False, checked, f.table_text()
    return True, checked, None


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
    checked = 0
    for k, n, fns in pools:
        if n < 1:
            continue
        elements = list(group_elements(GroupDescriptor("fullsym", k, n)))
        if len(elements) > 48:
            elements = rng.sample(elements, 48)
        picks = fns if len(fns) <= 220 else rng.sample(fns, 220)
        for f in picks:
            if f.ess() > 5:
                continue
            base = (dg.imp_count(f), sp.sub_vector(f), sp.sep_vector(f))
            sig = imp_signature(f)
            for t in elements:
                g = t.apply(f)
                checked += 1
                if (dg.imp_count(g), sp.sub_vector(g), sp.sep_vector(g)) != base:
                    return False, checked, f.table_text()
                if imp_signature(g) != sig:
                    return False, checked, f.table_text()
    return True, checked, None


def _check_refinements(pools, mutant, rng, census):
    # refinements on the exhaustively scanned spaces
    checked = 0
    for k, n, fns in pools:
        if n < 2 or len(fns) != k ** (k ** n):
            continue
        if k ** (k ** n) > 1 << 16:
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


def _check_signature_oracle(pools, mutant, rng, census):
    """imp_signature equality must coincide with the direct recursive search."""
    checked = 0
    for k, n, fns in pools:
        if n < 2 or n > 3 or len(fns) != k ** (k ** n) or k != 2:
            continue
        groups: dict[bytes, list[KFunction]] = {}
        for f in fns:
            groups.setdefault(imp_signature(f), []).append(f)
        reps = [fs[0] for fs in groups.values()]
        for sig, members in groups.items():
            rep = members[0]
            for other in members[1:]:
                checked += 1
                if not imp_equivalent_direct(rep, other):
                    return False, checked, other.table_text()
        for a, b in itertools.combinations(reps, 2):
            checked += 1
            if imp_equivalent_direct(a, b):
                return False, checked, f"{a.table_text()}~{b.table_text()}"
    return True, checked, None


def _check_profile_consistency(pools, mutant, rng, census):
    checked = 0
    for k, n, fns in pools:
        for f in fns:
            sub = sp.sub_vector(f)
            sep = sp.sep_vector(f)
            checked += 1
            if sum(sub) != len(sp.subfunctions(f)):
                return False, checked, f.table_text()
            if sum(sep) != len(sp.separable_sets(f)):
                return False, checked, f.table_text()
            ess = f.ess()
            for m, cnt in enumerate(sep, start=1):
                limit = 0 if m > ess else comb(ess, m)
                if cnt > limit:
                    return False, checked, f.table_text()
    return True, checked, None


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
    ("signature-vs-direct-recursion", _check_signature_oracle),
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
    """Run the named checks (all by default) over the configured sweep."""
    if mutant is not None and mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant!r}; choose from {MUTANTS}")
    rng = random.Random(seed)
    pools = _function_pool(k, n_exhaustive, n_sampled, samples, seed)
    if extra_pools:
        pools.extend(extra_pools)
    run = VerifyRun()
    census = cache(_census)  # each (f, mutant) built once per call
    for name, fn in CHECKS:
        if names and name not in names:
            continue
        passed, checked, cex = fn(pools, mutant, rng, census)
        run.results.append(CheckResult(name, passed, checked, cex,
                                       note=CHECK_NOTES.get(name, "")))
    return run
