"""Subfunctions, separable sets, distributive sets and s-systems.

A simple subfunction fixes one currently-essential variable to a constant;
the subfunction preorder is the reflexive-transitive closure of that step.
Restrictions keep the arity and fixing an inessential variable changes
nothing, so Sub(f) is the set of distinct rows of f's restriction lattice
(`bitops`), and sub, sep, Sub(f) and Sep(f) are read off it.  A non-empty
variable set M is separable in f when it is exactly Ess of a subfunction.

A distributive set of an inseparable M is a minimal set J, disjoint from M,
such that every way of fixing all of J kills the essentiality of some member
of M.  An s-system of a family is a transversal in which every element is
the sole representative of some member set.  Dis(M, f) and subfunction
chains are read off the lattice too, so its memory budget bounds them;
`is_separable` and `KFunction`'s cofactors stay the independent checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import bitops
from .kfun import KFunction, VarSet


# ---------------------------------------------------------------------------
# subfunctions and separable sets, read off the restriction lattice
# ---------------------------------------------------------------------------

def subfunctions(f: KFunction) -> set[KFunction]:
    """Sub(f): every table reachable by fixing essential variables, plus f."""
    lattice = bitops.function_lattice(f)
    rows = bitops.key_rows(lattice.keys[bitops.distinct(lattice)[:, 0], 0],
                           f.k, len(f.values))
    return {KFunction._in_range(f.k, f.n, row.tobytes()) for row in rows}


def sub_vector(f: KFunction) -> tuple[int, ...]:
    """(sub_0, ..., sub_n): subfunction counts grouped by essential arity."""
    counts = bitops.sub_counts(bitops.function_lattice(f), f.n)
    return tuple(counts[0].tolist())


def separable_sets(f: KFunction) -> set[VarSet]:
    """Sep(f) = { Ess(g) : g in Sub(f), Ess(g) non-empty }."""
    masks = set(bitops.function_lattice(f).masks[:, 0].tolist())
    return {frozenset(i + 1 for i in range(f.n) if m >> i & 1)
            for m in masks if m}


def sep_vector(f: KFunction) -> tuple[int, ...]:
    """(sep_1, ..., sep_n): separable-set counts by cardinality."""
    counts = bitops.sep_counts(bitops.function_lattice(f).masks, f.n)
    return tuple(counts[0].tolist())


def is_separable(f: KFunction, m: Iterable[int]) -> bool:
    """Direct oracle: scan every assignment of Ess(f) \\ M for Ess = M.

    This deliberately does not reuse the restriction lattice, so it can
    cross-check membership in separable_sets(f).
    """
    mset = frozenset(m)
    ess = f.essential_set()
    if not mset:
        raise ValueError("the empty set is not eligible for separability")
    if not mset <= ess:
        raise ValueError(f"{sorted(mset)} is not a subset of Ess(f) = {sorted(ess)}")
    others = sorted(ess - mset)
    for consts in itertools.product(range(f.k), repeat=len(others)):
        g = f.restrict(dict(zip(others, consts)))
        if g.essential_set() == mset:
            return True
    return False


# ---------------------------------------------------------------------------
# distributive sets and s-systems
# ---------------------------------------------------------------------------

def distributive_sets(m: Iterable[int], f: KFunction) -> frozenset[VarSet]:
    """Dis(M, f): the blocking sets J of M in f, minimal under inclusion.

    J blocks M iff no row of f's restriction lattice that fixes exactly J
    keeps all of M essential.  The fixed sets of the rows that do are closed
    under subsets, so J is minimal iff it blocks and dropping any one of its
    variables does not.  Empty iff M is separable.
    """
    mset = frozenset(m)
    ess = f.essential_set()
    if not mset:
        raise ValueError("M must be non-empty")
    if not mset <= ess:
        raise ValueError(f"{sorted(mset)} is not a subset of Ess(f) = {sorted(ess)}")
    lattice = bitops.function_lattice(f)
    want = sum(1 << (i - 1) for i in mset)
    keeps = (lattice.masks[:, 0] & want) == want
    kept = set(bitops.fixed_masks(lattice.variables, f.k)[keeps].tolist())
    found = set()
    pool = sorted(ess - mset)
    for size in range(1, len(pool) + 1):
        for j in itertools.combinations(pool, size):
            bits = [1 << (i - 1) for i in j]
            fixed = sum(bits)
            if fixed not in kept and all(fixed - bit in kept for bit in bits):
                found.add(frozenset(j))
    return frozenset(found)


def s_systems(family: Iterable[Iterable[int]]) -> frozenset[VarSet]:
    """Sys(F): subsets hitting every member, each element a sole hit somewhere.

    Exhaustive subset enumeration; families arising from distributive sets
    are tiny, and this doubles as the reference oracle.
    """
    fam = {frozenset(p) for p in family}
    if any(not p for p in fam):
        raise ValueError("family members must be non-empty")
    universe = sorted(set().union(*fam)) if fam else []
    out = set()
    for size in range(len(universe) + 1):
        for beta in itertools.combinations(universe, size):
            bset = frozenset(beta)
            if any(not (bset & p) for p in fam):
                continue
            if all(any(bset & p == {x} for p in fam) for x in bset):
                out.add(bset)
    return frozenset(out)


def minimal_transversals(family: Iterable[Iterable[int]]) -> frozenset[VarSet]:
    """Hitting sets none of whose proper subsets still hit everything.

    Independent of s_systems; the two agree on every family (the
    characterization of s-systems as minimal transversals).
    """
    fam = {frozenset(p) for p in family}
    if any(not p for p in fam):
        raise ValueError("family members must be non-empty")
    universe = sorted(set().union(*fam)) if fam else []
    hitting = []
    for size in range(len(universe) + 1):
        for beta in itertools.combinations(universe, size):
            bset = frozenset(beta)
            if all(bset & p for p in fam):
                hitting.append(bset)
    return frozenset(b for b in hitting
                     if not any(h < b for h in hitting))


# ---------------------------------------------------------------------------
# subfunction chains
# ---------------------------------------------------------------------------

def subfunction_chain(f: KFunction, g: KFunction) -> list[KFunction]:
    """A chain g = h_0 < h_1 < ... < h_t = f with ess rising by 1 per link.

    Each link fixes a single essential variable of the larger function:
    `bitops.descent` walks f's restriction lattice down to a row whose table
    is g.  Existence for any g in Sub(f) is a theorem.
    """
    if (g.k, g.n) != (f.k, f.n):
        raise ValueError("g must live in the same space as f")
    lattice = bitops.function_lattice(f)
    is_g = lattice.keys[:, 0] == bitops.row_keys(
        np.frombuffer(g.values, np.uint8)[None], f.k)
    if not is_g.any():
        raise ValueError("g is not a subfunction of f")
    path = bitops.descent(lattice, f.k, is_g)
    if path is None:  # unreachable if the chain theorem holds
        raise RuntimeError("no essential-increment chain found")
    rows = bitops.key_rows(lattice.keys[path[::-1], 0], f.k, len(f.values))
    return [KFunction._in_range(f.k, f.n, row.tobytes()) for row in rows]


# ---------------------------------------------------------------------------
# complexity profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityProfile:
    """The three per-function complexity measures in one record."""

    imp: int
    sub: tuple[int, ...]
    sep: tuple[int, ...]

    @property
    def sub_total(self) -> int:
        return sum(self.sub)

    @property
    def sep_total(self) -> int:
        return sum(self.sep)
