"""Transformation groups acting on P_k^n and their orbit machinery.

Every transformation used here sends f to the function
x -> rho_x(f(delta(x))) for a bijection delta of the domain Z_k^n and a
per-point output bijection rho_x of Z_k.  That shape is closed under
composition and covers both the affine family (the restricted affine group
and its classical subgroups, where rho_x adds a^t x + d) and the
symmetric family (variable permutations combined with per-variable and
output value permutations).

Every group is a product of parts, each described once in `_PARTS`: its
order, its element at an index and its factors; `_GROUPS` names each
group's parts (a group with linear maps requires a prime radix).  A
group's order is the product of its parts' orders; `group_element` reads
an index as one index per part, the first part most significant, and
composes those elements; `group_elements` lists every element in that
index order.  `Transformation`, `group_element` and `group_elements` are
the element-level API and the oracle the orbit machinery is tested against.

A part's factors are short lists of its elements such that each element
composes one element or the identity of every list: transposition chains
for symmetric groups (Sims), a factor per coordinate for translations,
T U W U for GL(n, k) (Bruhat).  A group's factors are its parts' in turn,
so a least id over the group is one sequential minimum per factor:
`orbit_partition` lowers every id's label to its image's under each factor
element once, and `orbit_minima` reads every orbit's least id and size
off the labels.  A group's base (`_BASE`) is the named group whose parts
are the longest proper prefix of its own (ge's is g, rag's and axa1's
a), so its factors start the group's: the pass resumes from the base's
labels, and the labels of the bases s, g, lg and a are cached read-only,
one space's worth.  `canonical_form` expands one function's orbit over merged
factors (`_merged`): consecutive factors of one part merge into one factor
of all their non-identity products for as long as it cannot exceed
ID_TABLE = 256 elements (ge on P_2^5: 10 factors, 3 merged ones of 119, 31
and 1 elements), so a round is one stacked lookup per chunk of cells and
one sort, and on ids the last round only takes the least image, unsorted.
A merged factor is applied only while the keys so far times its elements
plus one stay within `max_orbit`; otherwise its factors run one at a
time, so the same orbits are refused.  Both passes read an element's
action on ids as partial-sum tables of at most ID_TABLE entries, cached
per part and space (`_part_action`, `_part_rounds`), and hold ids in the
space's id dtype (`_id_dtype`): the narrowest unsigned one that holds
them, so P_2^3's ids take 1 byte, P_2^4's 2 and P_2^5's 4.  Where every
table has 256 entries (k = 2, 4, 16) the expansion reads a chunk's digit
as a byte of the id.  Above ID_SPACE = 2^63 functions (P_2^6, P_3^4, ...)
the expansion runs on `bitops.row_keys` of table rows instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import bitops
from .kfun import KFunction, space_size


class OrbitBudgetError(RuntimeError):
    """Raised when an orbit or space scan would exceed the configured budget."""


# ---------------------------------------------------------------------------
# points of the domain, as columns of `bitops.cell_digits`
# ---------------------------------------------------------------------------

def _cells(points: np.ndarray, k: int) -> list[int]:
    """The cell of each column of an (n, cells) array of digits."""
    return (k ** np.arange(len(points)) @ points).tolist()


def _column(v, n: int) -> np.ndarray:
    """A length-n vector as an (n, 1) column, to add to every point."""
    return np.array(v, np.int64).reshape(n, 1)


def _offset_maps(offsets: np.ndarray, k: int) -> list[list[int]]:
    """Per cell, the output map v -> v + offset mod k."""
    return ((np.arange(k) + offsets.reshape(-1, 1)) % k).tolist()


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

class Transformation:
    """One invertible transformation of P_k^n; compose with ``@``."""

    __slots__ = ("k", "n", "domain_map", "out_maps", "label", "_hash")

    def __init__(self, k, n, domain_map, out_maps, label=""):
        self.k = k
        self.n = n
        self.domain_map = tuple(domain_map)
        self.out_maps = tuple(tuple(m) for m in out_maps)
        self.label = label
        self._hash = hash((k, n, self.domain_map, self.out_maps))

    def __eq__(self, other):
        return (isinstance(other, Transformation)
                and self.k == other.k and self.n == other.n
                and self.domain_map == other.domain_map
                and self.out_maps == other.out_maps)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Transformation({self.label or 'k=%d,n=%d' % (self.k, self.n)})"

    def apply(self, f: KFunction) -> KFunction:
        if (f.k, f.n) != (self.k, self.n):
            raise ValueError("transformation and function dimensions differ")
        vals = bytes(self.out_maps[x][f.values[self.domain_map[x]]]
                     for x in range(len(f.values)))
        return KFunction(f.k, f.n, vals)

    def __matmul__(self, other: "Transformation") -> "Transformation":
        """(t1 @ t2).apply(f) == t1.apply(t2.apply(f))."""
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("cannot compose transformations of different spaces")
        dom = tuple(other.domain_map[self.domain_map[x]]
                    for x in range(len(self.domain_map)))
        outs = tuple(
            tuple(self.out_maps[x][other.out_maps[self.domain_map[x]][v]]
                  for v in range(self.k))
            for x in range(len(self.domain_map)))
        return Transformation(self.k, self.n, dom, outs,
                              f"{self.label}∘{other.label}")


def identity(k: int, n: int) -> Transformation:
    size = k ** n
    return Transformation(k, n, range(size), [range(k)] * size, "id")


def _uniform(k, n, domain_map, out_map, label) -> Transformation:
    return Transformation(k, n, domain_map, [tuple(out_map)] * (k ** n), label)


def var_perm(k: int, n: int, pi: Iterable[int]) -> Transformation:
    """f(x_1,...,x_n) -> f(x_pi(1),...,x_pi(n)) for a permutation of 1..n."""
    p = tuple(pi)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{n}")
    dom = _cells(bitops.cell_digits(k, n)[[i - 1 for i in p]], k)
    return _uniform(k, n, dom, range(k), f"perm{p}")


def arg_translate(k: int, n: int, c: Iterable[int]) -> Transformation:
    """f(x) -> f(x + c) with addition mod k, coordinate-wise."""
    cv = tuple(c)
    if len(cv) != n or any(not 0 <= x < k for x in cv):
        raise ValueError(f"translation vector {cv} is not in Z_{k}^{n}")
    dom = _cells((bitops.cell_digits(k, n) + _column(cv, n)) % k, k)
    return _uniform(k, n, dom, range(k), f"xlate{cv}")


def var_perm_value_maps(k: int, n: int, pi: Iterable[int],
                        sigmas: Iterable[Iterable[int]]) -> Transformation:
    """f(x_1,...,x_n) -> f(sigma_1(x_pi(1)), ..., sigma_n(x_pi(n)))."""
    p = tuple(pi)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{n}")
    sig = [tuple(s) for s in sigmas]
    if len(sig) != n or any(sorted(s) != list(range(k)) for s in sig):
        raise ValueError("each value map must be a permutation of Z_k")
    digits = bitops.cell_digits(k, n)[[i - 1 for i in p]]
    dom = _cells(np.take_along_axis(np.array(sig, np.int64).reshape(n, k),
                                    digits, axis=1), k)
    return _uniform(k, n, dom, range(k), "permvals")


def output_map(k: int, n: int, sigma: Iterable[int]) -> Transformation:
    """f -> sigma . f for a permutation sigma of Z_k."""
    s = tuple(sigma)
    if sorted(s) != list(range(k)):
        raise ValueError(f"{s} is not a permutation of Z_{k}")
    return _uniform(k, n, range(k ** n), s, f"out{s}")


def output_translate(k: int, n: int, j: int) -> Transformation:
    if not 0 <= j < k:
        raise ValueError(f"offset {j} out of range for Z_{k}")
    return output_map(k, n, [(v + j) % k for v in range(k)])


def add_linear(k: int, n: int, a: Iterable[int]) -> Transformation:
    """f(x) -> f(x) + a^t x mod k."""
    av = tuple(a)
    if len(av) != n or any(not 0 <= x < k for x in av):
        raise ValueError(f"coefficient vector {av} is not in Z_{k}^{n}")
    offsets = _column(av, n).T @ bitops.cell_digits(k, n)
    return Transformation(k, n, range(k ** n), _offset_maps(offsets, k),
                          f"lin{av}")


def _is_prime(k: int) -> bool:
    return k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))


def affine(k: int, n: int, mat, c: Iterable[int], a: Iterable[int],
           d: int) -> Transformation:
    """f(x) = g(xA + c) + a^t x + d: the general restricted-affine element."""
    if not _is_prime(k):
        raise ValueError(f"affine transformations require a prime radix, got k={k}")
    rows = [list(r) for r in mat]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix must be n x n")
    digits = bitops.cell_digits(k, n)
    cells = _cells((np.array(rows, np.int64).reshape(n, n).T @ digits
                    + _column(tuple(c), n)) % k, k)
    if not np.bincount(cells, minlength=k ** n).all():  # x -> xA + c misses a cell
        raise ValueError("matrix is singular over Z_k")
    if not 0 <= d < k:
        raise ValueError(f"offset {d} out of range for Z_{k}")
    offsets = _column(tuple(a), n).T @ digits + d
    return Transformation(k, n, cells, _offset_maps(offsets, k), "affine")


def output_image(f: KFunction, sigma: Iterable[int]) -> KFunction:
    """Compose an arbitrary (possibly non-bijective) value map with f.

    Not a group element; provided so the invariance results can be tested
    against their non-bijective counterexamples.
    """
    s = tuple(sigma)
    if len(s) != f.k or any(not 0 <= v < f.k for v in s):
        raise ValueError(f"value map must send Z_{f.k} into itself")
    return KFunction(f.k, f.n, bytes(s[v] for v in f.values))


# ---------------------------------------------------------------------------
# group descriptors: every group is a product of parts
# ---------------------------------------------------------------------------

def _mixed_digits(index: int, bases) -> list[int]:
    """`index`'s digits in the mixed radix `bases`, the first most significant."""
    digits = []
    for base in reversed(bases):
        index, digit = divmod(index, base)
        digits.append(digit)
    return digits[::-1]


def _nth_permutation(items, rank: int) -> tuple[int, ...]:
    """The permutation of the ascending `items` at `rank` in
    `itertools.permutations`' (lexicographic) order."""
    pool = list(items)
    return tuple(pool.pop(j)
                 for j in _mixed_digits(rank, range(len(pool), 0, -1)))


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def _nth_invertible(n: int, k: int, index: int) -> list[tuple[int, ...]]:
    """The nonsingular n x n matrix over Z_k at `index`, lexicographically:
    row r is one of the k^n - k^r vectors outside the rows' span above it."""
    rows: list[tuple[int, ...]] = []
    for d in _mixed_digits(index, [k ** n - k ** r for r in range(n)]):
        span = {tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % k
                      for j in range(n))
                for coeffs in itertools.product(range(k), repeat=len(rows))}
        rows.append([v for v in itertools.product(range(k), repeat=n)
                     if v not in span][d])
    return rows


def _linear(k: int, n: int, mat) -> Transformation:
    return affine(k, n, mat, (0,) * n, (0,) * n, 0)


def _chain(m: int, element) -> list[list[Transformation]]:
    """S_m as the transposition chain T_1, ..., T_{m-1}, T_j = {(i j) : i < j}
    on 0..m-1 (Sims); `element` builds a transposition from its list."""
    return [[element([j if v == i else i if v == j else v for v in range(m)])
             for i in range(j)] for j in range(1, m)]


def _multiples(k: int, n: int, element) -> list[list[Transformation]]:
    """Z_k^n as one factor per coordinate, its non-zero multiples of e_i."""
    return [[element([c * u for u in _unit(n, i)]) for c in range(1, k)]
            for i in range(n)]


def _lg_factors(k: int, n: int) -> list[list[Transformation]]:
    """GL(n, k) = T U W U (Bruhat): the torus diag(1, .., u, .., 1) per
    coordinate, the root subgroups I + c e_rc (r < c) composing U, the
    permutation matrices W as a transposition chain, then U again."""
    def eye_with(r, c, v):
        return _linear(k, n, [[v if (i, j) == (r, c) else int(i == j)
                               for j in range(n)] for i in range(n)])
    roots = [[eye_with(r, c, v) for v in range(1, k)]
             for r in range(n) for c in range(r + 1, n)]
    return ([[eye_with(i, i, u) for u in range(2, k)] for i in range(n)]
            + roots
            + _chain(n, lambda p: _linear(k, n, [_unit(n, r) for r in p]))
            + roots)


class _Part(NamedTuple):
    """A part of groups on P_k^n: order, element at an index, and factors:
    lists of non-identity elements such that every element of the part
    composes one element or the identity of each list."""
    order: Callable[[int, int], int]
    element: Callable[[int, int, int], Transformation]
    factors: Callable[[int, int], list[list[Transformation]]]


_PARTS = {
    # variable permutations, lexicographic
    "s": _Part(lambda k, n: math.factorial(n),
               lambda k, n, i: var_perm(k, n, _nth_permutation(
                   range(1, n + 1), i)),
               lambda k, n: _chain(n, lambda p: var_perm(
                   k, n, [v + 1 for v in p]))),
    # argument translations f(x + c), c in `itertools.product` order
    "ca": _Part(lambda k, n: k ** n,
                lambda k, n, i: arg_translate(k, n, _mixed_digits(i, [k] * n)),
                lambda k, n: _multiples(k, n, lambda c: arg_translate(k, n, c))),
    # output translations f + d
    "cf": _Part(lambda k, n: k,
                lambda k, n, i: output_translate(k, n, i),
                lambda k, n: [[output_translate(k, n, d) for d in range(1, k)]]),
    # added linear functions f + a^t x
    "lf": _Part(lambda k, n: k ** n,
                lambda k, n, i: add_linear(k, n, _mixed_digits(i, [k] * n)),
                lambda k, n: _multiples(k, n, lambda a: add_linear(k, n, a))),
    # linear maps f(xA), A nonsingular (k prime)
    "lg": _Part(lambda k, n: math.prod(k ** n - k ** i for i in range(n)),
                lambda k, n, i: _linear(k, n, _nth_invertible(n, k, i)),
                _lg_factors),
    # output multiplications u * f by the units u = 1, ..., k - 1 (k prime)
    "units": _Part(lambda k, n: k - 1,
                   lambda k, n, i: output_map(k, n, [(i + 1) * v % k
                                                     for v in range(k)]),
                   lambda k, n: [[output_map(k, n, [u * v % k
                                                    for v in range(k)])
                                  for u in range(2, k)]]),
    # a value permutation on every variable, n lexicographic ranks
    "vals": _Part(lambda k, n: math.factorial(k) ** n,
                  lambda k, n, i: var_perm_value_maps(
                      k, n, range(1, n + 1),
                      [_nth_permutation(range(k), r)
                       for r in _mixed_digits(i, [math.factorial(k)] * n)]),
                  lambda k, n: [factor for i in range(n) for factor in _chain(
                      k, lambda s, i=i: var_perm_value_maps(
                          k, n, range(1, n + 1),
                          [s if j == i else range(k) for j in range(n)]))]),
    # output value permutations sigma . f, lexicographic
    "outs": _Part(lambda k, n: math.factorial(k),
                  lambda k, n, i: output_map(k, n, _nth_permutation(range(k), i)),
                  lambda k, n: _chain(k, lambda s: output_map(k, n, s))),
}

# each group's parts, in factor order; an element composes one element
# of every part, first part outermost
_GROUPS = {
    "s": ("s",), "ca": ("ca",), "g": ("s", "ca"), "ge": ("s", "ca", "cf"),
    "cf": ("cf",), "lf": ("lf",), "lg": ("lg",), "a": ("lg", "ca"),
    "axa1": ("lg", "ca", "cf", "units"), "rag": ("lg", "ca", "lf", "cf"),
    "fullsym": ("s", "vals", "outs"),
}
GROUP_NAMES = tuple(_GROUPS)
# each group's base: the named group whose parts are the longest proper
# prefix of its own (g -> s, ge -> g, a -> lg, axa1 -> a, rag -> a,
# fullsym -> s), or None; its factors start the group's
_BASE = {name: max((base for base, prefix in _GROUPS.items()
                    if len(prefix) < len(parts)
                    and parts[:len(prefix)] == prefix),
                   key=lambda base: len(_GROUPS[base]), default=None)
         for name, parts in _GROUPS.items()}


@dataclass(frozen=True)
class GroupDescriptor:
    """A named transformation group on P_k^n."""

    name: str
    k: int
    n: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"radix k must be >= 2, got {self.k}")
        if self.name not in GROUP_NAMES:
            raise ValueError(f"unknown group {self.name!r}; choose from {GROUP_NAMES}")
        if "lg" in _GROUPS[self.name] and not _is_prime(self.k):
            raise ValueError(f"group {self.name!r} requires a prime radix, got k={self.k}")

    def order(self) -> int:
        return math.prod(part.order(self.k, self.n) for part in _parts(self))


def _parts(gd: GroupDescriptor) -> list[_Part]:
    return [_PARTS[part] for part in _GROUPS[gd.name]]


def group_element(gd: GroupDescriptor, index: int) -> Transformation:
    """Element `index` of the group in `group_elements`' order, built alone:
    the index reads as one index per part, the first part most significant,
    so sampling indices samples the group without listing it."""
    k, n = gd.k, gd.n
    if not 0 <= index < gd.order():
        raise ValueError(f"{gd.name} on P_{k}^{n} has no element {index}")
    parts = _parts(gd)
    digits = _mixed_digits(index, [part.order(k, n) for part in parts])
    return functools.reduce(operator.matmul, (
        part.element(k, n, i) for part, i in zip(parts, digits)))


def group_elements(gd: GroupDescriptor) -> Iterator[Transformation]:
    """Every element of the group, lazily, in `group_element`'s order."""
    k, n = gd.k, gd.n
    first, *rest = ([part.element(k, n, i) for i in range(part.order(k, n))]
                    for part in _parts(gd))
    return functools.reduce(lambda outer, inner: (
        t @ u for t in outer for u in inner), rest, iter(first))


def group_generators(gd: GroupDescriptor) -> list[Transformation]:
    """Every factor's elements in turn, which generate the group (the
    identity alone for a trivial group); a new list per call."""
    gens = [t for factor in _action(tuple, gd) for t in factor]
    return gens or [identity(gd.k, gd.n)]


@functools.lru_cache(maxsize=256)
def _part_action(build, part: str, k: int, n: int) -> tuple:
    """`build` of the `_maps` of each of a part's non-empty factors on
    P_k^n (`tuple`: the factors themselves), made once per space and shared
    by the groups with the part."""
    if build is tuple:
        return tuple(tuple(factor) for factor in _PARTS[part].factors(k, n)
                     if factor)
    return tuple(build(_maps(factor))
                 for factor in _part_action(tuple, part, k, n))


def _action(build, gd: GroupDescriptor) -> tuple:
    """`build` of each of the group's factors, its parts' in turn: every
    group element composes one element or the identity of each factor, in
    this order or reversed (each factor with the identity is closed under
    inverses)."""
    return tuple(x for part in _GROUPS[gd.name]
                 for x in _part_action(build, part, gd.k, gd.n))


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

ID_TABLE = 256  # entries per partial-sum table, elements per merged factor
ID_SPACE = 1 << 63  # the largest space whose ids the expansion runs on


def _id_dtype(size: int) -> np.dtype:
    """The dtype of the ids of a space of `size` functions: the narrowest
    unsigned one that holds size - 1 (uint8 up to P_2^3, P_3^1 and P_4^1).
    `_id_images` divides only by tables smaller than 256 entries, so no
    id is ever divided by 256."""
    return np.min_scalar_type(size - 1)


def _maps(factor) -> tuple[np.ndarray, np.ndarray]:
    """A factor's elements as arrays: their (elements, cells) intp domain
    maps and (elements, cells, k) uint8 output maps."""
    return (np.array([t.domain_map for t in factor], np.intp),
            np.array([t.out_maps for t in factor], np.uint8))


def _compose(outer, inner) -> tuple[np.ndarray, np.ndarray]:
    """The `_maps` of t @ u for every t of `outer` and u of `inner`, t
    slowest (`Transformation.__matmul__` on all pairs at once)."""
    (t_dom, t_out), (u_dom, u_out) = outer, inner
    elements, cells, k = t_out.shape
    u, at = np.arange(len(u_dom))[:, None], t_dom[:, None]
    out = t_out[np.arange(elements)[:, None, None, None],
                np.arange(cells)[:, None], u_out[u, at]]
    return u_dom[u, at].reshape(-1, cells), out.reshape(-1, cells, k)


def _distinct(maps) -> tuple[np.ndarray, np.ndarray]:
    """`_maps` with each element once, where it first occurs."""
    dom, out = maps
    rows = np.hstack([dom.view(np.uint8).reshape(len(dom), -1),
                      out.reshape(len(out), -1)])
    first, _ = bitops.group_rows(rows.view(f"V{rows.shape[1]}"))
    first.sort()
    return dom[first], out[first]


def _merged(part: str, k: int, n: int) -> list[tuple[tuple, slice]]:
    """The expansion's factors of a part: runs of its consecutive factors,
    each merged into one factor of every non-identity product t_j ... t_i
    (one element or the identity of each factor, the later one outer)
    while a merged factor cannot exceed ID_TABLE elements; per run, the
    merged factor's `_maps` and the run's slice of the part's factors."""
    factors = _part_action(tuple, part, k, n)
    starts, runs = [], []
    for i, factor in enumerate(factors):
        dom, out = _maps(factor)
        # the identity first, where it stays: the product of the identities
        maps = (np.vstack([np.arange(dom.shape[1]), dom]),
                np.vstack([np.broadcast_to(np.arange(k, dtype=np.uint8),
                                           (1, *out.shape[1:])), out]))
        if runs and len(runs[-1][0]) * len(maps[0]) <= ID_TABLE + 1:
            runs[-1] = _distinct(_compose(maps, runs[-1]))
        else:
            starts.append(i)
            runs.append(maps)
    return [((dom[1:], out[1:]), slice(lo, hi)) for (dom, out), lo, hi
            in zip(runs, starts, starts[1:] + [len(factors)])]


@functools.lru_cache(maxsize=256)
def _part_rounds(build, part: str, k: int, n: int) -> tuple:
    """The expansion's rounds over a part's factors on P_k^n, one per run
    of `_merged`: `build` of the merged factor, its number of elements and
    a callable for `build` of each factor of the run (the cached
    `_part_action`, made only if `_expand` falls back to it)."""
    def factors(span):
        return lambda: _part_action(build, part, k, n)[span]
    return tuple((build(maps), len(maps[0]), factors(span))
                 for maps, span in _merged(part, k, n))


def _rounds(build, gd: GroupDescriptor) -> tuple:
    """The expansion's rounds over the group's factors, its parts' in turn."""
    return tuple(x for part in _GROUPS[gd.name]
                 for x in _part_rounds(build, part, gd.k, gd.n))


def _outer_sum(parts) -> np.ndarray:
    """Every sum of one entry per part, the first part most significant."""
    return functools.reduce(lambda a, b: np.add.outer(a, b).ravel(), parts)


def _readonly(arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _id_action(maps) -> tuple[np.ndarray, ...]:
    """A factor's elements' actions on ids as partial-sum tables: one
    read-only, column-major (elements, k^c) array per chunk of c cells,
    highest first, in the space's `_id_dtype`.

    An element sends id = sum_s k^s v_s to sum_s W[s][v_s], where
    W[s][v] = k^x out[x][v] for the cell x with dom[x] = s.  The cells are
    grouped into chunks of c, the most with k^c <= ID_TABLE, and each
    chunk's W rows are summed into one table of k^c entries, so an
    element's id permutation is `_outer_sum` of its tables.  Only for
    spaces of at most ID_SPACE functions.  An entry plus one entry of
    every other chunk is at most the largest id, so no sum of the tables
    overflows the id dtype.
    """
    dom, out = maps
    elements, cells, k = out.shape
    x = np.argsort(dom, axis=1)
    w = out[np.arange(elements)[:, None], x] * (k ** np.arange(cells))[x, None]
    c = next(c for c in itertools.count(1) if k ** (c + 1) > ID_TABLE)
    tables = []
    for lo in range(0, cells, c):
        hi = min(lo + c, cells)
        mid = (lo + hi) // 2  # a chunk's table: the outer sum of its halves'
        tables.append((_digit_sums(w[:, mid:hi])[:, :, None]
                       + _digit_sums(w[:, lo:mid])[:, None]).reshape(
                           elements, -1).astype(_id_dtype(k ** cells),
                                                order="F"))
    return _readonly(tuple(tables[::-1]))


def _digit_sums(w: np.ndarray) -> np.ndarray:
    """(elements, k^m) for an (elements, m, k) array: at each cell of m
    digits v_j, the sum over j of w[:, j, v_j] (one gather for all)."""
    m, k = w.shape[1:]
    return w[:, np.arange(m)[:, None], bitops.cell_digits(k, m)].sum(axis=1)


def _id_images(ids: np.ndarray, factor) -> np.ndarray:
    """The ids of the images of `ids` under a factor's elements, flat and
    id-major (every element's image of the first id, then of the next),
    from one digit of each id per chunk of cells, looked up in every
    element's table.

    Where every table has 256 entries (k = 2, 4, 16) chunk j's digit is
    byte j of the id, read through a little-endian uint8 view; smaller
    tables (k = 3, 5, 7, ...) take ids % k^c and ids // k^c per chunk.  A
    table is column-major (`_id_action`), so a digit's entries for every
    element are one contiguous row of its transpose, which `take` copies.
    """
    tables = factor[::-1]  # the lowest chunk first
    if all(table.shape[1] == 256 for table in tables):
        digits = np.ascontiguousarray(ids, ids.dtype.newbyteorder("<")).view(
            np.uint8).reshape(ids.size, -1).T
    else:
        digits = []
        for table in tables:
            digits.append(ids % table.shape[1])
            ids = ids // table.shape[1]
    images = 0
    for table, digit in zip(tables, digits):
        images = images + table.T.take(digit, axis=0)
    return images.ravel()


def _row_action(maps) -> tuple[np.ndarray, ...]:
    """Read-only: a factor's elements' domain maps, flat, their output maps
    and each (element g, cell x)'s offset (g * cells + x) * k into those,
    flat."""
    dom, out = maps
    elements, cells, k = out.shape
    return _readonly((dom.ravel(), out,
                      np.arange(0, elements * cells * k, k, dtype=np.int32)))


def _row_images(keys: np.ndarray, factor) -> np.ndarray:
    """The `bitops.row_keys` of the images of the tables with these keys
    under a factor's elements, one gather for all of them."""
    doms, outs, slots = factor
    cells, k = outs.shape[1:]
    rows = bitops.key_rows(keys, k, cells)
    return bitops.row_keys(
        outs.reshape(-1)[rows[:, doms] + slots].reshape(-1, cells), k)


def _expand(keys: np.ndarray, images, rounds, max_orbit: int) -> np.ndarray:
    """Every key `images` reaches from `keys` through each round of
    `_rounds` in turn, ascending: the images of the keys so far join them,
    sorted, equal neighbours masked out.  A round takes its merged factor
    while the keys so far times its elements plus one stay within
    `max_orbit`, else its factors one at a time; both reach the same keys.
    From one key that is t_r ... t_1 of it over one element or the
    identity per factor, its orbit.  Raises OrbitBudgetError once more
    than `max_orbit` keys are held."""
    for merged, elements, factors in rounds:
        for factor in ((merged,) if keys.size * (elements + 1) <= max_orbit
                       else factors()):
            keys = np.sort(np.concatenate([keys, images(keys, factor)]))
            distinct = np.ones(keys.size, bool)
            distinct[1:] = keys[1:] != keys[:-1]
            keys = keys[distinct]
            if keys.size > max_orbit:
                raise OrbitBudgetError(f"orbit exceeds {max_orbit} functions")
    return keys


def canonical_form(f: KFunction, gd: GroupDescriptor,
                   max_orbit: int = 1 << 22) -> KFunction:
    """Orbit element with the smallest table id (the k-ary numeral reading).

    The orbit is expanded over the group's merged factors (`_expand`) on
    function ids in spaces of at most ID_SPACE functions, on the
    `bitops.row_keys` of the tables above that; either way its least key
    is the form.  On ids the last round, where its merged factor fits the
    budget, keeps only the least of the keys and their images: no sort,
    and the union it skips could not have exceeded `max_orbit`, so the
    same orbits are refused.  `max_orbit` bounds the expansion.  Two
    functions are G-equivalent iff their canonical forms coincide.
    """
    if (f.k, f.n) != (gd.k, gd.n):
        raise ValueError("function does not live in the group's space")
    size = space_size(gd.k, gd.n, ID_SPACE)
    if size:
        rounds = _rounds(_id_action, gd)
        keys = _expand(np.array([f.id], _id_dtype(size)), _id_images,
                       rounds[:-1], max_orbit)
        if rounds and keys.size * (rounds[-1][1] + 1) <= max_orbit:
            least = min(keys[0], _id_images(keys, rounds[-1][0]).min())
        else:  # over budget, or no rounds at all
            least = _expand(keys, _id_images, rounds[-1:], max_orbit)[0]
        return KFunction.from_id(int(least), f.k, f.n)
    table = np.frombuffer(f.values, dtype=np.uint8)[None, :]
    least = _expand(bitops.row_keys(table, gd.k), _row_images,
                    _rounds(_row_action, gd), max_orbit)[:1]
    return KFunction(f.k, f.n,
                     bitops.key_rows(least, f.k, len(f.values))[0].tobytes())


# -- whole-space scans (small spaces) ---------------------------------------

def orbit_partition(gd: GroupDescriptor,
                    max_space: int = 1 << 22) -> np.ndarray:
    """Orbit label (the orbit's minimal function id) for every id in the
    space, read-only, in the space's id dtype (`_id_dtype`: uint8 up to
    P_2^3, uint16 on P_2^4, uint32 on P_7^1).

    One pass over the group's factors: every id starts as its own label,
    and each factor element t lowers it to its image's (lab = min(lab,
    lab[t x]), in place), so lab[x] ends as the least id of t_1 ... t_r x
    over one element or the identity per factor: the whole group.  A group
    with a base (`_BASE`) resumes from the base's labels, which are that
    same pass stopped after the base's factors, and lowers them over its
    remaining factors only, so the labels are identical.  The labels of
    the bases s, g, lg and a are cached (`_base_labels`), at most four
    arrays, one space's worth: a repeat call of a base gathers nothing, and
    one of ge, axa1, rag or fullsym only over the parts beyond its base.
    """
    if space_size(gd.k, gd.n, max_space) is None:
        raise OrbitBudgetError(f"P_{gd.k}^{gd.n} has more functions than the "
                               f"scan budget {max_space}")
    return (_base_labels if gd.name in _BASE.values() else _labels)(gd)


@functools.lru_cache(maxsize=4)  # s, g, lg and a: every base of one space
def _base_labels(gd: GroupDescriptor) -> np.ndarray:
    """`_labels` of a group that is another group's base, kept."""
    return _labels(gd)


def _labels(gd: GroupDescriptor) -> np.ndarray:
    """The label pass of `orbit_partition`, from its base's labels (a copy)
    or from every id its own label; read-only labels.

    Each element's id permutation is rebuilt from its cached `_id_action`
    tables into one preallocated intp array (cheaper than holding every
    permutation, and `np.take` gathers with intp indices without copying
    them) and gathered into a spare array in the id dtype.  On P_2^4 the
    labels and the spare take 128 KB each and the permutation 512 KB, and
    the pass allocates no other array of that size.
    """
    k, n = gd.k, gd.n
    size, base = k ** k ** n, _BASE[gd.name]
    if base is None:
        lab, parts = np.arange(size, dtype=_id_dtype(size)), _GROUPS[gd.name]
    else:
        lab = _base_labels(GroupDescriptor(base, k, n)).copy()
        parts = _GROUPS[gd.name][len(_GROUPS[base]):]
    perm, spare = np.empty(size, np.intp), np.empty_like(lab)
    for part in parts:
        for factor in _part_action(_id_action, part, k, n):
            for tables in zip(*factor):  # one element at a time
                *head, last = tables
                ids = last if not head else np.add.outer(
                    _outer_sum(head), last,
                    out=perm.reshape(-1, last.size)).ravel()
                # ids are in range; "clip" keeps np.take from buffering `out`
                np.take(lab, ids, out=spare, mode="clip")
                np.minimum(lab, spare, out=lab)
    lab.flags.writeable = False
    return lab


def orbit_minima(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(minima, sizes) of `orbit_partition` labels: every orbit's least id,
    ascending, and the number of ids in it.  An orbit's minimum is the one
    id that is its own label."""
    minima = np.flatnonzero(labels == np.arange(labels.size,
                                                dtype=labels.dtype))
    return minima, np.bincount(labels)[minima]


def count_orbits(gd: GroupDescriptor, max_space: int = 1 << 22) -> int:
    """t(G): the number of orbits of the group on the whole function space,
    the ids that are their own label."""
    labels = orbit_partition(gd, max_space=max_space)
    return int(np.count_nonzero(
        labels == np.arange(labels.size, dtype=labels.dtype)))
