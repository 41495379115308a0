"""Transformation groups acting on P_k^n and their orbit machinery.

Every transformation used here sends f to the function
x -> rho_x(f(delta(x))) for a bijection delta of the domain Z_k^n and a
per-point output bijection rho_x of Z_k.  That shape is closed under
composition and covers both the affine family (the restricted affine group
and its classical subgroups, where rho_x adds a^t x + d) and the
symmetric family (variable permutations combined with per-variable and
output value permutations).

Group names: s, ca, g, ge, cf, lf, lg, a, axa1, rag, fullsym.  The linear
and affine ones (lg, a, axa1, rag) require a prime radix.

`Transformation` and `group_elements` are the element-level API and the
oracle the orbit machinery is tested against.  The orbit machinery itself
works on numpy arrays from the generators only: `orbit_partition` keeps
each generator's action on the function ids as a few partial-sum tables
of at most ID_TABLE entries, rebuilds the id permutation from them as one
broadcast sum per round and propagates minimum labels until they settle,
and `count_orbits` counts the ids that are their own label;
`canonical_form` expands one orbit as a frontier BFS over table rows, one
gather per level.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import bitops
from .kfun import KFunction


class OrbitBudgetError(RuntimeError):
    """Raised when an orbit or space scan would exceed the configured budget."""


# ---------------------------------------------------------------------------
# points of the domain
# ---------------------------------------------------------------------------

def _points(k: int, n: int) -> list[tuple[int, ...]]:
    pts = []
    for idx in range(k ** n):
        m = idx
        p = []
        for _ in range(n):
            m, d = divmod(m, k)
            p.append(d)
        pts.append(tuple(p))
    return pts


def _point_index(p, k: int) -> int:
    idx = 0
    for a in reversed(p):
        idx = idx * k + a
    return idx


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
    pts = _points(k, n)
    dom = [_point_index(tuple(pt[p[i] - 1] for i in range(n)), k) for pt in pts]
    return _uniform(k, n, dom, range(k), f"perm{p}")


def arg_translate(k: int, n: int, c: Iterable[int]) -> Transformation:
    """f(x) -> f(x + c) with addition mod k, coordinate-wise."""
    cv = tuple(c)
    if len(cv) != n or any(not 0 <= x < k for x in cv):
        raise ValueError(f"translation vector {cv} is not in Z_{k}^{n}")
    pts = _points(k, n)
    dom = [_point_index(tuple((a + b) % k for a, b in zip(pt, cv)), k) for pt in pts]
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
    pts = _points(k, n)
    dom = [_point_index(tuple(sig[i][pt[p[i] - 1]] for i in range(n)), k)
           for pt in pts]
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
    pts = _points(k, n)
    outs = []
    for pt in pts:
        off = sum(ai * xi for ai, xi in zip(av, pt)) % k
        outs.append(tuple((v + off) % k for v in range(k)))
    return Transformation(k, n, range(k ** n), outs, f"lin{av}")


def _is_prime(k: int) -> bool:
    return k >= 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))


def _mat_nonsingular(mat, k: int) -> bool:
    m = [row[:] for row in mat]
    n = len(m)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] % k), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, k)
        for r in range(col + 1, n):
            factor = m[r][col] * inv % k
            if factor:
                m[r] = [(m[r][j] - factor * m[col][j]) % k for j in range(n)]
    return True


def affine(k: int, n: int, mat, c: Iterable[int], a: Iterable[int],
           d: int) -> Transformation:
    """f(x) = g(xA + c) + a^t x + d: the general restricted-affine element."""
    if not _is_prime(k):
        raise ValueError(f"affine transformations require a prime radix, got k={k}")
    rows = [list(r) for r in mat]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix must be n x n")
    if not _mat_nonsingular(rows, k):
        raise ValueError("matrix is singular over Z_k")
    cv, av = tuple(c), tuple(a)
    if not 0 <= d < k:
        raise ValueError(f"offset {d} out of range for Z_{k}")
    pts = _points(k, n)
    dom = []
    outs = []
    for pt in pts:
        img = tuple((sum(pt[i] * rows[i][j] for i in range(n)) + cv[j]) % k
                    for j in range(n))
        dom.append(_point_index(img, k))
        off = (sum(ai * xi for ai, xi in zip(av, pt)) + d) % k
        outs.append(tuple((v + off) % k for v in range(k)))
    return Transformation(k, n, dom, outs, "affine")


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
# group descriptors
# ---------------------------------------------------------------------------

GROUP_NAMES = ("s", "ca", "g", "ge", "cf", "lf", "lg", "a", "axa1", "rag",
               "fullsym")
_LINEAR = {"lg", "a", "axa1", "rag"}


def _factorial(m: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def _gl_order(n: int, k: int) -> int:
    out = 1
    for i in range(n):
        out *= k ** n - k ** i
    return out


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
        if self.name in _LINEAR and not _is_prime(self.k):
            raise ValueError(f"group {self.name!r} requires a prime radix, got k={self.k}")

    def order(self) -> int:
        k, n = self.k, self.n
        return {
            "s": _factorial(n),
            "ca": k ** n,
            "g": _factorial(n) * k ** n,
            "ge": _factorial(n) * k ** n * k,
            "cf": k,
            "lf": k ** n,
            "lg": _gl_order(n, k),
            "a": _gl_order(n, k) * k ** n,
            "axa1": _gl_order(n, k) * k ** n * k * (k - 1),
            "rag": _gl_order(n, k) * k ** n * k ** n * k,
            "fullsym": _factorial(n) * _factorial(k) ** n * _factorial(k),
        }[self.name]


def _invertible_matrices(n: int, k: int) -> Iterator[list[list[int]]]:
    for flat in itertools.product(range(k), repeat=n * n):
        mat = [list(flat[r * n:(r + 1) * n]) for r in range(n)]
        if _mat_nonsingular(mat, k):
            yield mat


def group_elements(gd: GroupDescriptor) -> Iterator[Transformation]:
    """Enumerate every element of the group (lazily; rag/a can be large)."""
    k, n = gd.k, gd.n
    perms = list(itertools.permutations(range(1, n + 1)))
    vectors = list(itertools.product(range(k), repeat=n))
    name = gd.name
    if name == "s":
        for p in perms:
            yield var_perm(k, n, p)
    elif name == "ca":
        for c in vectors:
            yield arg_translate(k, n, c)
    elif name == "g":
        for p in perms:
            tp = var_perm(k, n, p)
            for c in vectors:
                yield tp @ arg_translate(k, n, c)
    elif name == "ge":
        for p in perms:
            tp = var_perm(k, n, p)
            for c in vectors:
                tc = tp @ arg_translate(k, n, c)
                for d in range(k):
                    yield output_translate(k, n, d) @ tc
    elif name == "cf":
        for d in range(k):
            yield output_translate(k, n, d)
    elif name == "lf":
        for a in vectors:
            yield add_linear(k, n, a)
    elif name == "lg":
        for mat in _invertible_matrices(n, k):
            yield affine(k, n, mat, (0,) * n, (0,) * n, 0)
    elif name == "a":
        for mat in _invertible_matrices(n, k):
            for c in vectors:
                yield affine(k, n, mat, c, (0,) * n, 0)
    elif name == "axa1":
        units = [u for u in range(1, k)]
        for mat in _invertible_matrices(n, k):
            for c in vectors:
                base = affine(k, n, mat, c, (0,) * n, 0)
                for u in units:
                    for d in range(k):
                        out = output_map(k, n, [(u * v + d) % k for v in range(k)])
                        yield out @ base
    elif name == "rag":
        for mat in _invertible_matrices(n, k):
            for c in vectors:
                for a in vectors:
                    for d in range(k):
                        yield affine(k, n, mat, c, a, d)
    elif name == "fullsym":
        value_perms = list(itertools.permutations(range(k)))
        for p in perms:
            for sigs in itertools.product(value_perms, repeat=n):
                base = var_perm_value_maps(k, n, p, sigs)
                for so in value_perms:
                    yield output_map(k, n, so) @ base


def group_generators(gd: GroupDescriptor) -> list[Transformation]:
    """A small generating set (used by the orbit scans); a new list per call."""
    return list(_generators(gd))


@functools.lru_cache(maxsize=64)
def _generators(gd: GroupDescriptor) -> tuple[Transformation, ...]:
    k, n = gd.k, gd.n
    gens: list[Transformation] = []

    def add_s():
        for i in range(1, n):
            p = list(range(1, n + 1))
            p[i - 1], p[i] = p[i], p[i - 1]
            gens.append(var_perm(k, n, p))

    def add_ca():
        for i in range(n):
            c = [0] * n
            c[i] = 1
            gens.append(arg_translate(k, n, c))

    def add_cf():
        gens.append(output_translate(k, n, 1))

    def add_lf():
        for i in range(n):
            a = [0] * n
            a[i] = 1
            gens.append(add_linear(k, n, a))

    def add_lg():
        eye = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for r in range(n):
            for c in range(n):
                if r == c:
                    continue
                mat = [row[:] for row in eye]
                mat[r][c] = 1
                gens.append(affine(k, n, mat, (0,) * n, (0,) * n, 0))
        if k > 2 and n >= 1:
            for u in range(2, k):  # any unit; all of them keeps it simple
                mat = [row[:] for row in eye]
                mat[0][0] = u
                gens.append(affine(k, n, mat, (0,) * n, (0,) * n, 0))

    def add_value_perms():
        swap = [1, 0] + list(range(2, k))
        cyc = [(v + 1) % k for v in range(k)]
        ident = list(range(1, n + 1))
        for i in range(n):
            for s in (swap, cyc):
                sigs = [list(range(k)) for _ in range(n)]
                sigs[i] = s
                gens.append(var_perm_value_maps(k, n, ident, sigs))

    def add_output_perms():
        gens.append(output_map(k, n, [1, 0] + list(range(2, k))))
        gens.append(output_map(k, n, [(v + 1) % k for v in range(k)]))

    name = gd.name
    if name == "s":
        add_s()
    elif name == "ca":
        add_ca()
    elif name == "g":
        add_s(); add_ca()
    elif name == "ge":
        add_s(); add_ca(); add_cf()
    elif name == "cf":
        add_cf()
    elif name == "lf":
        add_lf()
    elif name == "lg":
        add_lg()
    elif name == "a":
        add_lg(); add_ca()
    elif name == "axa1":
        add_lg(); add_ca(); add_cf()
        if k > 2:
            for u in range(2, k):
                gens.append(output_map(gd.k, n, [u * v % k for v in range(k)]))
    elif name == "rag":
        add_lg(); add_ca(); add_lf(); add_cf()
    elif name == "fullsym":
        add_s(); add_value_perms(); add_output_perms()
    if not gens:
        gens.append(identity(k, n))
    return tuple(gens)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def _orbit_rows(f: KFunction, gd: GroupDescriptor,
                max_orbit: int = 1 << 22) -> np.ndarray:
    """Every table of f's orbit as uint8 rows, ascending by id.

    A frontier BFS: the images of a whole frontier under every generator
    are one gather, and new tables are found by looking their keys
    (`bitops.row_keys`, ordered like the ids) up among the sorted keys seen
    so far.  Raises OrbitBudgetError once more than `max_orbit` tables are
    seen.
    """
    k, cells = gd.k, gd.k ** gd.n
    gens = group_generators(gd)
    doms = np.concatenate([np.asarray(t.domain_map, np.intp) for t in gens])
    # every generator's out_maps, flat: (g, x, v) at (g * cells + x) * k + v
    outs = np.concatenate([np.asarray(t.out_maps, np.uint8).ravel()
                           for t in gens])
    slots = np.arange(0, len(gens) * cells * k, k, dtype=np.int32)
    frontier = np.frombuffer(f.values, dtype=np.uint8)[None, :]
    seen = bitops.row_keys(frontier, k)  # sorted
    rows, keys = [frontier], [seen]
    while True:
        images = outs[frontier[:, doms] + slots].reshape(-1, cells)
        found, first = np.unique(bitops.row_keys(images, k), return_index=True)
        at = np.searchsorted(seen, found)
        at[at == len(seen)] = 0
        fresh = seen[at] != found
        if not fresh.any():
            break
        frontier = images[first[fresh]]
        seen = np.sort(np.concatenate([seen, found[fresh]]))
        if seen.size > max_orbit:
            raise OrbitBudgetError(f"orbit exceeds {max_orbit} functions")
        rows.append(frontier)
        keys.append(found[fresh])
    return np.concatenate(rows)[np.argsort(np.concatenate(keys))]


def canonical_form(f: KFunction, gd: GroupDescriptor,
                   max_orbit: int = 1 << 22) -> KFunction:
    """Orbit element with the smallest table id (the k-ary numeral reading).

    Two functions are G-equivalent iff their canonical forms coincide.  The
    orbit is expanded breadth-first from the generators, a whole frontier
    per numpy gather; `max_orbit` bounds the expansion.
    """
    if (f.k, f.n) != (gd.k, gd.n):
        raise ValueError("function does not live in the group's space")
    return KFunction(f.k, f.n, _orbit_rows(f, gd, max_orbit)[0].tobytes())


# -- whole-space scans (small spaces) ---------------------------------------

ID_TABLE = 256  # entries per partial-sum table of a generator's id action


def _outer_sum(parts) -> np.ndarray:
    """Every sum of one entry per part, the first part most significant."""
    return functools.reduce(lambda a, b: np.add.outer(a, b).ravel(), parts)


def _id_tables(t: Transformation) -> list[np.ndarray]:
    """t's action on ids as partial-sum tables, highest cells first.

    t sends id = sum_s k^s v_s to sum_s W[s][v_s], where
    W[s][v] = k^x out_maps[x][v] for the cell x with domain_map[x] = s.
    The cells are grouped into chunks of c, the most with k^c <= ID_TABLE,
    and each chunk's W rows are summed into one table of k^c entries, so
    the id permutation is `_outer_sum` of the tables.
    """
    k, cells = t.k, len(t.domain_map)
    x = np.argsort(t.domain_map)
    w = np.asarray(t.out_maps, np.intp)[x] * k ** x[:, None]
    c = next(c for c in itertools.count(1) if k ** (c + 1) > ID_TABLE)
    return [_outer_sum(w[lo:lo + c][::-1])
            for lo in range(0, cells, c)][::-1]


def orbit_partition(gd: GroupDescriptor,
                    max_space: int = 1 << 22) -> np.ndarray:
    """Orbit label (the orbit's minimal function id) for every id in the space.

    Min-label propagation: every id starts as its own label, and each round
    lowers a label to the labels of its images and preimages under every
    generator, then jumps pointers (lab = lab[lab]).  A label only ever
    falls to another id of the same orbit, so the fixed point is the orbit
    minimum.  Only each generator's `_id_tables` (a few KB) are kept; its
    intp id permutation is rebuilt from them as one broadcast sum per
    round, which is cheaper than holding it and than indexing with int32.
    """
    size = gd.k ** (gd.k ** gd.n)
    if size > max_space:
        raise OrbitBudgetError(
            f"space of {size} functions exceeds the scan budget {max_space}")
    tables = [_id_tables(t) for t in group_generators(gd)]
    lab = np.arange(size, dtype=np.intp)
    pulled = np.empty_like(lab)
    while True:
        before = lab.copy()
        for parts in tables:
            perm = _outer_sum(parts)
            np.minimum(lab, lab[perm], out=lab)  # from the image
            pulled[perm] = lab                   # from the preimage
            np.minimum(lab, pulled, out=lab)
        lab = lab[lab]
        if np.array_equal(lab, before):
            return lab.astype(np.int64)


def orbit_transversal(gd: GroupDescriptor,
                      max_space: int = 1 << 22) -> list[tuple[KFunction, int]]:
    """One (representative, orbit size) pair per orbit, ascending by id."""
    labels = orbit_partition(gd, max_space=max_space)
    reps, counts = np.unique(labels, return_counts=True)
    return [(KFunction.from_id(int(r), gd.k, gd.n), int(c))
            for r, c in zip(reps, counts)]


def count_orbits(gd: GroupDescriptor, max_space: int = 1 << 22) -> int:
    """t(G): the number of orbits of the group on the whole function space.

    Each orbit has exactly one id that is its own label, its minimum.
    """
    labels = orbit_partition(gd, max_space=max_space)
    return int(np.count_nonzero(labels == np.arange(labels.size)))
