"""Ordered decomposition trees, reduced decision diagrams, implementations.

An ODT branches on the variables of an ordering, one level per variable,
with k-way branching and terminals in Z_k.  The ODD is obtained by the two
reduction rules (merge equal terminals / equal-shaped internal nodes,
remove nodes whose children coincide) applied to exhaustion; for a fixed
function and ordering the result is canonical.

`build_odt` takes the tree's shape from a cached per-(k, depth) post-order
node table and reads every leaf value with one gather: a leaf's cell is
its branch digits (`bitops.cell_digits`) weighted by k^(x-1) over the
ordering.  `reduce` is one bottom-up pass with a list as the old-to-new
index map and an insertion-ordered dict as the new node table.

An implementation is a root-to-terminal label path, recorded as the word of
node labels, the word of edge values, and the terminal value.  Edges to a
shared child with different values count as distinct paths.  Imp(f) is the
union of path sets over the diagrams of all orderings of Ess(f), with
duplicates across orderings collapsed.

`implementations` enumerates Imp(f) through ess(f)! diagrams and refuses
above 8 essential variables.  `imp_count` counts it on the restriction
lattice instead, at every radix, within the lattice's memory budget.

The two depth orderings are built, not searched: `find_full_depth_ordering`
reads a walk over strongly essential variables off the same lattice, and
`find_shallow_ordering` puts a whole distributive set first.  Neither
builds a diagram; `verify` checks their depths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bitops
from .kfun import KFunction, VarSet
from .separability import distributive_sets, s_systems


class DiagramBudgetError(RuntimeError):
    """Raised when an ordering enumeration would exceed the configured limit."""


@dataclass(frozen=True)
class Implementation:
    """A labelled root-to-terminal path: variable word, constants word, output."""

    vars: tuple[int, ...]
    consts: tuple[int, ...]
    output: int

    @property
    def vars_word(self) -> str:
        return "".join(str(i) for i in self.vars)

    @property
    def consts_word(self) -> str:
        """Edge constants followed by the terminal value, as one word."""
        return "".join(str(c) for c in self.consts) + str(self.output)

    def __repr__(self) -> str:
        return f"({self.vars_word},{self.consts_word})"

    def to_json_dict(self) -> dict:
        return {"vars": self.vars_word, "consts": self.consts_word}


class OrderedDiagram:
    """Node-table form of an ODT/ODD.

    `nodes[i]` is either ("T", value) or ("N", var, children) with children
    a tuple of node indices; children precede parents, `root` is the last
    index.  The tuple form doubles as a canonical serialization: reducing
    the same function under the same ordering always yields equal tuples.
    """

    __slots__ = ("k", "n", "ordering", "nodes", "root", "reduced")

    def __init__(self, k, n, ordering, nodes, root, reduced):
        self.k = k
        self.n = n
        self.ordering = tuple(ordering)
        self.nodes = tuple(nodes)
        self.root = root
        self.reduced = reduced

    def canonical_key(self):
        return (self.k, self.n, self.ordering, self.nodes, self.root)

    def node_count(self) -> int:
        return len(self.nodes)

    def internal_count(self) -> int:
        return sum(1 for nd in self.nodes if nd[0] == "N")

    def terminal_count(self) -> int:
        return sum(1 for nd in self.nodes if nd[0] == "T")

    def eval(self, point) -> int:
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.n}")
        for a in point:
            if not 0 <= a < self.k:
                raise ValueError(f"coordinate {a} out of range for Z_{self.k}")
        node = self.nodes[self.root]
        while node[0] == "N":
            node = self.nodes[node[2][point[node[1] - 1]]]
        return node[1]


def build_odt(f: KFunction, ordering) -> OrderedDiagram:
    """Complete decomposition tree of f under the given variable ordering.

    The ordering must consist of distinct variables of f and cover Ess(f)
    (a permutation of {1..n} always qualifies); variables outside the
    ordering do not affect the leaves.
    """
    order = tuple(ordering)
    if len(set(order)) != len(order) or any(not 1 <= i <= f.n for i in order):
        raise ValueError(f"ordering {order} is not a sequence of distinct "
                         f"variables in 1..{f.n}")
    missing = f.essential_set() - set(order)
    if missing:
        raise ValueError(f"ordering {order} omits essential variables {sorted(missing)}")

    m = len(order)
    weights = np.array([f.k ** (i - 1) for i in order], np.int64)
    cells = weights @ bitops.cell_digits(f.k, m)[::-1]
    leaves = np.frombuffer(f.values, np.uint8)[cells].tolist()
    nodes = [("T", leaves[at]) if level == m else ("N", order[level], at)
             for level, at in _tree_shape(f.k, m)]
    return OrderedDiagram(f.k, f.n, order, nodes, len(nodes) - 1, reduced=False)


@lru_cache(maxsize=32)
def _tree_shape(k: int, m: int) -> tuple[tuple, ...]:
    """The complete k-ary tree of depth m in post-order: per node its depth
    and, for an internal node, its children's indices, for a leaf its rank
    among the leaves (the leaves run through Z_k^m with depth 0 slowest)."""
    shape: list[tuple] = []
    leaves = itertools.count()

    def rec(level: int) -> int:
        if level == m:
            shape.append((m, next(leaves)))
        else:
            children = tuple(rec(level + 1) for _ in range(k))
            shape.append((level, children))
        return len(shape) - 1

    rec(0)
    return tuple(shape)


def reduce(d: OrderedDiagram, _remove_rule: bool = True) -> OrderedDiagram:
    """Apply the merge and remove rules to exhaustion.

    One bottom-up pass suffices because children are canonicalized before
    their parents.  `_remove_rule=False` disables the redundant-node rule;
    it exists only as a negative control for the verification suite.
    """
    remap: list[int] = []  # old node index -> new node index
    cache: dict = {}       # node -> new index, in insertion order
    for nd in d.nodes:
        if nd[0] == "N":
            children = tuple([remap[c] for c in nd[2]])
            if _remove_rule and children.count(children[0]) == len(children):
                remap.append(children[0])
                continue
            nd = ("N", nd[1], children)
        remap.append(cache.setdefault(nd, len(cache)))
    return OrderedDiagram(d.k, d.n, d.ordering, tuple(cache), remap[d.root],
                          reduced=True)


def _require_reduced(d: OrderedDiagram) -> None:
    if not d.reduced:
        raise ValueError("operation requires a reduced diagram")


def diagram_labels(d: OrderedDiagram) -> VarSet:
    """Variables appearing as internal-node labels (equals Ess(f) once reduced)."""
    _require_reduced(d)
    return frozenset(nd[1] for nd in d.nodes if nd[0] == "N")


def depth(d: OrderedDiagram) -> int:
    """Edge count of the longest function-node-to-terminal path.

    The function node contributes one edge, so a bare terminal has depth 1.
    """
    _require_reduced(d)
    longest = [0] * len(d.nodes)
    for i, nd in enumerate(d.nodes):
        if nd[0] == "N":
            longest[i] = 1 + max(longest[c] for c in nd[2])
    return longest[d.root] + 1


def path_count(d: OrderedDiagram) -> int:
    """imp(D): number of root-to-terminal label paths."""
    counts = [1] * len(d.nodes)
    for i, nd in enumerate(d.nodes):
        if nd[0] == "N":
            counts[i] = sum(counts[c] for c in nd[2])
    return counts[d.root]


def implementations_of(d: OrderedDiagram) -> frozenset[Implementation]:
    """Imp(D): one implementation per distinct label path of the diagram."""
    _require_reduced(d)
    out = []

    def walk(idx: int, vars_acc: tuple, consts_acc: tuple):
        nd = d.nodes[idx]
        if nd[0] == "T":
            out.append(Implementation(vars_acc, consts_acc, nd[1]))
            return
        for c, child in enumerate(nd[2]):
            walk(child, vars_acc + (nd[1],), consts_acc + (c,))

    walk(d.root, (), ())
    return frozenset(out)


def implementations(f: KFunction, max_vars: int = 8) -> frozenset[Implementation]:
    """Imp(f): union of Imp(D) over all orderings of Ess(f).

    Runs ess(f)! diagram constructions; refuses above `max_vars` essential
    variables.
    """
    ess = sorted(f.essential_set())
    if len(ess) > max_vars:
        raise DiagramBudgetError(
            f"{len(ess)} essential variables exceed the ordering budget {max_vars}")
    out: set[Implementation] = set()
    for order in itertools.permutations(ess):
        out |= implementations_of(reduce(build_odt(f, order)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# implementation counting
# ---------------------------------------------------------------------------

def imp_count_word(w: int, n: int) -> int:
    """imp value of a packed binary table."""
    return imp_count(KFunction.from_word(w, n))


def imp_count(f: KFunction) -> int:
    """imp(f) = |Imp(f)|, for every k, without building a diagram.

    Every implementation is a sequence of (essential variable, value) steps
    ending in a constant, and every such sequence is one label path of the
    reduced diagram under an ordering that starts with its variables.  So
    imp is 1 at ess 0, k at ess 1 and otherwise the sum over essential x
    and c in Z_k of imp(f[x := c]); `bitops.imp_counts` runs this level by
    level over f's restriction lattice.  `implementations` and
    `imp_count_recursive` are the independent checks of this count.
    """
    return int(bitops.imp_counts(bitops.function_lattice(f), f.k)[0])


def imp_count_recursive(f: KFunction) -> int:
    """The same recursion over `KFunction.cofactor`, memoized by table:
    base k at ess 1, sum over all k cofactor values of each essential
    variable.  An independent check of `imp_count`; both are compared with
    enumeration at every radix.
    """
    memo: dict[bytes, int] = {}

    def rec(g: KFunction) -> int:
        hit = memo.get(g.values)
        if hit is not None:
            return hit
        ess = g.essential_set()
        if len(ess) == 0:
            val = 1
        elif len(ess) == 1:
            val = g.k
        else:
            val = sum(rec(g.cofactor(i, c))
                      for i in ess for c in range(g.k))
        memo[g.values] = val
        return val

    return rec(f)


# ---------------------------------------------------------------------------
# depth search
# ---------------------------------------------------------------------------

def find_full_depth_ordering(f: KFunction) -> tuple[int, ...]:
    """An ordering whose reduced diagram reaches the maximal depth ess(f)+1.

    Branching on a strongly essential variable (one whose fixing can
    preserve every other essential variable) at every step pins a
    full-length path: `bitops.descent` walks f's restriction lattice down
    to a constant that way, and the ordering is the variables it fixes.
    Every row on the walk keeps all the essential variables not yet fixed,
    so its path has ess(f) internal nodes.
    """
    if not f.essential_set():
        raise ValueError("f has no essential variables")
    lattice = bitops.function_lattice(f)
    path = bitops.descent(lattice, f.k, lattice.masks[:, 0] == 0)
    if path is None:  # unreachable if strongly essential variables exist
        raise RuntimeError("no full-depth ordering found")
    fixed = bitops.fixed_masks(lattice.variables, f.k)
    return tuple(int(fixed[lo] ^ fixed[hi]).bit_length()
                 for hi, lo in zip(path, path[1:]))


def find_shallow_ordering(f: KFunction, m) -> tuple[int, ...]:
    """An ordering whose diagram stays below depth ess(f)+1.

    Requires a non-empty inseparable M strictly inside Ess(f).  Branching
    on an entire minimal distributive set J of M first guarantees the
    bound: below any full assignment of J some member of M has gone
    inessential, so no path carries all of Ess(f).  The leading variable is
    the least of the least s-system of Dis(M, f) inside the least J (every
    J meets every s-system, so such a head always exists), then the rest
    of J, then the remaining variables.

    Starting at an s-system variable alone does not suffice when every
    member of Dis(M, f) has two or more variables: fixing just the head may
    leave all of M essential on some branch.
    """
    mset = frozenset(m)
    ess = f.essential_set()
    if not mset or not mset < ess:
        raise ValueError("M must be a non-empty proper subset of Ess(f)")
    dis = distributive_sets(mset, f)
    if not dis:  # Dis(M, f) is empty iff M is separable
        raise ValueError(f"{sorted(mset)} is separable in f")
    beta = min(s_systems(dis), key=sorted)
    j = min(dis, key=sorted)
    head = min(beta & j)
    return (head, *sorted(j - {head}), *sorted(ess - j - {head}))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def to_dot(d: OrderedDiagram, name: str = "f") -> str:
    """Graphviz text: solid edges for value 1, dashed for 0, labels for k>2."""
    lines = [f'digraph "{name}" {{']
    lines.append(f'  func [shape=plaintext, label="{name}"];')
    for i, nd in enumerate(d.nodes):
        if nd[0] == "T":
            lines.append(f'  n{i} [shape=box, label="{nd[1]}"];')
        else:
            lines.append(f'  n{i} [shape=circle, label="x{nd[1]}"];')
    lines.append(f"  func -> n{d.root};")
    for i, nd in enumerate(d.nodes):
        if nd[0] != "N":
            continue
        for c, child in enumerate(nd[2]):
            style = "solid" if c == 1 else "dashed" if c == 0 else "solid"
            label = f', label="{c}"' if d.k > 2 else ""
            lines.append(f"  n{i} -> n{child} [style={style}{label}];")
    lines.append("}")
    return "\n".join(lines)
