"""Ordered decomposition trees, reduced decision diagrams, implementations.

An ODT branches on the variables of an ordering, one level per variable,
with k-way branching and terminals in Z_k.  The ODD is obtained by the two
reduction rules (merge equal terminals / equal-shaped internal nodes,
remove nodes whose children coincide) applied to exhaustion; for a fixed
function and ordering the result is canonical.

An implementation is a root-to-terminal label path, recorded as the word of
node labels, the word of edge values, and the terminal value.  Edges to a
shared child with different values count as distinct paths.  Imp(f) is the
union of path sets over the diagrams of all orderings of Ess(f), with
duplicates across orderings collapsed.

`implementations` enumerates Imp(f) through ess(f)! diagrams and refuses
above 8 essential variables.  `imp_count` counts it on the restriction
lattice instead, at every radix, within the lattice's memory budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import bitops
from .kfun import KFunction, VarSet


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

    nodes = []
    point = [0] * f.n

    def rec(depth: int) -> int:
        if depth == len(order):
            nodes.append(("T", f.eval(point)))
            return len(nodes) - 1
        var = order[depth]
        children = []
        for c in range(f.k):
            point[var - 1] = c
            children.append(rec(depth + 1))
        point[var - 1] = 0
        nodes.append(("N", var, tuple(children)))
        return len(nodes) - 1

    root = rec(0)
    return OrderedDiagram(f.k, f.n, order, nodes, root, reduced=False)


def reduce(d: OrderedDiagram, _remove_rule: bool = True) -> OrderedDiagram:
    """Apply the merge and remove rules to exhaustion.

    One bottom-up pass suffices because children are canonicalized before
    their parents.  `_remove_rule=False` disables the redundant-node rule;
    it exists only as a negative control for the verification suite.
    """
    nodes: list = []
    remap: dict[int, int] = {}
    cache: dict = {}

    for old, nd in enumerate(d.nodes):
        if nd[0] == "T":
            key = nd
        else:
            children = tuple(remap[c] for c in nd[2])
            if _remove_rule and len(set(children)) == 1:
                remap[old] = children[0]
                continue
            key = ("N", nd[1], children)
        if key not in cache:
            nodes.append(key)
            cache[key] = len(nodes) - 1
        remap[old] = cache[key]

    return OrderedDiagram(d.k, d.n, d.ordering, nodes, remap[d.root], reduced=True)


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

    Greedy construction: repeatedly branch on a strongly essential variable
    (one whose fixing can preserve every other essential variable), which
    pins a full-length path.  Falls back to exhaustive search, though the
    greedy step cannot fail while strongly essential variables exist.
    """
    ess = f.essential_set()
    if not ess:
        raise ValueError("f has no essential variables")
    order = []
    g = f
    while True:
        remaining = g.essential_set()
        if len(remaining) == 1:
            order.extend(sorted(remaining))
            break
        advanced = False
        for i in sorted(remaining):
            for c in range(g.k):
                h = g.cofactor(i, c)
                if h.essential_set() == remaining - {i}:
                    order.append(i)
                    g = h
                    advanced = True
                    break
            if advanced:
                break
        if not advanced:
            break

    target = len(ess) + 1
    if len(order) == len(ess):
        d = reduce(build_odt(f, order))
        if depth(d) == target:
            return tuple(order)
    for perm in itertools.permutations(sorted(ess)):
        if depth(reduce(build_odt(f, perm))) == target:
            return perm
    raise RuntimeError("no full-depth ordering found")  # contradicts the theory


def find_shallow_ordering(f: KFunction, m) -> tuple[int, ...]:
    """An ordering whose diagram stays below depth ess(f)+1.

    Requires a non-empty inseparable M strictly inside Ess(f).  Branching
    on an entire minimal distributive set J of M first guarantees the
    bound: below any full assignment of J some member of M has gone
    inessential, so no path carries all of Ess(f).  The leading variable is
    additionally taken from an s-system of Dis(M, f) (every J meets every
    s-system, so such a head always exists).

    Starting at an s-system variable alone does not suffice when every
    member of Dis(M, f) has two or more variables: fixing just the head may
    leave all of M essential on some branch.
    """
    from .separability import distributive_sets, is_separable, s_systems

    mset = frozenset(m)
    ess = f.essential_set()
    if not mset or not mset < ess:
        raise ValueError("M must be a non-empty proper subset of Ess(f)")
    if is_separable(f, mset):
        raise ValueError(f"{sorted(mset)} is separable in f")

    dis = distributive_sets(mset, f)
    bound = len(ess) + 1
    for beta in sorted(s_systems(dis), key=sorted):
        for j in sorted(dis, key=sorted):
            for head in sorted(beta & j):
                order = (head, *sorted(j - {head}), *sorted(ess - j - {head}))
                if depth(reduce(build_odt(f, order))) < bound:
                    return order
    for order in itertools.permutations(sorted(ess)):  # safety net
        if depth(reduce(build_odt(f, order))) < bound:
            return order
    raise RuntimeError("no shallow ordering found")  # contradicts the theory


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
