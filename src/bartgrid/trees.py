"""Minimal regression trees with integer-coded decision rules.

A tree is one dict from heap-coded node id to node: the root is 1 and the
children of node k are 2k and 2k+1, so a single 32-bit integer names a node
identically on every process, and an id alone gives a node's parent, children
and depth.  A terminal node maps to its leaf mean (a float), an internal node
to its (variable, cutpoint-index) rule (a tuple).  A tree's terminal and nog
lists are computed on first use and kept until its structure next changes,
which it does only through `Tree.birth` and `Tree.death`: they drop the lists
rather than edit them, so a list handed out earlier stays as it was.  Leaf
means may be reassigned in `nodes` freely.

Rows are routed over binned columns: `CutpointGrid.bin` turns each value into
the count of its variable's cutpoints at or below it, and a rule (v, c) sends
a row left exactly when that count is at most c, which is the float test
x[v] < value(v, c).  The sampler's shards hold only these cut indices.  One
router, `CompiledTrees`, serves prediction, the residual check and
`route_rows`, and stores a posterior's kept trees: it grows by any trees,
routes each distinct structure once and each run of rules that structures
share from the root once, and sums leaf means in the trees' order.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

# Node ids must fit in 31 bits, so a node at depth 30 cannot give birth.
MAX_DEPTH = 30


class TreeError(ValueError):
    """Structural misuse of a tree (bad node kind, depth overflow, ...)."""


class TreeLineError(ValueError):
    """One line of a tree serialization is wrong: `problem` at 0-based `index`."""

    def __init__(self, index: int, problem: str):
        super().__init__(f"tree line {index}: {problem}")
        self.index, self.problem = index, problem


class Tree:
    """A binary regression tree: node id -> leaf mean or (v, c) rule.

    Leaf means are plain Python floats, so `tree_lines` prints them exactly.
    The node ids come from `terminals()` and `nogs()`, which hand out the
    tree's cached lists: callers read them and never modify them.
    """

    __slots__ = ("nodes", "_terminals", "_nogs")

    def __init__(self, nodes: dict[int, float | tuple[int, int]] | None = None):
        self.nodes = nodes if nodes is not None else {1: 0.0}
        self._terminals: list[int] | None = None
        self._nogs: list[int] | None = None

    def terminals(self) -> list[int]:
        """Terminal node ids, ascending."""
        if self._terminals is None:
            self._terminals = [k for k, val in self.nodes.items() if not isinstance(val, tuple)]
            self._terminals.sort()
        return self._terminals

    def nogs(self) -> list[int]:
        """Ids of internal nodes whose children are both terminal, ascending.

        They are the parents of the left children whose siblings are
        terminal too.
        """
        if self._nogs is None:
            nodes = self.nodes
            self._nogs = [
                k >> 1 for k in self.terminals()
                if not k & 1 and not isinstance(nodes[k + 1], tuple)
            ]
        return self._nogs

    def birth(self, node_id: int, v: int, c: int, mu_left: float, mu_right: float) -> None:
        """Split terminal node `node_id` with rule (v, c)."""
        nodes = self.nodes
        if isinstance(nodes.get(node_id, ()), tuple):
            raise TreeError(f"birth at non-terminal node {node_id}")
        if depth_of_id(node_id) >= MAX_DEPTH:
            raise TreeError(f"birth at node {node_id} would exceed max depth {MAX_DEPTH}")
        nodes[node_id] = (v, c)
        nodes[2 * node_id] = float(mu_left)
        nodes[2 * node_id + 1] = float(mu_right)
        self._terminals = self._nogs = None

    def death(self, node_id: int, mu: float) -> None:
        """Collapse the two terminal children of nog node `node_id`."""
        if node_id not in self.nogs():
            raise TreeError(f"death at non-nog node {node_id}")
        nodes = self.nodes
        del nodes[2 * node_id], nodes[2 * node_id + 1]
        nodes[node_id] = float(mu)
        self._terminals = self._nogs = None


class CutpointGrid:
    """Pre-computed cutpoint values per variable, indexed by integers.

    Each variable's list is strictly increasing, so a rule is fully described
    by (variable index, cutpoint index).  `counts[v]` is variable v's number
    of cutpoints.
    """

    __slots__ = ("values", "counts")

    def __init__(self, values: Sequence[np.ndarray]):
        vals = []
        for j, col in enumerate(values):
            arr = np.asarray(col, dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"variable {j}: cutpoint list must be non-empty 1-D")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError(f"variable {j}: cutpoints must be strictly increasing")
            vals.append(arr)
        self.values = vals
        self.counts = [arr.size for arr in vals]

    @property
    def n_vars(self) -> int:
        return len(self.values)

    def value(self, v: int, c: int) -> float:
        if not 0 <= c < self.values[v].size:
            raise ValueError(f"cutpoint index {c} out of range for variable {v}")
        return float(self.values[v][c])

    def bin(self, x: np.ndarray) -> np.ndarray:
        """Cut indices of the rows of `x`, column-major: (n_vars, rows).

        xb[v, i] counts the cutpoints of v at or below x[i, v].  The
        cutpoints are strictly increasing, so the rule x[i, v] < value(v, c)
        holds exactly when xb[v, i] <= c; a NaN counts above every cutpoint
        and goes right under both.  The dtype is the smallest unsigned type
        that holds the largest cutpoint count: uint8 up to 255 cutpoints.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_vars:
            raise ValueError(f"inputs must be (rows, {self.n_vars})")
        dtype = np.min_scalar_type(max(cuts.size for cuts in self.values))
        xb = np.empty((self.n_vars, x.shape[0]), dtype)
        for v, cuts in enumerate(self.values):
            xb[v] = _cut_counts(cuts, np.ascontiguousarray(x[:, v]))
        return xb

    @classmethod
    def from_ranges(cls, mins: np.ndarray, maxs: np.ndarray, numcut: int) -> "CutpointGrid":
        return cls([_cutpoints_between(float(lo), float(hi), numcut) for lo, hi in zip(mins, maxs)])


def _cut_counts(cuts: np.ndarray, col: np.ndarray) -> np.ndarray:
    """`np.searchsorted(cuts, col, side="right")`, mostly without the search.

    Each count is guessed from the mean cutpoint spacing, exact up to
    rounding on an equally spaced grid, and checked against the cutpoints on
    either side of it; only the rows whose guess fails that check are
    searched.  NaN and +inf count every cutpoint, -inf none.
    """
    k = cuts.size
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        scale = (k - 1) / (cuts[-1] - cuts[0]) if k > 1 else 0.0
        guess = col - cuts[0]
        guess *= scale
    guess += 1.0
    np.fmin(guess, k, out=guess)  # NaN and +inf become k
    np.maximum(guess, 0.0, out=guess)
    idx = guess.astype(np.intp)
    # below[i] and above[i] bound count i; the NaN ends compare false.
    below = np.concatenate(([np.nan], cuts))
    above = np.concatenate((cuts, [np.nan]))
    wrong = col < below.take(idx)
    wrong |= col >= above.take(idx)
    wrong = np.flatnonzero(wrong)
    if wrong.size:
        idx[wrong] = np.searchsorted(cuts, col[wrong], side="right")
    return idx


def _cutpoints_between(lo: float, hi: float, numcut: int) -> np.ndarray:
    if numcut < 1:
        raise ValueError("numcut must be >= 1")
    if lo == hi:
        return np.array([lo], dtype=np.float64)
    # Equally spaced, endpoints excluded: a rule at min or max creates an
    # empty child region.
    return np.linspace(lo, hi, numcut + 2)[1:-1]


def available_cut_ranges(tree: Tree, node_id: int, counts: Sequence[int]) -> list[tuple[int, int]]:
    """[lo, hi) of cutpoint indices for every variable at a node, in one walk.

    Variable v starts from [0, counts[v]), and each ancestor rule on v
    shrinks it: descending left of (v, c) caps indices below c, descending
    right raises the floor to c + 1.
    """
    nodes = tree.nodes
    if node_id not in nodes:
        raise TreeError(f"node {node_id} not present")
    los = [0] * len(counts)
    his = list(counts)
    while node_id > 1:
        v, c = nodes[node_id >> 1]
        if node_id & 1:
            if c + 1 > los[v]:
                los[v] = c + 1
        elif c < his[v]:
            his[v] = c
        node_id >>= 1
    return list(zip(los, his))


# A routing pass of `CompiledTrees.sum` takes as many rows as keep its slot
# matrix (one slot per structure and row, one byte each while no structure
# has over 256 leaves) within ROUTE_BUDGET bytes, and at least ROUTE_CHUNK
# rows.  Every pass pays a fixed cost per path and per tree, so a call
# should route in as few passes as memory allows: 171 structures take
# 24,528 rows in one.  Memory stays bounded however many rows are summed.
ROUTE_CHUNK = 8192
ROUTE_BUDGET = 4 << 20


class CompiledTrees:
    """A sequence of trees compiled for routing binned rows through all of them.

    Trees with the same internal rules share one *structure*.  A *path* is a
    node position reached by a given sequence of rules and turns from the
    root; structures that agree from the root down share their paths, so the
    rows of each distinct path are found once, as one boolean mask, however
    many trees pass through it.  A row's *slot* in a structure is the
    left-to-right index of the leaf it reaches: the sum, over the right turns
    it takes, of the leaf count of the subtree it turned away from.  A tree
    adds only its structure id and leaf means to those of earlier trees.
    """

    __slots__ = ("rules", "leaves", "structure_of", "leaf_means", "_index", "_splits", "_turns",
                 "_slot_type")

    def __init__(self, trees: Iterable[Tree] = ()):
        self.rules: list[tuple] = []  # per structure: its (node, (v, c)) pairs, sorted
        self.leaves: list[list[int]] = []  # per structure: leaf ids, left to right
        self.structure_of: list[int] = []  # per tree: its structure
        self.leaf_means: list[np.ndarray] = []  # per tree: means in its structure's leaf order
        self._index: dict[tuple, int] = {}  # rules -> structure
        # Path 0 is the root.  _splits[p] maps each distinct rule (v, c) at p
        # to its (left path, right path); _turns[p] lists (structure, left
        # leaf count) for every structure node whose right child sits at p.
        self._splits: list[dict[tuple, tuple[int, int]]] = [{}]
        self._turns: list[list[tuple]] = [[]]
        self._slot_type = np.uint8
        self.extend(trees)

    def extend(self, trees: Iterable[Tree]) -> None:
        """Append trees, in order, after those already in the table."""
        for tree in trees:
            nodes = tree.nodes
            rules = tuple(sorted([(k, val) for k, val in nodes.items() if isinstance(val, tuple)]))
            s = self._index.setdefault(rules, len(self.rules))
            if s == len(self.rules):
                self.rules.append(rules)
                self.leaves.append([k for k in _preorder(nodes) if not isinstance(nodes[k], tuple)])
                wider = np.min_scalar_type(len(self.leaves[s]) - 1)
                self._slot_type = np.promote_types(self._slot_type, wider).type
                size = dict.fromkeys(self.leaves[s], 1)
                for k, _rule in reversed(rules):
                    size[k] = size[2 * k] + size[2 * k + 1]
                path = {1: 0}
                for k, rule in rules:
                    splits = self._splits[path[k]]
                    if rule not in splits:
                        splits[rule] = (len(self._splits), len(self._splits) + 1)
                        self._splits += {}, {}
                        self._turns += [], []
                    path[2 * k], path[2 * k + 1] = splits[rule]
                    self._turns[path[2 * k + 1]].append((s, size[2 * k]))
            self.structure_of.append(s)
            self.leaf_means.append(np.array([nodes[k] for k in self.leaves[s]]))

    def tree(self, t: int) -> Tree:
        """Tree t of the table, rebuilt."""
        s = self.structure_of[t]
        nodes = dict(self.rules[s])
        nodes.update(zip(self.leaves[s], self.leaf_means[t].tolist()))
        return Tree(nodes)

    @property
    def pass_rows(self) -> int:
        """Rows per routing pass of `sum`: ROUTE_BUDGET bytes of slots, at least ROUTE_CHUNK."""
        slot_bytes = len(self.leaves) * np.dtype(self._slot_type).itemsize
        return max(ROUTE_CHUNK, ROUTE_BUDGET // slot_bytes)

    def route(self, xb: np.ndarray) -> np.ndarray:
        """Slot of every binned row in every structure: (structures, rows).

        `xb` holds rows as columns, as `CutpointGrid.bin` returns them; all
        of them are routed at once.  Each split of a path costs a comparison
        and two mask ufuncs, each turn an add to a slot row (and a multiply,
        unless it skips one leaf).
        """
        slots = np.zeros((len(self.leaves), xb.shape[1]), self._slot_type)
        stack = [(0, np.ones(xb.shape[1], dtype=bool))]  # (path, its rows as a mask)
        while stack:
            p, rows = stack.pop()
            if self._turns[p]:
                ones = rows.view(np.uint8)
                for s, skipped in self._turns[p]:
                    slots[s] += ones if skipped == 1 else ones * self._slot_type(skipped)
            for (v, c), (left, right) in self._splits[p].items():
                go_left = xb[v] <= c
                go_left &= rows
                stack += (left, go_left), (right, rows > go_left)
        return slots

    def sum(self, xb: np.ndarray) -> np.ndarray:
        """Per binned row: 0.0 plus the leaf mean of each tree, in sequence order.

        Rows are routed `pass_rows` at a time, so a call of up to that many
        rows routes once; each row's sum is the same sequence of float
        additions whichever pass it falls in.
        """
        out = np.zeros(xb.shape[1])
        step = self.pass_rows
        for lo in range(0, xb.shape[1], step):
            acc = out[lo : lo + step]
            slots = self.route(xb[:, lo : lo + step])
            for s, means in zip(self.structure_of, self.leaf_means):
                acc += means.take(slots[s])
        return out


def route_rows(tree: Tree, grid: CutpointGrid, x: np.ndarray) -> np.ndarray:
    """Terminal node id reached by every row of `x` (uint32 vector)."""
    compiled = CompiledTrees([tree])
    return np.array(compiled.leaves[0], dtype=np.uint32)[compiled.route(grid.bin(x))[0]]


def _preorder(nodes: dict) -> Iterator[int]:
    """Node ids in preorder (node, left subtree, right subtree)."""
    stack = [1]
    while stack:
        k = stack.pop()
        yield k
        if isinstance(nodes[k], tuple):
            stack += (2 * k + 1, 2 * k)


def tree_lines(tree: Tree) -> list[str]:
    """Preorder text serialization (node, left subtree, right subtree).

    Internal node: ``i <id> <v> <c>``.  Terminal node: ``l <id> <mu>`` with
    the mean printed at full precision (repr round-trips binary64 exactly).
    """
    nodes = tree.nodes
    lines = []
    for k in _preorder(nodes):
        val = nodes[k]
        if isinstance(val, tuple):
            lines.append(f"i {k} {val[0]} {val[1]}")
        else:
            lines.append(f"l {k} {val!r}")
    return lines


def tree_from_lines(lines: Sequence[str]) -> Tree:
    """Rebuild a tree from its `tree_lines` serialization.

    A line that is wrong on its own raises a `TreeLineError` with its index.
    The tree's `nodes` lists the nodes in line order.
    """
    if not lines:
        raise ValueError("empty tree serialization")
    nodes: dict[int, float | tuple[int, int]] = {}
    for lineno, line in enumerate(lines):
        parts = line.split()
        try:
            k = int(parts[1])
            if k < 1:
                raise ValueError
            if parts[0] == "i" and len(parts) == 4:
                val: float | tuple[int, int] = (int(parts[2]), int(parts[3]))
            elif parts[0] == "l" and len(parts) == 3:
                val = float(parts[2])
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise TreeLineError(lineno, f"bad tree line {line!r}") from None
        if isinstance(val, tuple):
            if min(val) < 0:
                raise TreeLineError(lineno, f"internal node {k} lacks a rule")
        elif not math.isfinite(val):
            raise TreeLineError(lineno, f"leaf mean must be finite, got {parts[2]}")
        if k in nodes:
            raise TreeLineError(lineno, f"node {k} appears twice in tree serialization")
        nodes[k] = val
    if 1 not in nodes:
        raise ValueError("tree serialization has no root")
    for k, val in nodes.items():
        # Every node below the root hangs off an internal parent, so all
        # nodes are connected to the root.
        if k > 1 and not isinstance(nodes.get(k // 2), tuple):
            raise ValueError(f"node {k} has no parent in serialization")
        if isinstance(val, tuple):
            children = (2 * k in nodes) + (2 * k + 1 in nodes)
            if children == 1:
                raise ValueError(f"node {k} has exactly one child")
            if children == 0:
                raise ValueError(f"internal node {k} has no children")
    return Tree(nodes)


def depth_of_id(node_id: int) -> int:
    """floor(log2(id)): the depth a heap-coded id implies."""
    return node_id.bit_length() - 1


def children_ids(node_id: int) -> tuple[int, int]:
    return 2 * node_id, 2 * node_id + 1
