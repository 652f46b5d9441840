"""Minimal regression trees with integer-coded decision rules.

A tree is one dict from heap-coded node id to node: the root is 1 and the
children of node k are 2k and 2k+1, so a single 32-bit integer names a node
identically on every process, and an id alone gives a node's parent, children
and depth.  A terminal node maps to its leaf mean (a float), an internal node
to its (variable, cutpoint-index) rule (a tuple).  Everything else about a
tree (leaf counts, nog sets) is recomputed on demand; trees stay small enough
that this is cheap.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# Node ids must fit in 31 bits, so a node at depth 30 cannot give birth.
MAX_DEPTH = 30


class TreeError(ValueError):
    """Structural misuse of a tree (bad node kind, depth overflow, ...)."""


def _is_nog(nodes: dict, k: int) -> bool:
    """Internal node whose two children are both terminal."""
    return (
        isinstance(nodes.get(k), tuple)
        and not isinstance(nodes[2 * k], tuple)
        and not isinstance(nodes[2 * k + 1], tuple)
    )


class Tree:
    """A binary regression tree: node id -> leaf mean or (v, c) rule.

    Leaf means are plain Python floats, so `tree_lines` prints them exactly.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: dict[int, float | tuple[int, int]] | None = None):
        self.nodes = nodes if nodes is not None else {1: 0.0}

    def terminals(self) -> list[int]:
        """Terminal node ids, ascending."""
        return sorted(k for k, val in self.nodes.items() if not isinstance(val, tuple))

    def nogs(self) -> list[int]:
        """Ids of internal nodes whose children are both terminal, ascending."""
        nodes = self.nodes
        return sorted(k for k in nodes if _is_nog(nodes, k))

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

    def death(self, node_id: int, mu: float) -> None:
        """Collapse the two terminal children of nog node `node_id`."""
        nodes = self.nodes
        if not _is_nog(nodes, node_id):
            raise TreeError(f"death at non-nog node {node_id}")
        del nodes[2 * node_id], nodes[2 * node_id + 1]
        nodes[node_id] = float(mu)

    def clone(self) -> "Tree":
        return Tree(dict(self.nodes))


class CutpointGrid:
    """Pre-computed cutpoint values per variable, indexed by integers.

    Each variable's list is strictly increasing, so a rule is fully described
    by (variable index, cutpoint index).
    """

    __slots__ = ("values",)

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

    @property
    def n_vars(self) -> int:
        return len(self.values)

    def count(self, v: int) -> int:
        return self.values[v].size

    def value(self, v: int, c: int) -> float:
        if not 0 <= c < self.values[v].size:
            raise ValueError(f"cutpoint index {c} out of range for variable {v}")
        return float(self.values[v][c])

    @classmethod
    def from_ranges(cls, mins: np.ndarray, maxs: np.ndarray, numcut: int) -> "CutpointGrid":
        return cls([_cutpoints_between(float(lo), float(hi), numcut) for lo, hi in zip(mins, maxs)])

    @classmethod
    def from_data(cls, x: np.ndarray, numcut: int) -> "CutpointGrid":
        x = np.asarray(x, dtype=np.float64)
        return cls.from_ranges(x.min(axis=0), x.max(axis=0), numcut)


def _cutpoints_between(lo: float, hi: float, numcut: int) -> np.ndarray:
    if numcut < 1:
        raise ValueError("numcut must be >= 1")
    if lo == hi:
        return np.array([lo], dtype=np.float64)
    # Equally spaced, endpoints excluded: a rule at min or max creates an
    # empty child region.
    return np.linspace(lo, hi, numcut + 2)[1:-1]


def build_cutpoints(column: Sequence[float] | np.ndarray, numcut: int) -> np.ndarray:
    """Cutpoints for one variable: `numcut` values strictly inside its range."""
    col = np.asarray(column, dtype=np.float64)
    if col.size == 0:
        raise ValueError("empty variable")
    return _cutpoints_between(float(col.min()), float(col.max()), numcut)


def available_cut_range(tree: Tree, node_id: int, v: int, numcut_v: int) -> tuple[int, int]:
    """Half-open index range [lo, hi) of cutpoints for variable v at a node.

    Ancestor rules on the same variable shrink the range: descending left of
    (v, c) caps indices below c, descending right raises the floor to c + 1.
    """
    lo, hi = 0, numcut_v
    nodes = tree.nodes
    if node_id not in nodes:
        raise TreeError(f"node {node_id} not present")
    while node_id > 1:
        pv, pc = nodes[node_id // 2]
        if pv == v:
            if node_id & 1:
                lo = max(lo, pc + 1)
            else:
                hi = min(hi, pc)
        node_id //= 2
    return lo, hi


def _terminal_rows(
    tree: Tree, grid: CutpointGrid, x: np.ndarray
) -> Iterator[tuple[int, float, np.ndarray]]:
    """Each terminal node's id and mean, with the rows of `x` that reach it."""
    nodes = tree.nodes
    stack = [(1, np.arange(x.shape[0]))]
    while stack:
        k, rows = stack.pop()
        val = nodes[k]
        if not isinstance(val, tuple):
            yield k, val, rows
            continue
        v, c = val
        go_left = x[rows, v] < grid.value(v, c)
        stack.append((2 * k, rows[go_left]))
        stack.append((2 * k + 1, rows[~go_left]))


def route_rows(tree: Tree, grid: CutpointGrid, x: np.ndarray) -> np.ndarray:
    """Terminal node id reached by every row of `x` (uint32 vector)."""
    out = np.ones(x.shape[0], dtype=np.uint32)
    for k, _mu, rows in _terminal_rows(tree, grid, x):
        out[rows] = k
    return out


def evaluate_rows(tree: Tree, grid: CutpointGrid, x: np.ndarray) -> np.ndarray:
    """Leaf mean reached by every row of `x`."""
    out = np.empty(x.shape[0], dtype=np.float64)
    for _k, mu, rows in _terminal_rows(tree, grid, x):
        out[rows] = mu
    return out


def tree_lines(tree: Tree) -> list[str]:
    """Preorder text serialization (node, left subtree, right subtree).

    Internal node: ``i <id> <v> <c>``.  Terminal node: ``l <id> <mu>`` with
    the mean printed at full precision (repr round-trips binary64 exactly).
    """
    nodes = tree.nodes
    lines = []
    stack = [1]
    while stack:
        k = stack.pop()
        val = nodes[k]
        if isinstance(val, tuple):
            lines.append(f"i {k} {val[0]} {val[1]}")
            stack += (2 * k + 1, 2 * k)
        else:
            lines.append(f"l {k} {val!r}")
    return lines


def tree_from_lines(lines: Sequence[str]) -> Tree:
    """Rebuild a tree from its `tree_lines` serialization."""
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
            raise ValueError(f"bad tree line {lineno}: {line!r}") from None
        if k in nodes:
            raise ValueError(f"node {k} appears twice in tree serialization")
        nodes[k] = val
    if 1 not in nodes:
        raise ValueError("tree serialization has no root")
    for k, val in nodes.items():
        # Every node below the root hangs off an internal parent, so all
        # nodes are connected to the root.
        if k > 1 and not isinstance(nodes.get(k // 2), tuple):
            raise ValueError(f"node {k} has no parent in serialization")
        if isinstance(val, tuple):
            if min(val) < 0:
                raise ValueError(f"internal node {k} lacks a rule")
            children = (2 * k in nodes) + (2 * k + 1 in nodes)
            if children == 1:
                raise ValueError(f"node {k} has exactly one child")
            if children == 0:
                raise ValueError(f"internal node {k} has no children")
    return Tree(nodes)


def depth_of_id(node_id: int) -> int:
    """floor(log2(id)): the depth a heap-coded id implies."""
    return node_id.bit_length() - 1


def parent_id(node_id: int) -> int:
    return node_id // 2


def children_ids(node_id: int) -> tuple[int, int]:
    return 2 * node_id, 2 * node_id + 1


def forest_lines(forest: Sequence[Tree]) -> list[str]:
    """Serialize a forest: per tree a ``tree <n_lines>`` header then its lines."""
    lines = []
    for tree in forest:
        body = tree_lines(tree)
        lines.append(f"tree {len(body)}")
        lines.extend(body)
    return lines


def forest_from_lines(lines: Sequence[str], m: int) -> list[Tree]:
    forest = []
    pos = 0
    for _ in range(m):
        if pos >= len(lines) or not lines[pos].startswith("tree "):
            raise ValueError(f"expected tree header at line {pos}")
        count = int(lines[pos].split()[1])
        body = lines[pos + 1 : pos + 1 + count]
        if len(body) != count:
            raise ValueError("truncated forest serialization")
        forest.append(tree_from_lines(body))
        pos += 1 + count
    if pos != len(lines):
        raise ValueError("trailing lines after forest serialization")
    return forest
