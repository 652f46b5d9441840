"""Minimal regression trees with integer-coded decision rules.

A tree node carries only a leaf mean, a (variable, cutpoint-index) rule and
parent/child links.  Node ids are heap-path codes: the root is 1, the children
of node k are 2k and 2k+1, so a single 32-bit integer names a node identically
on every process.  Everything else about a tree (depth, leaf counts, nog sets)
is recomputed on demand; trees stay small enough that this is cheap.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# Node ids must fit in 31 bits, so a node at depth 30 cannot give birth.
MAX_DEPTH = 30


class TreeError(ValueError):
    """Structural misuse of a tree (bad node kind, depth overflow, ...)."""


class TreeNode:
    """One tree node: leaf mean, split rule and family links."""

    __slots__ = ("id", "mu", "v", "c", "parent", "left", "right")

    def __init__(self, node_id: int, mu: float = 0.0, parent: "TreeNode | None" = None):
        self.id = node_id
        self.mu = mu
        self.v = -1
        self.c = -1
        self.parent = parent
        self.left: TreeNode | None = None
        self.right: TreeNode | None = None

    @property
    def is_terminal(self) -> bool:
        return self.left is None

    @property
    def is_nog(self) -> bool:
        """Internal node whose two children are both terminal."""
        return (
            self.left is not None
            and self.left.is_terminal
            and self.right.is_terminal  # type: ignore[union-attr]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_terminal:
            return f"TreeNode(id={self.id}, mu={self.mu!r})"
        return f"TreeNode(id={self.id}, v={self.v}, c={self.c})"


class Tree:
    """A binary regression tree rooted at node id 1."""

    __slots__ = ("root",)

    def __init__(self, root: TreeNode | None = None):
        self.root = root if root is not None else TreeNode(1)

    def walk(self) -> Iterator[TreeNode]:
        """Preorder traversal (node, left subtree, right subtree)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)

    def node(self, node_id: int) -> TreeNode:
        """Find a node by following the bit path encoded in its id."""
        if node_id < 1:
            raise TreeError(f"invalid node id {node_id}")
        node = self.root
        # Bits below the leading 1, from most significant: 0 = left, 1 = right.
        for shift in range(node_id.bit_length() - 2, -1, -1):
            child = node.right if (node_id >> shift) & 1 else node.left
            if child is None:
                raise TreeError(f"node {node_id} not present")
            node = child
        return node

    def birth(self, node_id: int, v: int, c: int, mu_left: float, mu_right: float) -> TreeNode:
        """Split terminal node `node_id` with rule (v, c); returns the node."""
        node = self.node(node_id)
        if not node.is_terminal:
            raise TreeError(f"birth at non-terminal node {node_id}")
        if depth_of_id(node_id) >= MAX_DEPTH:
            raise TreeError(f"birth at node {node_id} would exceed max depth {MAX_DEPTH}")
        node.v = v
        node.c = c
        node.left = TreeNode(2 * node_id, mu_left, parent=node)
        node.right = TreeNode(2 * node_id + 1, mu_right, parent=node)
        return node

    def death(self, node_id: int, mu: float) -> TreeNode:
        """Collapse the two terminal children of nog node `node_id`."""
        node = self.node(node_id)
        if not node.is_nog:
            raise TreeError(f"death at non-nog node {node_id}")
        node.left = None
        node.right = None
        node.v = -1
        node.c = -1
        node.mu = mu
        return node

    def clone(self) -> "Tree":
        new_root = TreeNode(1, self.root.mu)
        new_root.v = self.root.v
        new_root.c = self.root.c
        stack = [(self.root, new_root)]
        while stack:
            src, dst = stack.pop()
            if src.left is not None:
                for child_src in (src.left, src.right):
                    child_dst = TreeNode(child_src.id, child_src.mu, parent=dst)  # type: ignore[union-attr]
                    child_dst.v = child_src.v  # type: ignore[union-attr]
                    child_dst.c = child_src.c  # type: ignore[union-attr]
                    if child_src is src.left:
                        dst.left = child_dst
                    else:
                        dst.right = child_dst
                    stack.append((child_src, child_dst))  # type: ignore[arg-type]
        return Tree(new_root)


def enumerate_nodes(tree: Tree, kind: str) -> list[TreeNode]:
    """Nodes of one kind ('terminal' | 'nog' | 'internal'), ascending id.

    Level order visits heap-coded ids in ascending order, so nothing is sorted.
    """
    nodes = [tree.root]
    for node in nodes:  # the loop also visits the children it appends
        if node.left is not None:
            nodes += (node.left, node.right)
    if kind == "terminal":
        return [n for n in nodes if n.left is None]
    if kind == "nog":
        return [n for n in nodes if n.is_nog]
    if kind == "internal":
        return [n for n in nodes if n.left is not None]
    raise ValueError(f"unknown node kind {kind!r}")


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
    node = tree.node(node_id)
    while node.parent is not None:
        parent = node.parent
        if parent.v == v:
            if node is parent.left:
                hi = min(hi, parent.c)
            else:
                lo = max(lo, parent.c + 1)
        node = parent
    return lo, hi


def _terminal_rows(
    tree: Tree, grid: CutpointGrid, x: np.ndarray
) -> Iterator[tuple[TreeNode, np.ndarray]]:
    """Each terminal node with the indices of the rows of `x` that reach it."""
    stack: list[tuple[TreeNode, np.ndarray]] = [(tree.root, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_terminal:
            yield node, rows
            continue
        go_left = x[rows, node.v] < grid.value(node.v, node.c)
        stack.append((node.left, rows[go_left]))  # type: ignore[arg-type]
        stack.append((node.right, rows[~go_left]))  # type: ignore[arg-type]


def route_rows(tree: Tree, grid: CutpointGrid, x: np.ndarray) -> np.ndarray:
    """Terminal node id reached by every row of `x` (uint32 vector)."""
    out = np.ones(x.shape[0], dtype=np.uint32)
    for node, rows in _terminal_rows(tree, grid, x):
        out[rows] = node.id
    return out


def evaluate_rows(tree: Tree, grid: CutpointGrid, x: np.ndarray) -> np.ndarray:
    """Leaf mean reached by every row of `x`."""
    out = np.empty(x.shape[0], dtype=np.float64)
    for node, rows in _terminal_rows(tree, grid, x):
        out[rows] = node.mu
    return out


def tree_lines(tree: Tree) -> list[str]:
    """Preorder text serialization.

    Internal node: ``i <id> <v> <c>``.  Terminal node: ``l <id> <mu>`` with
    the mean printed at full precision (repr round-trips binary64 exactly).
    """
    lines = []
    for node in tree.walk():
        if node.is_terminal:
            lines.append(f"l {node.id} {float(node.mu)!r}")
        else:
            lines.append(f"i {node.id} {node.v} {node.c}")
    return lines


def tree_from_lines(lines: Sequence[str]) -> Tree:
    """Rebuild a tree from its `tree_lines` serialization."""
    if not lines:
        raise ValueError("empty tree serialization")
    nodes: dict[int, TreeNode] = {}
    for lineno, line in enumerate(lines):
        parts = line.split()
        try:
            if parts[0] == "i" and len(parts) == 4:
                node = TreeNode(int(parts[1]))
                node.v = int(parts[2])
                node.c = int(parts[3])
            elif parts[0] == "l" and len(parts) == 3:
                node = TreeNode(int(parts[1]), float(parts[2]))
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise ValueError(f"bad tree line {lineno}: {line!r}") from None
        nodes[node.id] = node
    if 1 not in nodes:
        raise ValueError("tree serialization has no root")
    for node_id, node in nodes.items():
        if node_id == 1:
            continue
        parent = nodes.get(node_id // 2)
        if parent is None:
            raise ValueError(f"node {node_id} has no parent in serialization")
        node.parent = parent
        if node_id % 2 == 0:
            parent.left = node
        else:
            parent.right = node
    tree = Tree(nodes[1])
    for node in tree.walk():
        if (node.left is None) != (node.right is None):
            raise ValueError(f"node {node.id} has exactly one child")
        if not node.is_terminal and (node.v < 0 or node.c < 0):
            raise ValueError(f"internal node {node.id} lacks a rule")
    if len(nodes) != sum(1 for _ in tree.walk()):
        raise ValueError("disconnected nodes in tree serialization")
    return tree


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
