import math

import numpy as np
import pytest

from bartgrid import trees
from bartgrid.trees import (
    ROUTE_CHUNK,
    CompiledTrees,
    CutpointGrid,
    Tree,
    TreeError,
    available_cut_ranges,
    children_ids,
    depth_of_id,
    route_rows,
    tree_from_lines,
    tree_lines,
)


def available_cut_range(tree, node_id, v, numcut_v):
    """Per-variable oracle for `available_cut_ranges`: [lo, hi) of variable
    v's cutpoint indices at a node, from its own walk up the tree."""
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


def grow_random_tree(rng, grid, n_births=8):
    """Grow a tree by random valid births; test-local helper."""
    tree = Tree()
    for _ in range(n_births):
        terminals = tree.terminals()
        node_id = terminals[rng.integers(len(terminals))]
        options = [
            (v, lo, hi)
            for v in range(grid.n_vars)
            for lo, hi in [available_cut_range(tree, node_id, v, grid.counts[v])]
            if hi > lo
        ]
        if not options or depth_of_id(node_id) >= 30:
            continue
        v, lo, hi = options[rng.integers(len(options))]
        c = int(rng.integers(lo, hi))
        tree.birth(node_id, v, c, rng.normal(), rng.normal())
    return tree


def naive_descend(tree, grid, x):
    """Independent path-following oracle: re-walk rules recursively."""

    def walk(k):
        node = tree.nodes[k]
        if not isinstance(node, tuple):
            return node
        v, c = node
        if x[v] < grid.values[v][c]:
            return walk(2 * k)
        return walk(2 * k + 1)

    return walk(1)


def internal_ids(tree):
    return [k for k, node in sorted(tree.nodes.items()) if isinstance(node, tuple)]


@pytest.fixture
def grid3():
    return CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 10)


class TestEvaluate:
    def test_single_node(self, grid3):
        tree = Tree()
        tree.nodes[1] = 7.5
        xb = grid3.bin(np.array([[0.3, -0.2, 0.9]]))
        assert CompiledTrees([tree]).sum(xb).tolist() == [7.5]

    def test_depth_one_forces_left(self):
        grid = CutpointGrid([np.array([0.0])])
        tree = Tree()
        tree.birth(1, 0, 0, mu_left=-1.0, mu_right=2.0)
        # The rule is strict <, so a row on the cutpoint goes right.
        xb = grid.bin(np.array([[-0.3], [0.3], [0.0]]))
        assert CompiledTrees([tree]).sum(xb).tolist() == [
            -1.0, 2.0, 2.0,
        ]

    def test_matches_naive_oracle(self, grid3):
        rng = np.random.default_rng(7)
        for _ in range(10):
            tree = grow_random_tree(rng, grid3, n_births=15)
            xs = rng.uniform(-1, 1, (100, 3))
            expected = [naive_descend(tree, grid3, x) for x in xs]
            assert CompiledTrees([tree]).sum(grid3.bin(xs)).tolist() == expected

    def test_every_row_reaches_exactly_one_leaf(self, grid3):
        rng = np.random.default_rng(9)
        tree = grow_random_tree(rng, grid3, n_births=12)
        xs = rng.uniform(-1, 1, (500, 3))
        leaf_ids = route_rows(tree, grid3, xs)
        terminal_ids = set(tree.terminals())
        assert set(np.unique(leaf_ids)) <= terminal_ids


def edge_rows(grid, rng, n_random=40):
    """Rows holding, per variable, every cutpoint, one ulp below and above it,
    +0.0 and -0.0, values outside the cutpoint range, +-inf and NaN, then
    random values."""
    cols = [
        np.concatenate([
            cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
            [0.0, -0.0, cuts[0] - 1.0, cuts[-1] + 1.0, -np.inf, np.inf, np.nan],
        ])
        for cuts in grid.values
    ]
    x = rng.uniform(-2.0, 2.0, (max(map(len, cols)) + n_random, grid.n_vars))
    for v, col in enumerate(cols):
        x[: col.size, v] = col
    return x


# Cutpoints include +0.0 and -0.0; the second grid needs uint16 cut indices.
# The later grids defeat `bin`'s guess from the mean cutpoint spacing:
# geometrically spaced cutpoints (on a uint8 and a uint16 grid) and a grid of
# one cutpoint.
EDGE_GRIDS = [
    ([np.array([-0.5, 0.0, 0.25]), np.linspace(-1.0, 1.0, 10), np.array([2.0])], np.uint8),
    ([np.linspace(-1.0, 1.0, 300), np.array([-0.0, 1.0])], np.uint16),
    ([np.geomspace(1e-3, 1.5, 40), -np.geomspace(2.0, 1e-4, 25)], np.uint8),
    ([np.array([0.25])], np.uint8),
    ([np.geomspace(1e-6, 1.9, 700), np.concatenate((-np.geomspace(1.0, 1e-3, 9), [0.0]))],
     np.uint16),
]


class TestBinnedRouting:
    @pytest.mark.parametrize("cuts, dtype", EDGE_GRIDS)
    def test_binned_rule_equals_float_rule(self, cuts, dtype):
        grid = CutpointGrid(cuts)
        x = edge_rows(grid, np.random.default_rng(41))
        xb = grid.bin(x)
        assert xb.dtype == dtype and xb.shape == (grid.n_vars, x.shape[0])
        for v in range(grid.n_vars):
            assert np.array_equal(xb[v], np.searchsorted(grid.values[v], x[:, v], side="right"))
            for c in range(grid.counts[v]):
                assert np.array_equal(xb[v] <= c, x[:, v] < grid.value(v, c)), (v, c)
            # NaN counts above every cutpoint, so it goes right under both rules.
            assert np.all(xb[v][np.isnan(x[:, v])] == grid.counts[v])

    @pytest.mark.parametrize("cuts, dtype", EDGE_GRIDS)
    def test_routing_matches_float_oracle(self, cuts, dtype):
        grid = CutpointGrid(cuts)
        rng = np.random.default_rng(43)
        x = edge_rows(grid, rng)
        for _ in range(5):
            tree = grow_random_tree(rng, grid, n_births=12)
            expected = [naive_descend(tree, grid, row) for row in x]
            assert CompiledTrees([tree]).sum(grid.bin(x)).tolist() == expected
            ids = route_rows(tree, grid, x)
            assert [tree.nodes[k] for k in ids.tolist()] == expected

    def test_shared_prefixes_route_like_single_trees(self, grid3):
        # Clones grown apart share their rules from the root down; clones with
        # new means share a whole structure.
        rng = np.random.default_rng(47)
        base = grow_random_tree(rng, grid3, n_births=4)
        trees = []
        for _ in range(12):
            tree = base.clone()
            for k in tree.terminals():
                tree.nodes[k] = float(rng.normal())
            if rng.random() < 0.6:
                for _ in range(3):
                    k = tree.terminals()[rng.integers(len(tree.terminals()))]
                    v = int(rng.integers(3))
                    lo, hi = available_cut_range(tree, k, v, grid3.counts[v])
                    if hi > lo:
                        tree.birth(k, v, int(rng.integers(lo, hi)), rng.normal(), rng.normal())
            trees.append(tree)
        compiled = CompiledTrees(trees)
        assert len(compiled.leaves) < len(trees)
        x = edge_rows(grid3, rng, n_random=300)
        slots = compiled.route(grid3.bin(x))
        for t, tree in enumerate(trees):
            values = compiled.leaf_means[t].take(slots[compiled.structure_of[t]])
            assert values.tolist() == [naive_descend(tree, grid3, row) for row in x]

    def test_bin_rejects_wrong_width(self, grid3):
        with pytest.raises(ValueError, match="rows, 3"):
            grid3.bin(np.zeros((4, 2)))


def range_cutpoints(lo, hi, numcut):
    """One variable's cutpoints for the range [lo, hi]."""
    return CutpointGrid.from_ranges([lo], [hi], numcut).values[0]


def log_routes(monkeypatch):
    """Record (rows, slot-matrix bytes) of every `CompiledTrees.route` call."""
    log = []
    route = CompiledTrees.route

    def logged(self, xb):
        slots = route(self, xb)
        log.append((xb.shape[1], slots.nbytes))
        return slots

    monkeypatch.setattr(CompiledTrees, "route", logged)
    return log


def one_split_trees():
    """765 distinct one-rule structures over 3 variables of 255 cutpoints."""
    return [Tree({1: (v, c), 2: float(c), 3: -1.0}) for v in range(3) for c in range(255)]


def wide_tree():
    """A structure of 257 leaves, whose slots need uint16, all reachable.

    Eight levels of rules on variable 0 split its 256 bins in halves (node
    2**d + i, at depth d, splits bins [i * 2**(8-d), (i+1) * 2**(8-d)) in
    the middle), and the leftmost bin splits once more on variable 1.
    """
    nodes = {k: (0, (k % 2**d) * 2 ** (8 - d) + 2 ** (7 - d) - 1)
             for d in range(8) for k in range(2**d, 2 ** (d + 1))}
    nodes[256] = (1, 127)
    nodes.update({k: 0.001 * k for k in range(257, 514)})
    return Tree(nodes)


def routing_sets():
    """Trees of a few structures, of 765 structures, and with a uint16 structure."""
    rng = np.random.default_rng(48)
    grid = CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 255)
    few = [grow_random_tree(rng, grid) for _ in range(6)]
    return {"few": few, "many": one_split_trees(), "wide": [wide_tree(), *few[:2]]}


class TestRoutingPasses:
    @pytest.mark.parametrize(
        "rows", [0, 1, 4 * ROUTE_CHUNK - 1, 4 * ROUTE_CHUNK, 9 * ROUTE_CHUNK + 3]
    )
    def test_one_route_per_pass(self, monkeypatch, rows):
        compiled = CompiledTrees(routing_sets()["few"])
        monkeypatch.setattr(trees, "ROUTE_BUDGET", 4 * ROUTE_CHUNK * len(compiled.leaves))
        assert compiled.pass_rows == 4 * ROUTE_CHUNK
        routes = log_routes(monkeypatch)
        xb = np.random.default_rng(49).integers(0, 256, (3, rows), dtype=np.uint8)
        compiled.sum(xb)
        assert len(routes) == math.ceil(rows / compiled.pass_rows)

    def test_pass_falls_back_to_the_floor_or_halves(self):
        many = CompiledTrees(routing_sets()["many"])
        assert len(many.leaves) * ROUTE_CHUNK > trees.ROUTE_BUDGET
        assert many.pass_rows == ROUTE_CHUNK
        narrow = CompiledTrees([Tree({1: (0, 0), 2: 0.0, 3: 1.0}), Tree()])
        wide = CompiledTrees([wide_tree(), Tree()])
        assert wide.route(np.zeros((3, 1), np.uint8)).dtype == np.uint16
        assert wide.pass_rows == narrow.pass_rows // 2 == trees.ROUTE_BUDGET // 4

    @pytest.mark.parametrize("name", ["few", "many", "wide"])
    def test_slot_matrix_within_bound(self, monkeypatch, name):
        compiled = CompiledTrees(routing_sets()[name])
        xb = np.random.default_rng(50).integers(0, 256, (3, 5 * ROUTE_CHUNK + 7), dtype=np.uint8)
        one_pass = compiled.sum(xb)
        monkeypatch.setattr(trees, "ROUTE_BUDGET", 1 << 16)
        routes = log_routes(monkeypatch)
        assert compiled.sum(xb).tobytes() == one_pass.tobytes()
        itemsize = compiled.route(xb[:, :1]).itemsize
        bound = max(trees.ROUTE_BUDGET, ROUTE_CHUNK * len(compiled.leaves) * itemsize)
        assert len(routes) > 1 and max(nbytes for _, nbytes in routes) <= bound

    def test_wide_structure_routes_like_the_oracle(self):
        grid255 = CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 255)
        tree = wide_tree()
        x = np.random.default_rng(51).uniform(-1.1, 1.1, (2000, 3))
        expected = [naive_descend(tree, grid255, row) for row in x]
        compiled = CompiledTrees([tree])
        assert compiled.sum(grid255.bin(x)).tolist() == expected
        assert compiled.route(grid255.bin(x)).max() == 256


class TestCutpoints:
    def test_equal_spacing(self):
        assert np.allclose(range_cutpoints(0.0, 1.0, 3), [0.25, 0.5, 0.75])

    def test_constant_column(self):
        assert np.array_equal(range_cutpoints(2.0, 2.0, 100), [2.0])

    def test_uniform_column_matches_linspace(self):
        rng = np.random.default_rng(5)
        col = rng.uniform(-1, 1, 1000)
        cuts = range_cutpoints(col.min(), col.max(), 100)
        expected = np.linspace(col.min(), col.max(), 102)[1:-1]
        assert np.array_equal(cuts, expected)
        assert cuts.size == 100
        assert np.all(np.diff(cuts) > 0)
        assert cuts[0] > col.min() and cuts[-1] < col.max()

    def test_numcut_must_be_positive(self):
        with pytest.raises(ValueError, match="numcut must be >= 1"):
            range_cutpoints(0.0, 1.0, 0)

    def test_grid_invariants(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CutpointGrid([np.array([1.0, 1.0])])
        with pytest.raises(ValueError, match="non-empty"):
            CutpointGrid([np.array([])])


class TestNodeDepth:
    def test_root(self):
        assert list(Tree().nodes) == [1]
        assert depth_of_id(1) == 0

    def test_id_five(self):
        tree = Tree()
        tree.birth(1, 0, 4, 0.0, 0.0)
        tree.birth(2, 0, 2, 0.0, 0.0)
        assert 5 in tree.nodes
        assert depth_of_id(5) == 2


class TestEnumerate:
    def test_single_node(self):
        tree = Tree()
        assert tree.terminals() == [1]
        assert tree.nogs() == []
        assert internal_ids(tree) == []

    def test_counts_relation(self):
        rng = np.random.default_rng(13)
        grid = CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 15)
        for _ in range(20):
            tree = grow_random_tree(rng, grid, n_births=7)
            n_term = len(tree.terminals())
            n_int = len(internal_ids(tree))
            total = len(tree.nodes)
            assert n_term == n_int + 1
            assert total == 2 * n_term - 1

    def test_ascending_order(self):
        rng = np.random.default_rng(17)
        grid = CutpointGrid.from_ranges(np.full(2, -1.0), np.full(2, 1.0), 15)
        tree = grow_random_tree(rng, grid, n_births=10)
        for ids in (tree.terminals(), tree.nogs()):
            assert ids == sorted(ids)


class TestMutation:
    def test_birth_then_death_restores_structure(self):
        rng = np.random.default_rng(23)
        grid = CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 10)
        tree = grow_random_tree(rng, grid, n_births=6)
        before = [line.split()[:2] for line in tree_lines(tree)]
        rules_before = [(k, tree.nodes[k]) for k in internal_ids(tree)]
        target = tree.terminals()[0]
        tree.birth(target, 0, 3, 1.0, 2.0)
        tree.death(target, 0.5)
        after = [line.split()[:2] for line in tree_lines(tree)]
        rules_after = [(k, tree.nodes[k]) for k in internal_ids(tree)]
        assert before == after
        assert rules_before == rules_after

    def test_birth_at_internal_rejected(self):
        tree = Tree()
        tree.birth(1, 0, 0, 0.0, 0.0)
        with pytest.raises(TreeError):
            tree.birth(1, 0, 0, 0.0, 0.0)

    def test_death_at_non_nog_rejected(self):
        tree = Tree()
        with pytest.raises(TreeError):
            tree.death(1, 0.0)

    def test_clone_is_deep(self):
        rng = np.random.default_rng(29)
        grid = CutpointGrid.from_ranges(np.full(2, -1.0), np.full(2, 1.0), 10)
        tree = grow_random_tree(rng, grid, n_births=5)
        copy = tree.clone()
        assert tree_lines(copy) == tree_lines(tree)
        original = tree_lines(tree)
        copy.nodes[copy.terminals()[0]] = 123.0
        copy.birth(copy.terminals()[-1], 0, 0, 1.0, 2.0)
        assert tree_lines(copy) != original
        assert tree_lines(tree) == original


def fresh_lists(tree):
    """Terminal and nog ids recomputed from `nodes`, ascending."""
    nodes = tree.nodes
    internal = [k for k, val in nodes.items() if isinstance(val, tuple)]
    nogs = [k for k in internal if not isinstance(nodes[2 * k], tuple)
            and not isinstance(nodes[2 * k + 1], tuple)]
    return sorted(set(nodes) - set(internal)), sorted(nogs)


class TestCachedLists:
    def test_lists_follow_random_births_and_deaths(self):
        # Trees rebuilt from text and their clones, the clones made with
        # cached lists or without; each step moves one tree, and every
        # other tree must keep the lists it had.
        rng = np.random.default_rng(61)
        grid = CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 10)
        moves = 0
        for _ in range(25):
            trees = [tree_from_lines(tree_lines(grow_random_tree(rng, grid, n_births=4)))]
            for _ in range(30):
                tree = trees[int(rng.integers(len(trees)))]
                if rng.random() < 0.5:
                    tree.terminals()
                if rng.random() < 0.5:
                    tree.nogs()
                if rng.random() < 0.3:
                    trees.append(tree.clone())
                    tree = trees[-1] if rng.random() < 0.5 else tree
                kept = [(t, list(t.terminals()), list(t.nogs())) for t in trees if t is not tree]
                nogs = tree.nogs()
                if nogs and rng.random() < 0.4:
                    tree.death(nogs[int(rng.integers(len(nogs)))], float(rng.normal()))
                else:
                    terminals = tree.terminals()
                    k = terminals[int(rng.integers(len(terminals)))]
                    tree.birth(k, int(rng.integers(3)), int(rng.integers(10)), 0.0, 1.0)
                moves += 1
                for t in trees:
                    assert (t.terminals(), t.nogs()) == fresh_lists(t)
                for t, terminals, nogs in kept:
                    assert t.terminals() == terminals and t.nogs() == nogs
        assert moves == 25 * 30

    def test_lists_of_a_text_tree(self):
        tree = tree_from_lines(["i 1 0 3", "i 2 1 4", "l 4 0.5", "l 5 1.5", "l 3 2.5"])
        assert tree.terminals() == [3, 4, 5] and tree.nogs() == [2]


class TestOneWalkRanges:
    def test_one_walk_equals_per_variable_ranges(self):
        rng = np.random.default_rng(67)
        grid = CutpointGrid([np.linspace(-1.0, 1.0, count) for count in (1, 4, 10, 30)])
        for _ in range(40):
            tree = grow_random_tree(rng, grid, n_births=10)
            for k in tree.nodes:
                assert available_cut_ranges(tree, k, grid.counts) == [
                    available_cut_range(tree, k, v, grid.counts[v]) for v in range(grid.n_vars)
                ]

    def test_absent_node_is_refused(self):
        tree = Tree()
        with pytest.raises(TreeError, match="node 2 not present"):
            available_cut_ranges(tree, 2, [10])


class TestIdCodec:
    def test_parent_child_arithmetic(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            node_id = int(rng.integers(1, 2**31))
            left, right = children_ids(node_id)
            assert left == 2 * node_id and right == 2 * node_id + 1
            assert depth_of_id(left) == depth_of_id(right) == depth_of_id(node_id) + 1


class TestAvailableRange:
    def test_root_split_truncates_left_child(self):
        grid = CutpointGrid.from_ranges(np.array([-1.0]), np.array([1.0]), 100)
        tree = Tree()
        tree.birth(1, 0, 50, 0.0, 0.0)
        assert available_cut_ranges(tree, 2, grid.counts) == [(0, 50)]
        assert available_cut_ranges(tree, 3, grid.counts) == [(51, 100)]
        assert available_cut_ranges(tree, 1, grid.counts) == [(0, 100)]

    def test_other_variable_unconstrained(self):
        tree = Tree()
        tree.birth(1, 0, 50, 0.0, 0.0)
        assert available_cut_ranges(tree, 2, [100, 100]) == [(0, 50), (0, 100)]


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(37)
        grid = CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 10)
        for _ in range(10):
            tree = grow_random_tree(rng, grid, n_births=8)
            lines = tree_lines(tree)
            rebuilt = tree_from_lines(lines)
            assert tree_lines(rebuilt) == lines
            # The nodes keep line order, which the model file's errors rely on.
            assert list(rebuilt.nodes) == [int(line.split()[1]) for line in lines]

    def test_line_format(self):
        tree = Tree()
        tree.nodes[1] = 0.5
        assert tree_lines(tree) == ["l 1 0.5"]
        tree.birth(1, 2, 7, -0.25, 0.125)
        assert tree_lines(tree) == ["i 1 2 7", "l 2 -0.25", "l 3 0.125"]

    def test_full_precision_round_trip(self):
        tree = Tree()
        tree.nodes[1] = 0.1 + 0.2  # not exactly representable as a short decimal
        rebuilt = tree_from_lines(tree_lines(tree))
        assert rebuilt.nodes[1] == tree.nodes[1]

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            tree_from_lines(["x 1 2"])
        with pytest.raises(ValueError):
            tree_from_lines([])
        with pytest.raises(ValueError, match="no parent"):
            tree_from_lines(["l 1 0.0", "l 4 0.0"])
        with pytest.raises(ValueError, match="exactly one child"):
            tree_from_lines(["i 1 0 0", "l 2 0.0"])
        with pytest.raises(ValueError, match="node 2 appears twice"):
            tree_from_lines(["i 1 0 0", "l 2 0.0", "l 3 1.0", "l 2 5.0"])
        with pytest.raises(ValueError, match="internal node 1 has no children"):
            tree_from_lines(["i 1 0 3"])
