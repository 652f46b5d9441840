import numpy as np
import pytest

from bartgrid.trees import (
    CompiledTrees,
    CutpointGrid,
    Tree,
    TreeError,
    available_cut_range,
    build_cutpoints,
    children_ids,
    depth_of_id,
    parent_id,
    route_rows,
    tree_from_lines,
    tree_lines,
)


def grow_random_tree(rng, grid, n_births=8):
    """Grow a tree by random valid births; test-local helper."""
    tree = Tree()
    for _ in range(n_births):
        terminals = tree.terminals()
        node_id = terminals[rng.integers(len(terminals))]
        options = [
            (v, lo, hi)
            for v in range(grid.n_vars)
            for lo, hi in [available_cut_range(tree, node_id, v, grid.count(v))]
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
            for c in range(grid.count(v)):
                assert np.array_equal(xb[v] <= c, x[:, v] < grid.value(v, c)), (v, c)
            # NaN counts above every cutpoint, so it goes right under both rules.
            assert np.all(xb[v][np.isnan(x[:, v])] == grid.count(v))

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
                    lo, hi = available_cut_range(tree, k, v, grid3.count(v))
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


class TestCutpoints:
    def test_equal_spacing(self):
        assert np.allclose(build_cutpoints([0.0, 1.0], 3), [0.25, 0.5, 0.75])

    def test_constant_column(self):
        assert np.array_equal(build_cutpoints([2.0, 2.0, 2.0], 100), [2.0])

    def test_uniform_column_matches_linspace(self):
        rng = np.random.default_rng(5)
        col = rng.uniform(-1, 1, 1000)
        cuts = build_cutpoints(col, 100)
        expected = np.linspace(col.min(), col.max(), 102)[1:-1]
        assert np.array_equal(cuts, expected)
        assert cuts.size == 100
        assert np.all(np.diff(cuts) > 0)
        assert cuts[0] > col.min() and cuts[-1] < col.max()

    def test_empty_column_errors(self):
        with pytest.raises(ValueError, match="empty variable"):
            build_cutpoints([], 10)

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


class TestIdCodec:
    def test_parent_child_arithmetic(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            node_id = int(rng.integers(1, 2**31))
            left, right = children_ids(node_id)
            assert left == 2 * node_id and right == 2 * node_id + 1
            assert parent_id(left) == node_id
            assert parent_id(right) == node_id


class TestAvailableRange:
    def test_root_split_truncates_left_child(self):
        grid = CutpointGrid.from_ranges(np.array([-1.0]), np.array([1.0]), 100)
        tree = Tree()
        tree.birth(1, 0, 50, 0.0, 0.0)
        assert available_cut_range(tree, 2, 0, 100) == (0, 50)
        assert available_cut_range(tree, 3, 0, 100) == (51, 100)
        assert available_cut_range(tree, 1, 0, 100) == (0, 100)

    def test_other_variable_unconstrained(self):
        tree = Tree()
        tree.birth(1, 0, 50, 0.0, 0.0)
        assert available_cut_range(tree, 2, 1, 100) == (0, 100)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(37)
        grid = CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 10)
        for _ in range(10):
            tree = grow_random_tree(rng, grid, n_births=8)
            lines = tree_lines(tree)
            rebuilt = tree_from_lines(lines)
            assert tree_lines(rebuilt) == lines

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
