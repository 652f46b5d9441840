import numpy as np
import pytest

from bartgrid.trees import (
    CutpointGrid,
    Tree,
    TreeError,
    available_cut_range,
    build_cutpoints,
    children_ids,
    depth_of_id,
    enumerate_nodes,
    evaluate_rows,
    parent_id,
    route_rows,
    tree_from_lines,
    tree_lines,
)


def grow_random_tree(rng, grid, n_births=8):
    """Grow a tree by random valid births; test-local helper."""
    tree = Tree()
    for _ in range(n_births):
        terminals = enumerate_nodes(tree, "terminal")
        node = terminals[rng.integers(len(terminals))]
        options = [
            (v, lo, hi)
            for v in range(grid.n_vars)
            for lo, hi in [available_cut_range(tree, node.id, v, grid.count(v))]
            if hi > lo
        ]
        if not options or depth_of_id(node.id) >= 30:
            continue
        v, lo, hi = options[rng.integers(len(options))]
        c = int(rng.integers(lo, hi))
        tree.birth(node.id, v, c, rng.normal(), rng.normal())
    return tree


def naive_descend(tree, grid, x):
    """Independent path-following oracle: re-walk rules recursively."""

    def walk(node):
        if node.left is None:
            return node.mu
        if x[node.v] < grid.values[node.v][node.c]:
            return walk(node.left)
        return walk(node.right)

    return walk(tree.root)


@pytest.fixture
def grid3():
    return CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 10)


class TestEvaluate:
    def test_single_node(self, grid3):
        tree = Tree()
        tree.root.mu = 7.5
        assert evaluate_rows(tree, grid3, np.array([[0.3, -0.2, 0.9]])).tolist() == [7.5]

    def test_depth_one_forces_left(self):
        grid = CutpointGrid([np.array([0.0])])
        tree = Tree()
        tree.birth(1, 0, 0, mu_left=-1.0, mu_right=2.0)
        # The rule is strict <, so a row on the cutpoint goes right.
        assert evaluate_rows(tree, grid, np.array([[-0.3], [0.3], [0.0]])).tolist() == [
            -1.0, 2.0, 2.0,
        ]

    def test_matches_naive_oracle(self, grid3):
        rng = np.random.default_rng(7)
        for _ in range(10):
            tree = grow_random_tree(rng, grid3, n_births=15)
            xs = rng.uniform(-1, 1, (100, 3))
            expected = [naive_descend(tree, grid3, x) for x in xs]
            assert evaluate_rows(tree, grid3, xs).tolist() == expected

    def test_every_row_reaches_exactly_one_leaf(self, grid3):
        rng = np.random.default_rng(9)
        tree = grow_random_tree(rng, grid3, n_births=12)
        xs = rng.uniform(-1, 1, (500, 3))
        leaf_ids = route_rows(tree, grid3, xs)
        terminal_ids = {t.id for t in enumerate_nodes(tree, "terminal")}
        assert set(np.unique(leaf_ids)) <= terminal_ids


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
        assert depth_of_id(Tree().root.id) == 0

    def test_id_five(self):
        tree = Tree()
        tree.birth(1, 0, 4, 0.0, 0.0)
        tree.birth(2, 0, 2, 0.0, 0.0)
        assert depth_of_id(tree.node(5).id) == 2
        assert depth_of_id(5) == 2


class TestEnumerate:
    def test_single_node(self):
        tree = Tree()
        assert [n.id for n in enumerate_nodes(tree, "terminal")] == [1]
        assert enumerate_nodes(tree, "nog") == []
        assert enumerate_nodes(tree, "internal") == []

    def test_counts_relation(self):
        rng = np.random.default_rng(13)
        grid = CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 15)
        for _ in range(20):
            tree = grow_random_tree(rng, grid, n_births=7)
            n_term = len(enumerate_nodes(tree, "terminal"))
            n_int = len(enumerate_nodes(tree, "internal"))
            total = sum(1 for _ in tree.walk())
            assert n_term == n_int + 1
            assert total == 2 * n_term - 1

    def test_ascending_order(self):
        rng = np.random.default_rng(17)
        grid = CutpointGrid.from_ranges(np.full(2, -1.0), np.full(2, 1.0), 15)
        tree = grow_random_tree(rng, grid, n_births=10)
        for kind in ("terminal", "nog", "internal"):
            ids = [n.id for n in enumerate_nodes(tree, kind)]
            assert ids == sorted(ids)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown node kind"):
            enumerate_nodes(Tree(), "leafy")


class TestMutation:
    def test_birth_then_death_restores_structure(self):
        rng = np.random.default_rng(23)
        grid = CutpointGrid.from_ranges(np.full(3, -1.0), np.full(3, 1.0), 10)
        tree = grow_random_tree(rng, grid, n_births=6)
        before = [line.split()[:2] for line in tree_lines(tree)]
        rules_before = [(n.id, n.v, n.c) for n in enumerate_nodes(tree, "internal")]
        target = enumerate_nodes(tree, "terminal")[0]
        tree.birth(target.id, 0, 3, 1.0, 2.0)
        tree.death(target.id, 0.5)
        after = [line.split()[:2] for line in tree_lines(tree)]
        rules_after = [(n.id, n.v, n.c) for n in enumerate_nodes(tree, "internal")]
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
        copy.node(1).mu = 99.0
        copy_terms = enumerate_nodes(copy, "terminal")
        copy_terms[0].mu = 123.0
        assert tree_lines(copy) != tree_lines(tree) or copy_terms[0].id not in {
            t.id for t in enumerate_nodes(tree, "terminal")
        }


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
        tree.root.mu = 0.5
        assert tree_lines(tree) == ["l 1 0.5"]
        tree.birth(1, 2, 7, -0.25, 0.125)
        assert tree_lines(tree) == ["i 1 2 7", "l 2 -0.25", "l 3 0.125"]

    def test_full_precision_round_trip(self):
        tree = Tree()
        tree.root.mu = 0.1 + 0.2  # not exactly representable as a short decimal
        rebuilt = tree_from_lines(tree_lines(tree))
        assert rebuilt.root.mu == tree.root.mu

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            tree_from_lines(["x 1 2"])
        with pytest.raises(ValueError):
            tree_from_lines([])
        with pytest.raises(ValueError, match="no parent"):
            tree_from_lines(["l 1 0.0", "l 4 0.0"])
        with pytest.raises(ValueError, match="exactly one child"):
            tree_from_lines(["i 1 0 0", "l 2 0.0"])
