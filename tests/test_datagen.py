import math
import tracemalloc

import numpy as np
import pytest

from bartgrid.datagen import (
    FriedmanSpec,
    Kernel,
    TableError,
    eval_friedman,
    gen_dataset,
    gen_spec,
    iter_rows,
    read_table,
    write_dataset,
    write_table,
)


def naive_eval(spec, x):
    """Independent evaluation oracle: explicit matrix products per row."""
    total = 0.0
    for kern in spec.kernels:
        z = np.asarray(x)[kern.subset] - kern.center
        m = kern.rotation @ np.diag(1.0 / kern.dilation) @ kern.rotation.T
        total += kern.coeff * math.exp(-0.5 * float(z @ m @ z))
    return total


class TestGenSpec:
    def test_rotations_are_orthogonal(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            spec = gen_spec(8, 5, rng)
            for kern in spec.kernels:
                k = kern.rotation.shape[0]
                err = np.abs(kern.rotation.T @ kern.rotation - np.eye(k)).max()
                worst = max(worst, err)
        assert worst < 1e-10

    def test_subset_sizes_in_range(self):
        rng = np.random.default_rng(1)
        for d in (1, 3, 40):
            spec = gen_spec(d, 30, rng)
            for kern in spec.kernels:
                assert 1 <= kern.subset.size <= d
                assert np.all(np.diff(kern.subset) > 0)

    def test_parameter_laws(self):
        rng = np.random.default_rng(2)
        spec = gen_spec(40, 30, rng)
        assert spec.d == 40 and len(spec.kernels) == 30
        for kern in spec.kernels:
            assert -1.0 <= kern.coeff <= 1.0
            assert np.all(np.abs(kern.center) <= 1.0)
            # sqrt of dilation entries drawn U[0.1, 2]
            assert np.all(kern.dilation >= 0.01 - 1e-12)
            assert np.all(kern.dilation <= 4.0 + 1e-12)

    def test_same_seed_same_spec(self):
        a = gen_spec(6, 4, np.random.default_rng(7))
        b = gen_spec(6, 4, np.random.default_rng(7))
        for ka, kb in zip(a.kernels, b.kernels):
            assert ka.coeff == kb.coeff
            assert np.array_equal(ka.rotation, kb.rotation)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gen_spec(0, 5, np.random.default_rng(0))


class TestEvalFriedman:
    def test_peak_value_is_one(self):
        center = np.array([0.3])
        spec = FriedmanSpec(
            1, [Kernel(1.0, np.array([0]), center, np.array([[1.0]]), np.array([0.5]))]
        )
        assert eval_friedman(spec, center) == pytest.approx(1.0, abs=1e-15)

    def test_single_variable_kernel_reduces_to_gaussian_bump(self):
        rng = np.random.default_rng(3)
        spec = gen_spec(1, 1, rng)
        kern = spec.kernels[0]
        assert kern.rotation[0, 0] in (1.0, -1.0) or abs(abs(kern.rotation[0, 0]) - 1) < 1e-12
        x = np.array([0.2])
        expect = kern.coeff * math.exp(
            -0.5 * (x[0] - kern.center[0]) ** 2 / kern.dilation[0]
        )
        assert eval_friedman(spec, x) == pytest.approx(expect, rel=1e-12)

    def test_bounded_by_kernel_count(self):
        rng = np.random.default_rng(4)
        spec = gen_spec(10, 30, rng)
        x = rng.uniform(-1, 1, (500, 10))
        vals = eval_friedman(spec, x)
        assert np.all(np.abs(vals) <= 30.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = gen_spec(int(rng.integers(2, 8)), int(rng.integers(1, 6)), rng)
            xs = rng.uniform(-1, 1, (50, spec.d))
            vec = eval_friedman(spec, xs)
            for i in range(50):
                assert vec[i] == pytest.approx(naive_eval(spec, xs[i]), abs=1e-12)

    def test_dimension_check(self):
        spec = gen_spec(4, 2, np.random.default_rng(6))
        with pytest.raises(ValueError, match="columns"):
            eval_friedman(spec, np.zeros((3, 5)))


class TestGenDataset:
    def test_zero_noise_returns_truth(self):
        spec = gen_spec(5, 3, np.random.default_rng(8))
        x, y, f = gen_dataset(spec, 200, 0.0, np.random.default_rng(9))
        assert np.array_equal(y, f)
        assert x.shape == (200, 5)

    def test_noise_variance_concentrates(self):
        spec = gen_spec(3, 2, np.random.default_rng(10))
        x, y, f = gen_dataset(spec, 1_000_000, 0.15, np.random.default_rng(11))
        noise_var = np.var(y - f)
        assert 0.0220 <= noise_var <= 0.0230

    def test_inputs_uniform_on_cube(self):
        spec = gen_spec(4, 2, np.random.default_rng(12))
        x, _y, _f = gen_dataset(spec, 20_000, 0.1, np.random.default_rng(13))
        assert x.min() >= -1.0 and x.max() <= 1.0
        assert abs(x.mean()) < 0.01

    def test_reproducible(self):
        spec = gen_spec(4, 2, np.random.default_rng(14))
        a = gen_dataset(spec, 100, 0.1, np.random.default_rng(15))
        b = gen_dataset(spec, 100, 0.1, np.random.default_rng(15))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestTableIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        data = rng.standard_normal((100, 5))
        path = str(tmp_path / "t.csv")
        write_table(path, [f"c{i}" for i in range(5)], data)
        loaded, names = read_table(path)
        assert names == [f"c{i}" for i in range(5)]
        assert np.array_equal(loaded, data)

    def test_response_column_split(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["a", "y", "b"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        x, y, names = read_table(path, response="y")
        assert names == ["a", "b"]
        assert np.array_equal(y, [2.0, 5.0])
        assert np.array_equal(x, [[1.0, 3.0], [4.0, 6.0]])
        # Neither array is a view, so none keeps the parsed table alive.
        assert x.base is None and y.base is None
        x, y, names = read_table(path, response="y", start=1, stop=2)
        assert np.array_equal(y, [5.0]) and np.array_equal(x, [[4.0, 6.0]])

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n")
            for i in range(15):
                fh.write(f"{i},1.5\n")
            fh.write("oops,2.5\n")
        with pytest.raises(TableError, match="line 17"):
            read_table(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(TableError, match="line 3"):
            read_table(path)

    def test_missing_response_column(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["a", "b"], [[1.0, 2.0]])
        with pytest.raises(TableError, match="response column"):
            read_table(path, response="z")

    def test_missing_values_rejected(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with open(path, "w") as fh:
            fh.write("a\nnan\n")
        with pytest.raises(TableError, match="missing values"):
            read_table(path)

    def test_infinite_values_rejected(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n1.0,2.0\n3.0,-inf\n")
        with pytest.raises(TableError, match="line 3: non-finite cell '-inf'"):
            read_table(path)

    def test_write_dataset_and_truth(self, tmp_path):
        spec = gen_spec(3, 2, np.random.default_rng(17))
        path = str(tmp_path / "d.csv")
        truth = str(tmp_path / "f.csv")
        rows = write_dataset(path, spec, 500, 0.1, np.random.default_rng(18), truth_path=truth)
        assert rows == 500
        x, y, names = read_table(path, response="y")
        assert names == ["x0", "x1", "x2"]
        f, _ = read_table(truth)
        assert f.shape == (500, 1)
        # Truth matches a recomputation from the stored inputs exactly.
        assert np.array_equal(f[:, 0], eval_friedman(spec, x))

    def test_streaming_reader_stays_flat(self, tmp_path):
        # Consuming a large file row by row must not hold more than a few
        # row buffers; the data itself would be ~24 MB if materialized.
        path = str(tmp_path / "big.csv")
        n = 1_000_000
        with open(path, "w") as fh:
            fh.write("a,b,c\n")
            for i in range(n):
                fh.write(f"{i}.0,1.5,-2.25\n")
        tracemalloc.start()
        count = 0
        checksum = 0.0
        for _header, row in iter_rows(path):
            count += 1
            checksum += row[1]
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == n
        assert checksum == pytest.approx(1.5 * n)
        assert peak < 512 * 1024
