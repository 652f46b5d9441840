import itertools
import math
import re
import warnings

import numpy as np
import pytest

import fixed_cost
from bartgrid.datagen import (
    READ_CHUNK,
    FriedmanSpec,
    Kernel,
    TableError,
    eval_friedman,
    gen_dataset,
    gen_spec,
    read_table,
    write_dataset,
    write_table,
)
from bartgrid.sampler import worker_row_range


def oracle_read_table(path, response=None, start=0, stop=None):
    """Independent table oracle: one float() per cell, row by row, with read_table's messages."""
    def is_number(cell):
        try:
            return not math.isnan(float(cell))
        except ValueError:
            return False

    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
        buf = []
        for lineno, line in itertools.islice(enumerate(fh, start=2), start, stop):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise TableError(f"line {lineno}: expected {len(header)} cells, found {len(cells)}")
            try:
                values = [float(c) for c in cells]
            except ValueError:
                bad = next(c for c in cells if not is_number(c))
                raise TableError(f"line {lineno}: non-numeric cell {bad!r}") from None
            if not all(map(math.isfinite, values)):
                if any(map(math.isnan, values)):
                    raise TableError(f"line {lineno}: missing values are not supported")
                bad = next(c for c, v in zip(cells, values) if not math.isfinite(v))
                raise TableError(f"line {lineno}: non-finite cell {bad!r}")
            buf.append(values)
    if not buf:
        raise TableError("table has no rows")
    data = np.array(buf, dtype=np.float64)
    if response is None:
        return data, header
    ycol = header.index(response)
    names = [h for i, h in enumerate(header) if i != ycol]
    return np.delete(data, ycol, axis=1), data[:, ycol].copy(), names


def oracle_write_dataset(path, spec, n, sigma_noise, rng, truth_path):
    """Independent writer oracle: write_dataset's byte format as an explicit chunk loop."""
    with open(path, "w", encoding="ascii") as fh, open(truth_path, "w", encoding="ascii") as tf:
        fh.write(",".join(["y"] + [f"x{j}" for j in range(spec.d)]) + "\n")
        tf.write("f\n")
        written = 0
        while written < n:
            take = min(65536, n - written)
            x, y, f = gen_dataset(spec, take, sigma_noise, rng)
            for i in range(take):
                fh.write(repr(float(y[i])) + "," + ",".join(repr(float(v)) for v in x[i]) + "\n")
            for i in range(take):
                tf.write(repr(float(f[i])) + "\n")
            written += take


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

    @pytest.mark.parametrize("n, noise, message", [
        (0, 0.1, "n must be >= 1, got 0"),
        (10, -1.0, "noise sd must be finite and >= 0, got -1.0"),
        (10, math.nan, "noise sd must be finite and >= 0, got nan"),
        (10, math.inf, "noise sd must be finite and >= 0, got inf"),
    ])
    def test_bad_size_or_noise_refused_before_any_file(self, tmp_path, n, noise, message):
        spec = gen_spec(3, 2, np.random.default_rng(8))
        with pytest.raises(ValueError, match=re.escape(message)):
            gen_dataset(spec, n, noise, np.random.default_rng(9))
        with pytest.raises(ValueError, match=re.escape(message)):
            write_dataset(str(tmp_path / "d.csv"), spec, n, noise, np.random.default_rng(9),
                          truth_path=str(tmp_path / "f.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_reproducible(self):
        spec = gen_spec(4, 2, np.random.default_rng(14))
        a = gen_dataset(spec, 100, 0.1, np.random.default_rng(15))
        b = gen_dataset(spec, 100, 0.1, np.random.default_rng(15))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


SIX_ROWS = "a,b\n" + "".join(f"{i}.5,{i}\n" for i in range(6))

# (table text, response, row range) cases read_table must agree on with the
# per-row oracle: the same bits, or the same refusal message.
PARITY_CASES = {
    "crlf": ("a,b\r\n1.0,2.0\r\n3.0,4.0\r\n", "b", (0, None)),
    "spaces": ("a,b,c\n 1.0 ,2.0,\t3.0\n4.0, 5.0 ,6.0\n", "a", (0, None)),
    "signs-and-exponents": ("a,b,c\n+1.5,.5,1e5\n-0.0,5.,1E-300\n", None, (0, None)),
    "range": (SIX_ROWS, None, (2, 5)),
    "ragged": ("a,b\n1.0,2.0\n3.0\n", None, (0, None)),
    "oops": ("a,b\n" + "".join(f"{i},1.5\n" for i in range(15)) + "oops,2.5\n", None, (0, None)),
    "nan": ("a\nnan\n", None, (0, None)),
    "-inf": ("a,b\n1.0,2.0\n3.0,-inf\n", None, (0, None)),
    "past-the-end": (SIX_ROWS, None, (6, None)),
}

# Inputs the one-call parse sees differently from a per-row parse: each is
# refused with a TableError naming its line.
EDGE_CASES = {
    "blank-line-in-range": (SIX_ROWS.replace("3.5,3\n", "\n"), (2, 5), "line 5: expected 2 cells, found 1"),
    "only-a-blank-line": (SIX_ROWS.replace("3.5,3\n", "\n"), (3, 4), "line 5: expected 2 cells, found 1"),
    "blank-line-one-column": ("a\n1.0\n\n2.0\n", (0, None), "line 3: non-numeric cell ''"),
    "comment-cell": ("a,b\n1.0,2.0\n3.0,#\n", (0, None), "line 3: non-numeric cell '#'"),
    "underscore": ("a,b\n1.0,2.0\n1_000,4.0\n", (0, None), "line 3: non-numeric cell '1_000'"),
}

# Tables of READ_CHUNK-scale row counts, each row "i.5,i", cut by the reader
# into chunks counted from the range's first row.
C = READ_CHUNK


def chunk_table(rows, bad=None):
    """Text of a `rows`-row table; `bad` maps a row index to its line."""
    bad = bad or {}
    return "a,b\n" + "".join(bad.get(i, f"{i}.5,{i}\n") for i in range(rows))


CHUNK_CASES = {
    **{
        f"{rows}-rows": (rows, {}, None, (0, None))
        for rows in (C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1)
    },
    "range-across-a-boundary": (2 * C + 1, {}, "b", (C - 5, 2 * C + 3)),
    "non-numeric-past-chunk-one": (2 * C + 1, {C + 7: "1.5,x\n"}, None, (0, None)),
    "non-finite-past-chunk-one": (2 * C + 1, {2 * C: "inf,2\n"}, None, (0, None)),
    "non-finite-in-a-range's-chunk-two": (2 * C + 1, {C + 9: "1.5,-inf\n"}, "a", (5, None)),
}


def outcome(read, path, response, start, stop):
    """(arrays as bytes, names) of a read, or the refusal message."""
    try:
        *arrays, names = read(path, response, start, stop)
    except TableError as exc:
        return str(exc)
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays], names


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

    def test_write_dataset_matches_chunk_loop_oracle(self, tmp_path):
        # 65,539 rows cross the 65,536-row chunk boundary by three rows.
        spec = gen_spec(2, 3, np.random.default_rng(19))
        files = {}
        for tag, write in (("new", write_dataset), ("oracle", oracle_write_dataset)):
            path, truth = str(tmp_path / f"{tag}.csv"), str(tmp_path / f"{tag}-f.csv")
            write(path, spec, 65_539, 0.1, np.random.default_rng(20), truth_path=truth)
            files[tag] = [(tmp_path / f"{tag}{suffix}.csv").read_bytes() for suffix in ("", "-f")]
        assert files["new"] == files["oracle"]
        assert files["new"][0].count(b"\n") == files["new"][1].count(b"\n") == 65_540

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("parity") / "d.csv")
        write_dataset(path, gen_spec(5, 4, np.random.default_rng(21)), 3001, 0.1,
                      np.random.default_rng(22))
        return path

    @pytest.mark.parametrize("rank", [None, 1, 2], ids=["full", "rank1", "rank2"])
    def test_dataset_matches_oracle(self, dataset, rank):
        start, stop = (0, None) if rank is None else worker_row_range(3001, 2, 2, rank)
        new = outcome(read_table, dataset, "y", start, stop)
        assert not isinstance(new, str)
        assert new == outcome(oracle_read_table, dataset, "y", start, stop)

    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_matches_oracle(self, tmp_path, case):
        text, response, (start, stop) = PARITY_CASES[case]
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("ascii"))
        assert outcome(read_table, str(path), response, start, stop) == outcome(
            oracle_read_table, str(path), response, start, stop
        )

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_named_without_warning(self, tmp_path, case):
        text, (start, stop), message = EDGE_CASES[case]
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("ascii"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
                read_table(str(path), None, start, stop)
        assert caught == []

    @pytest.mark.parametrize("case", CHUNK_CASES)
    def test_chunks_match_oracle(self, tmp_path, case):
        rows, bad, response, (start, stop) = CHUNK_CASES[case]
        path = tmp_path / "t.csv"
        path.write_bytes(chunk_table(rows, bad).encode("ascii"))
        new = outcome(read_table, str(path), response, start, stop)
        assert new == outcome(oracle_read_table, str(path), response, start, stop)
        # A bad row is named by its file line: its row index plus 2.
        for i in bad:
            assert new.startswith(f"line {i + 2}: ")

    def test_reader_holds_one_chunk_of_lines(self, tmp_path):
        # The line strings of a table take several times its parsed array's
        # memory; holding one chunk of them, the read peaks near the two
        # copies of the array that joining the chunks and splitting off the
        # response make.  Reading every line at once peaked at 4.3 times.
        peak, returned = fixed_cost.read_table_peak(str(tmp_path / "t.csv"), 3 * C, 11)
        assert peak < 2.5 * returned, f"peak {peak} B, {peak / returned:.2f} x the {returned} B read"
