"""Benchmark data: a random-function generator plus delimited-table IO.

The generator builds a response surface as a signed sum of randomly placed,
rotated and dilated Gaussian kernels over a handful of input coordinates
each, which yields high-dimensional test problems where only a few inputs
matter.  Table IO is plain comma-delimited text with a header row.  Both
directions stream: the reader parses a range of rows one chunk of lines per
numpy call, and the writer writes one chunk of rows at a time.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(slots=True)
class Kernel:
    """One Gaussian bump: subset of coordinates, center, rotation, dilation."""

    coeff: float
    subset: np.ndarray  # variable indices, shape (k,)
    center: np.ndarray  # shape (k,)
    rotation: np.ndarray  # orthogonal, shape (k, k)
    dilation: np.ndarray  # positive diagonal entries, shape (k,)

    @property
    def quad_form(self) -> np.ndarray:
        """U diag(1/d) U^T, the matrix of the kernel's quadratic form."""
        return (self.rotation / self.dilation) @ self.rotation.T


@dataclass(slots=True)
class FriedmanSpec:
    """One realization of the random function generator."""

    d: int
    kernels: list[Kernel]


def _random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal factor of a standard-normal matrix, sign-normalized."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def gen_spec(d: int, q: int, rng: np.random.Generator) -> FriedmanSpec:
    """Draw a random function specification with `q` kernels over `d` inputs.

    Coefficients and kernel centers are U[-1, 1]; the square roots of the
    dilation entries are U[0.1, 2].  Subset sizes follow
    min(d, floor(1.5 + E)), E exponential with mean 2, and subsets are drawn
    uniformly without replacement.
    """
    if d < 1 or q < 1:
        raise ValueError("d and q must be >= 1")
    kernels = []
    for _ in range(q):
        coeff = float(rng.uniform(-1.0, 1.0))
        size = min(d, int(math.floor(1.5 + rng.exponential(2.0))))
        subset = np.sort(rng.choice(d, size=size, replace=False))
        center = rng.uniform(-1.0, 1.0, size)
        dilation = rng.uniform(0.1, 2.0, size) ** 2
        rotation = _random_orthogonal(size, rng)
        kernels.append(Kernel(coeff, subset, center, rotation, dilation))
    return FriedmanSpec(d, kernels)


def eval_friedman(spec: FriedmanSpec, x: np.ndarray) -> np.ndarray:
    """Noiseless response for rows of `x`; accepts one row or a matrix."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    if rows.shape[1] != spec.d:
        raise ValueError(f"x has {rows.shape[1]} columns, spec wants {spec.d}")
    out = np.zeros(rows.shape[0])
    for kern in spec.kernels:
        z = rows[:, kern.subset] - kern.center
        quad = np.einsum("ij,jk,ik->i", z, kern.quad_form, z)
        out += kern.coeff * np.exp(-0.5 * quad)
    return float(out[0]) if single else out


def _check_dataset(n: int, sigma_noise: float) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= sigma_noise < math.inf:
        raise ValueError(f"noise sd must be finite and >= 0, got {sigma_noise!r}")


def gen_dataset(
    spec: FriedmanSpec,
    n: int,
    sigma_noise: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, f): U[-1,1] inputs, noisy response, and the noiseless surface."""
    _check_dataset(n, sigma_noise)
    x = rng.uniform(-1.0, 1.0, (n, spec.d))
    f = eval_friedman(spec, x)
    y = f + sigma_noise * rng.standard_normal(n) if sigma_noise > 0 else f.copy()
    return x, y, f


# ---------------------------------------------------------------------------
# Delimited-table IO
# ---------------------------------------------------------------------------

class TableError(ValueError):
    """Malformed table: ragged row, non-numeric or non-finite cell, missing column."""


def _read_header(fh) -> list[str]:
    header_line = fh.readline()
    if not header_line:
        raise TableError("empty table file")
    return header_line.rstrip("\n").split(",")


def table_shape(path: str) -> tuple[list[str], int]:
    """(header, number of data lines) of a table, without parsing any row."""
    with open(path, "r", encoding="ascii") as fh:
        header = _read_header(fh)
        return header, sum(1 for _ in fh)


# Lines parsed per numpy call: `read_table` holds one chunk's line strings at
# a time, which take several times the memory of the chunk's parsed array.
READ_CHUNK = 8192


def read_table(path: str, response: str | None = None, start: int = 0, stop: int | None = None):
    """Load data rows [start, stop); returns (x, y, feature_names) or (x, names) without y.

    `response` names the response column; the remaining columns become the
    feature matrix in file order.  y is a copy: no view keeps the table alive.
    The rows are parsed `READ_CHUNK` lines at a time, each chunk's lines
    dropped once parsed and the chunks' arrays once joined; a bad line is
    refused naming its file line.
    """
    chunks = []
    with open(path, "r", encoding="ascii") as fh:
        header = _read_header(fh)
        rows = itertools.islice(fh, start, stop)
        first = start + 2  # the file line of the chunk's first row
        for lines in iter(lambda: list(itertools.islice(rows, READ_CHUNK)), []):
            chunks.append(_parse_lines(lines, len(header), first))
            first += len(lines)
            del lines  # before the next chunk's lines are read
    if not chunks:
        raise TableError("table has no rows")
    data = np.concatenate(chunks)
    del chunks
    if response is None:
        return data, list(header)
    if response not in header:
        raise TableError(f"response column {response!r} not in header {header}")
    ycol = header.index(response)
    y = data[:, ycol].copy()
    x = np.delete(data, ycol, axis=1)
    names = [h for i, h in enumerate(header) if i != ycol]
    return x, y, names


def _parse_lines(lines: list[str], width: int, first: int) -> np.ndarray:
    """The float64 rows of table lines `first`, `first` + 1, ..., in one
    numpy call; only when they do not form a finite table `width` columns
    wide does a scan find the first bad line."""
    with warnings.catch_warnings():
        # np.loadtxt skips blank lines, warning if no others: refused below.
        warnings.simplefilter("ignore", UserWarning)
        try:
            data = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is not None and data.shape == (len(lines), width) and np.isfinite(data).all():
        return data
    for lineno, line in enumerate(lines, start=first):
        cells = line.rstrip("\n").split(",")
        if len(cells) != width:
            raise TableError(f"line {lineno}: expected {width} cells, found {len(cells)}")
        for cell in cells:
            try:
                if "_" in cell:  # np.loadtxt, unlike float(), refuses "1_000"
                    raise ValueError(cell)
                value = float(cell)
            except ValueError:
                raise TableError(f"line {lineno}: non-numeric cell {cell!r}") from None
            if math.isnan(value):
                raise TableError(f"line {lineno}: missing values are not supported")
            if math.isinf(value):
                raise TableError(f"line {lineno}: non-finite cell {cell!r}")
    last = first + len(lines) - 1
    raise TableError(f"lines {first}-{last} do not parse as a table of {width} columns")


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence[float]]) -> int:
    """Write rows as comma-delimited text; returns the row count.

    Values are printed with repr, which round-trips binary64 exactly.
    """
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise TableError(f"row {count + 1} has {len(row)} cells, header has {len(header)}")
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
            count += 1
    return count


def write_dataset(
    path: str,
    spec: FriedmanSpec,
    n: int,
    sigma_noise: float,
    rng: np.random.Generator,
    *,
    truth_path: str | None = None,
) -> int:
    """Generate and stream a dataset straight to disk, 65536 rows at a time.

    Column layout: response first ("y"), then x0..x{d-1}.  If `truth_path`
    is given, the noiseless response is written there as a one-column table,
    once the data file is complete.
    """
    _check_dataset(n, sigma_noise)
    truth: list[np.ndarray] = []

    def rows():
        for lo in range(0, n, 65536):
            x, y, f = gen_dataset(spec, min(65536, n - lo), sigma_noise, rng)
            if truth_path:
                truth.append(f)
            for yi, xi in zip(y.tolist(), x):
                yield [yi, *xi.tolist()]

    written = write_table(path, ["y"] + [f"x{j}" for j in range(spec.d)], rows())
    if truth_path:
        write_table(truth_path, ["f"], ([v] for f in truth for v in f.tolist()))
    return written
