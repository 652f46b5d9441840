"""Benchmark data: a random-function generator plus delimited-table IO.

The generator builds a response surface as a signed sum of randomly placed,
rotated and dilated Gaussian kernels over a handful of input coordinates
each, which yields high-dimensional test problems where only a few inputs
matter.  Table IO is plain comma-delimited text with a header row, streamed
one row at a time so file size never dictates memory.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


def gen_dataset(
    spec: FriedmanSpec,
    n: int,
    sigma_noise: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, f): U[-1,1] inputs, noisy response, and the noiseless surface."""
    if n < 1:
        raise ValueError("n must be >= 1")
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


def iter_rows(
    path: str, start: int = 0, stop: int | None = None
) -> Iterator[tuple[list[str], list[float]]]:
    """Stream (header, row) pairs; the header is re-yielded with every row.

    Reads one line at a time; raises TableError with the 1-based line number
    on the first ragged, non-numeric or non-finite row.  Only data rows
    [start, stop) are parsed and checked.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = _read_header(fh)
        width = len(header)
        for lineno, line in itertools.islice(enumerate(fh, start=2), start, stop):
            cells = line.rstrip("\n").split(",")
            if len(cells) != width:
                raise TableError(f"line {lineno}: expected {width} cells, found {len(cells)}")
            try:
                values = [float(c) for c in cells]
            except ValueError:
                bad = next(c for c in cells if not _is_number(c))
                raise TableError(f"line {lineno}: non-numeric cell {bad!r}") from None
            if not all(map(math.isfinite, values)):
                if any(map(math.isnan, values)):
                    raise TableError(f"line {lineno}: missing values are not supported")
                bad = next(c for c, v in zip(cells, values) if not math.isfinite(v))
                raise TableError(f"line {lineno}: non-finite cell {bad!r}")
            yield header, values


def _is_number(cell: str) -> bool:
    try:
        return not math.isnan(float(cell))
    except ValueError:
        return False


def read_table(path: str, response: str | None = None, start: int = 0, stop: int | None = None):
    """Load data rows [start, stop); returns (x, y, feature_names) or (x, names) without y.

    `response` names the response column; the remaining columns become the
    feature matrix in file order.  y is a copy: no view keeps the table alive.
    """
    header: list[str] | None = None
    buf = []
    for hdr, values in iter_rows(path, start, stop):
        header = hdr
        buf.append(values)
    if header is None:
        raise TableError("table has no rows")
    data = np.array(buf, dtype=np.float64)
    del buf  # the row lists take several times the array's memory
    if response is None:
        return data, list(header)
    if response not in header:
        raise TableError(f"response column {response!r} not in header {header}")
    ycol = header.index(response)
    y = data[:, ycol].copy()
    x = np.delete(data, ycol, axis=1)
    names = [h for i, h in enumerate(header) if i != ycol]
    return x, y, names


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
    is given, the noiseless response is written there as a one-column table.
    """
    truth_fh = open(truth_path, "w", encoding="ascii") if truth_path else None
    written = 0
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(["y"] + [f"x{j}" for j in range(spec.d)]) + "\n")
            if truth_fh:
                truth_fh.write("f\n")
            while written < n:
                take = min(65536, n - written)
                x, y, f = gen_dataset(spec, take, sigma_noise, rng)
                for i in range(take):
                    fh.write(
                        repr(float(y[i])) + "," + ",".join(repr(float(v)) for v in x[i]) + "\n"
                    )
                if truth_fh:
                    for i in range(take):
                        truth_fh.write(repr(float(f[i])) + "\n")
                written += take
    finally:
        if truth_fh:
            truth_fh.close()
    return written
