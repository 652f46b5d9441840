"""Command-line entry point: generate | fit | predict | sensitivity | bench.

Configuration is flat key=value text (one pair per line, # comments)
optionally combined with command-line flags; flags override file values,
file values override defaults.  The run keys are `RunConfig`'s fields and
the fit keys `FitSettings`', which declare their defaults and domains.
Fitted posteriors persist as plain text with full-precision decimals, so a
reloaded model predicts bit-identically.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from . import analysis, datagen, perf
from .analysis import PosteriorSample
from .cluster import ClusterError, connect_worker, serve_master
from .datagen import TableError, read_table, table_shape, write_table
from .sampler import ChainResult, FitSettings, run_serial, worker_row_range
from .trees import CutpointGrid, TreeLineError, tree_from_lines, tree_lines


class ConfigError(ValueError):
    """Bad configuration: unknown key, out-of-domain value, missing requirement."""


class ModelFileError(ValueError):
    """Unreadable model file: version, count, range or truncation problems."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class RunConfig:
    """The `fit` command's run keys, their defaults and domains, and its fit settings."""

    role: str = "serial"
    listen: str = ""
    connect: str = ""
    rank: int = 1
    data: str = ""
    response: str = "y"
    workers: int = 1
    out: str = ""
    chain_log: str = ""
    check_replicas: bool = False
    fit: FitSettings = field(default_factory=FitSettings)

    def validate(self) -> None:
        """Raise a ConfigError, naming the key first, for the first bad key."""
        for key, ok, domain in (
            ("role", self.role in ("serial", "master", "worker"), "serial, master or worker"),
            ("rank", self.rank >= 1, ">= 1"),
            ("response", self.response != "", "a column name"),
            ("workers", self.workers >= 1, ">= 1"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {domain}, got {getattr(self, key)!r}")
        for key in ("listen", "connect"):
            if getattr(self, key):
                self.address(key)
        try:
            self.fit.validate()
        except ValueError as exc:
            name, _, rest = str(exc).partition(" ")
            raise ConfigError(f"{_FIELD_KEY.get(name, name)} {rest}") from None

    def address(self, key: str) -> tuple[str, int]:
        """`listen` or `connect` as (host, port); an empty host is 127.0.0.1."""
        text = getattr(self, key)
        host, sep, port = text.rpartition(":")
        low = 0 if key == "listen" else 1
        if not (sep and port.isdecimal() and low <= int(port) <= 65535):
            raise ConfigError(f"{key} must be host:port with a port in {low}..65535, got {text!r}")
        return host or "127.0.0.1", int(port)

    def require(self, *keys: str) -> None:
        for key in keys:
            if not getattr(self, key):
                raise ConfigError(f"role {self.role!r} requires {key!r} to be set")


# Fit keys: key -> FitSettings field, spelled as the field except these.
_FIELD_KEY = {"sigquant": "sigma_quantile"}
_FIT_KEYS = {_FIELD_KEY.get(f.name, f.name): f for f in fields(FitSettings)}
# Every key -> its field, whose default's type converts the key's text.
_KEYS = {f.name: f for f in fields(RunConfig) if f.name != "fit"} | _FIT_KEYS


def _read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            pairs[key] = value
    return pairs


def parse_config(flags: dict[str, str], file: str | None = None) -> RunConfig:
    """Merge defaults, config-file pairs and flag pairs (flags win)."""
    cfg = RunConfig()
    for source_name, pairs in (("config file", _read_config_file(file) if file else {}),
                               ("flag", flags)):
        for key, raw in pairs.items():
            if key not in _KEYS:
                raise ConfigError(f"unknown {source_name} key {key!r}")
            f = _KEYS[key]
            conv = _bool if isinstance(f.default, bool) else type(f.default)
            try:
                value = conv(raw) if isinstance(raw, str) else raw
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
            setattr(cfg.fit if key in _FIT_KEYS else cfg, f.name, value)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

MODEL_MAGIC = "bartgrid-model"
MODEL_VERSION = 1


# Domains: (check, text).  A count of 0, or a scale that is 0 or not finite,
# would load and then predict nan or 0.0.
_COUNT = (lambda v: v >= 1, ">= 1")
_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")
# The header lines in file order, (key, converter, check, domain); each key
# but `snapshots` names a PosteriorSample field.
_HEADER = (("m", int, *_COUNT), ("d", int, *_COUNT), ("snapshots", int, *_COUNT),
           ("y_mid", float, *_FINITE), ("y_range", float, *_POSITIVE), ("numcut", int, *_COUNT))


def save_model(path: str, sample: PosteriorSample) -> None:
    """Write a posterior sample as inspectable full-precision text: per snapshot
    a sigma line, then per tree a ``tree <n>`` line and the tree's n `tree_lines`.

    A sigma or leaf mean that `load_model` would refuse is a ValueError
    raised before the file is opened.
    """
    for idx, (sigma, forest) in enumerate(sample.snapshots):
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"snapshot {idx}: sigma must be finite and > 0, got {sigma!r}")
        for t, tree in enumerate(forest):
            for k, mu in tree.nodes.items():
                if not (isinstance(mu, tuple) or math.isfinite(mu)):
                    raise ValueError(
                        f"snapshot {idx}, tree {t}, node {k}: leaf mean must be finite, got {mu!r}"
                    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n")
        for key, *_domain in _HEADER:
            value = sample.n_snapshots if key == "snapshots" else getattr(sample, key)
            fh.write(f"{key} {value}\n")
        for v in range(sample.d):
            vals = sample.grid.values[v]
            fh.write(
                f"cutpoints {v} {vals.size} " + " ".join(repr(float(c)) for c in vals) + "\n"
            )
        for idx, (sigma, forest) in enumerate(sample.snapshots):
            fh.write(f"snapshot {idx} {sigma!r}\n")
            for tree in forest:
                body = tree_lines(tree)
                fh.write(f"tree {len(body)}\n" + "".join(line + "\n" for line in body))


def _expect(lines: list[str], pos: int, key: str) -> list[str]:
    if pos >= len(lines):
        raise ModelFileError(f"model file truncated; expected {key!r}")
    parts = lines[pos].split()
    if not parts or parts[0] != key:
        raise ModelFileError(f"line {pos + 1}: expected {key!r}, found {lines[pos]!r}")
    return parts


def _value(text: str, pos: int, key: str, convert: Callable, ok=lambda v: True, domain=""):
    """`convert(text)`, or a ModelFileError naming line `pos + 1` and `key`
    when the text does not convert or its value is outside `domain` (`ok`)."""
    try:
        value = convert(text)
    except ValueError as exc:
        raise ModelFileError(f"line {pos + 1}: bad {key!r} value: {exc}") from None
    if not ok(value):
        raise ModelFileError(f"line {pos + 1}: {key!r} must be {domain}, got {text}")
    return value


def load_model(path: str) -> PosteriorSample:
    """Read a `save_model` file; a fault is a ModelFileError naming its line
    (for a tree wrong as a whole, its ``tree <n>`` line)."""
    # A non-ASCII byte reads as U+FFFD, which no key or value accepts.
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ModelFileError("empty model file")
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != MODEL_MAGIC:
        raise ModelFileError("not a model file")
    if _value(magic[1], 0, "version", int) != MODEL_VERSION:
        raise ModelFileError(
            f"model format version {magic[1]} unsupported (expected {MODEL_VERSION})"
        )
    pos = 1
    header = {}
    for key, *domain in _HEADER:
        parts = _expect(lines, pos, key)
        if len(parts) != 2:
            raise ModelFileError(f"line {pos + 1}: malformed {key!r}")
        header[key] = _value(parts[1], pos, key, *domain)
        pos += 1
    m, d = header["m"], header["d"]
    values = []
    for v in range(d):
        parts = _expect(lines, pos, "cutpoints")
        if parts[1:3] != [str(v), str(len(parts) - 3)]:
            raise ModelFileError(f"line {pos + 1}: malformed cutpoints for variable {v}")
        cuts = np.array([_value(c, pos, "cutpoints", float, *_FINITE) for c in parts[3:]])
        if not (cuts.size and np.all(np.diff(cuts) > 0)):
            raise ModelFileError(f"line {pos + 1}: variable {v}: cutpoints must be"
                                 " non-empty and strictly increasing")
        values.append(cuts)
        pos += 1
    grid = CutpointGrid(values)
    snapshots = []
    for idx in range(header.pop("snapshots")):
        parts = _expect(lines, pos, "snapshot")
        if len(parts) != 3 or parts[1] != str(idx):
            raise ModelFileError(f"line {pos + 1}: malformed snapshot header")
        sigma = _value(parts[2], pos, "snapshot", float, *_POSITIVE)
        pos += 1
        forest = []
        for t in range(m):
            head = lines[pos] if pos < len(lines) else ""
            parts = head.split()
            if len(parts) != 2 or parts[0] != "tree" or not parts[1].isdigit():
                raise ModelFileError(
                    f"line {pos + 1}: expected 'tree <line count>', found {head!r}"
                )
            body = lines[pos + 1 : pos + 1 + int(parts[1])]
            if len(body) != int(parts[1]):
                raise ModelFileError(f"line {pos + 1}: tree of {parts[1]} lines is cut short")
            try:
                tree = tree_from_lines(body)
            except TreeLineError as exc:
                raise ModelFileError(f"line {pos + 2 + exc.index}: {exc.problem}") from None
            except ValueError as exc:
                raise ModelFileError(f"line {pos + 1}: {exc}") from None
            # `nodes` lists the body's nodes in line order.
            for i, (k, rule) in enumerate(tree.nodes.items()):
                if isinstance(rule, tuple) and not (
                    rule[0] < d and rule[1] < grid.counts[rule[0]]
                ):
                    raise ModelFileError(
                        f"line {pos + 2 + i}: snapshot {idx}, tree {t}, node {k}: rule {rule}"
                        f" is outside the cutpoint grid ({d} variables)"
                    )
            forest.append(tree)
            pos += 1 + len(body)
        snapshots.append((sigma, forest))
    if pos != len(lines):
        raise ModelFileError("trailing content after the last snapshot")
    return PosteriorSample(**header, grid=grid, snapshots=snapshots)


def write_chain_log(path: str, result: ChainResult) -> None:
    """Per-iteration sigma (scaled and original units), mean b, move counts."""
    header = [
        "iteration", "sigma", "sigma_y", "mean_b",
        "birth_proposed", "birth_accepted", "death_proposed", "death_accepted",
    ]
    rows = [
        [
            it + 1,
            result.sigmas[it],
            result.sigmas[it] * result.y_range,
            result.mean_b[it],
            result.birth_proposed[it],
            result.birth_accepted[it],
            result.death_proposed[it],
            result.death_accepted[it],
        ]
        for it in range(result.sigmas.size)
    ]
    write_table(path, header, rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    spec = datagen.gen_spec(args.d, args.q, rng)
    rows = datagen.write_dataset(
        args.out, spec, args.n, args.noise_sd, rng, truth_path=args.truth_out
    )
    print(f"wrote {rows} rows x {args.d} predictors to {args.out}")
    return 0


def _load_worker_shard(cfg: RunConfig) -> list[np.ndarray]:
    """The worker's shard [x, y]: its contiguous row slice of the data file.

    The other workers' rows are counted, not parsed; each row is checked by
    the worker that owns it.
    """
    _header, n_total = table_shape(cfg.data)
    lo, hi = worker_row_range(n_total, cfg.fit.reduction_blocks, cfg.workers, cfg.rank)
    return list(read_table(cfg.data, cfg.response, lo, hi)[:2])


def _cmd_fit(args: argparse.Namespace) -> int:
    flag_pairs = {
        key: value
        for key, value in vars(args).items()
        if key in _KEYS and value is not None
    }
    cfg = parse_config(flag_pairs, args.config)

    if cfg.role == "worker":
        cfg.require("connect", "data")
        # No local keeps the shard: the worker frees its float rows once binned.
        connect_worker(
            cfg.address("connect"), _load_worker_shard(cfg), cfg.rank, cfg.workers,
            cfg.fit.reduction_blocks,
        )
        return 0

    fit = cfg.fit
    if fit.draws - fit.burn < fit.thin:
        raise ConfigError(
            f"no posterior snapshot would be kept: draws - burn ({fit.draws} - {fit.burn})"
            f" must be >= thin ({fit.thin})"
        )
    if cfg.role == "master":
        cfg.require("listen", "out")
        result = serve_master(
            cfg.address("listen"), cfg.workers, cfg.fit, check_replicas=cfg.check_replicas,
            on_bound=lambda addr: print(f"listening on {addr[0]}:{addr[1]}", flush=True),
        )
    else:
        cfg.require("data", "out")
        x, y, _names = read_table(cfg.data, response=cfg.response)
        result = run_serial(x, y, cfg.fit)

    sample = analysis.posterior_from_chain(result)
    save_model(cfg.out, sample)
    log_path = cfg.chain_log or cfg.out + ".chainlog"
    write_chain_log(log_path, result)
    accept = (
        (result.birth_accepted.sum() + result.death_accepted.sum())
        / max(1, result.birth_proposed.sum() + result.death_proposed.sum())
    )
    print(
        f"fit complete: {result.sigmas.size} iterations in {result.elapsed:.2f}s, "
        f"{len(result.snapshots)} snapshots saved to {cfg.out} "
        f"(mean b {result.mean_b[-1]:.2f}, accept rate {accept:.3f})"
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    sample = load_model(args.model)
    data, names = read_table(args.data)
    if args.response and args.response in names:
        ycol = names.index(args.response)
        data = np.delete(data, ycol, axis=1)
    if data.shape[1] != sample.d:
        raise ConfigError(
            f"data has {data.shape[1]} feature columns, model wants {sample.d}"
        )
    preds = analysis.predict_mean(sample, data)
    write_table(args.out, ["prediction"], [[p] for p in preds])
    print(f"wrote {preds.size} predictions to {args.out}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    sample = load_model(args.model)
    predictor = sample.predictor()
    report = analysis.sensitivity_report(
        predictor,
        sample.d,
        args.n_s,
        args.parts,
        args.seed,
        effect_points=args.effect_points,
        effect_mc=args.effect_mc,
        threads=args.threads,
    )
    indices_path = args.out_prefix + ".indices.csv"
    write_table(
        indices_path,
        ["variable", "s1", "s1_err", "st", "st_err"],
        [[e.k, e.s1, e.s1_err, e.st, e.st_err] for e in report.estimates],
    )
    effects_path = args.out_prefix + ".effects.csv"
    write_table(
        effects_path,
        ["variable", "x", "effect"],
        [
            [k, report.effect_grid[i], report.effects[k, i]]
            for k in range(sample.d)
            for i in range(report.effect_grid.size)
        ],
    )
    print(f"wrote {indices_path} and {effects_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    records = perf.bench_run(
        [int(v) for v in args.ns.split(",")],
        [int(v) for v in args.ms.split(",")],
        [int(v) for v in args.workers.split(",")],
        args.iterations,
        args.seed,
        d=args.d,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    if not records:
        print("no cells completed", file=sys.stderr)
        return 1
    perf.write_records(args.out, records)
    report = perf.efficiency_report(records)
    report_path = args.out + ".report.csv"
    write_table(report_path, list(report[0]), [list(row.values()) for row in report])
    print(f"wrote {len(records)} records to {args.out} and report to {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bartgrid",
        description="Distributed sum-of-trees regression: fit, predict, analyze, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random-function benchmark dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, default=200_000)
    gen.add_argument("--d", type=int, default=40)
    gen.add_argument("--q", type=int, default=30)
    gen.add_argument("--noise-sd", type=float, default=0.15)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--truth-out", default=None, help="also write the noiseless response")
    gen.set_defaults(func=_cmd_generate)

    fit = sub.add_parser("fit", help="run the sampler (serial, master, or worker role)")
    fit.add_argument("--config", default=None, help="key=value configuration file")
    for key in _KEYS:
        fit.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    fit.set_defaults(func=_cmd_fit)

    pred = sub.add_parser("predict", help="posterior-mean predictions from a saved model")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True)
    pred.add_argument("--response", default="y", help="response column to drop if present")
    pred.set_defaults(func=_cmd_predict)

    sens = sub.add_parser("sensitivity", help="Sobol indices and main effects of a saved model")
    sens.add_argument("--model", required=True)
    sens.add_argument("--out-prefix", required=True)
    sens.add_argument("--n-s", type=int, default=20_000)
    sens.add_argument("--parts", type=int, default=16)
    sens.add_argument("--seed", type=int, default=0)
    sens.add_argument("--effect-points", type=int, default=21)
    sens.add_argument("--effect-mc", type=int, default=2000)
    sens.add_argument("--threads", type=int, default=None)
    sens.set_defaults(func=_cmd_sensitivity)

    bench = sub.add_parser("bench", help="factorial wall-clock scaling experiment")
    bench.add_argument("--out", required=True)
    bench.add_argument("--ns", required=True, help="comma-separated dataset sizes")
    bench.add_argument("--ms", required=True, help="comma-separated tree counts")
    bench.add_argument("--workers", required=True, help="comma-separated worker counts (0=serial)")
    bench.add_argument("--iterations", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--d", type=int, default=10)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ModelFileError, TableError, ClusterError, ValueError, OSError) as exc:
        print(f"bartgrid {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
