"""Pinned md5 digests of fixed-seed outputs, in tests/data/digests.json.

Each digest pins the bits of one output:
- the model file and chain log of a serial CLI fit (n=400, d=3, m=10,
  60 draws, 2 reduction blocks);
- the chain log of the same fit with `prior_only`;
- `predict_mean` of that model on fixed rows;
- the estimates and main effects of a small `sensitivity_report` on it;
- per peer, the frames it sends in a 2-worker in-process fit of the same
  data and settings (`wire.master`, `wire.worker-1`, `wire.worker-2`).

The file also records the numpy version and machine it was made on; the
bits can change with either.  Run from the repository root:

    PYTHONPATH=src python tests/make_digests.py          # rewrite the file
    PYTHONPATH=src python tests/make_digests.py --check  # exit 1 on a mismatch

`tests/test_digests.py` recomputes the digests in tier-1.  A change that
moves a digest on purpose regenerates the file and says which one and why.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import threading
from dataclasses import astuple

import numpy as np

from bartgrid import analysis, cli, cluster, datagen

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "digests.json")
FIT = ["--m", "10", "--draws", "60", "--burn", "20", "--thin", "4", "--min-leaf", "2",
       "--seed", "5", "--reduction-blocks", "2"]


def environment() -> dict[str, str]:
    """What the bits depend on besides the code."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _array_md5(*arrays: np.ndarray) -> str:
    return _md5(b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays))


def _file_md5(path: str) -> str:
    with open(path, "rb") as fh:
        return _md5(fh.read())


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bartgrid {' '.join(argv)} exited {code}")


def _wire_md5s(data: str) -> dict[str, str]:
    """md5 of the bytes each peer sends in a 2-worker in-process fit."""
    x, y, _names = datagen.read_table(data, response="y")
    settings = cli.parse_config(
        {flag[2:].replace("-", "_"): value for flag, value in zip(FIT[::2], FIT[1::2])}
    ).fit
    master = threading.current_thread().name
    sent = {}
    send = cluster.SocketChannel.send

    def spy(channel, frame):
        name = threading.current_thread().name
        peer = "master" if name == master else name.removeprefix("bartgrid-")
        sent.setdefault(f"wire.{peer}", hashlib.md5()).update(frame)
        send(channel, frame)

    cluster.SocketChannel.send = spy
    try:
        cluster.run_cluster_inprocess(x, y, settings, workers=2)
    finally:
        cluster.SocketChannel.send = send
    return {key: md5.hexdigest() for key, md5 in sent.items()}


def compute(workdir: str) -> dict[str, str]:
    """The digests, from files written under `workdir`."""
    data, model, prior = (
        os.path.join(workdir, name) for name in ("d.csv", "fit.model", "prior.model")
    )
    _run(["generate", "--out", data, "--n", "400", "--d", "3", "--q", "4", "--seed", "3"])
    _run(["fit", "--data", data, "--out", model, *FIT])
    _run(["fit", "--data", data, "--out", prior, "--prior-only", "true", *FIT])
    sample = cli.load_model(model)
    xstar = np.random.default_rng(7).uniform(-1.0, 1.0, (500, 3))
    report = analysis.sensitivity_report(
        sample.predictor(), sample.d, 2000, 4, 11, effect_points=5, effect_mc=200
    )
    return {
        "fit.model": _file_md5(model),
        "fit.chainlog": _file_md5(model + ".chainlog"),
        "prior.chainlog": _file_md5(prior + ".chainlog"),
        "predict_mean": _array_md5(analysis.predict_mean(sample, xstar)),
        "sobol.estimates": _array_md5(np.array([astuple(e) for e in report.estimates])),
        "sobol.effects": _array_md5(report.effect_grid, report.effects),
        **_wire_md5s(data),
    }


def mismatches(recorded: dict, record: dict) -> list[str]:
    """One line per environment key or digest that differs."""
    flat = [(key, recorded.get(key), record[key]) for key in environment()]
    flat += [(key, recorded["digests"].get(key), value) for key, value in record["digests"].items()]
    return [f"{key}: recorded {old!r}, computed {new!r}" for key, old, new in flat if old != new]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded file instead of rewriting it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        digests = compute(workdir)
    record = {**environment(), "digests": digests}
    if not args.check:
        os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
        with open(DIGESTS, "w", encoding="ascii") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {DIGESTS}")
        return 0
    with open(DIGESTS, encoding="ascii") as fh:
        recorded = json.load(fh)
    bad = mismatches(recorded, record)
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
