import socket
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from bartgrid import cli, cluster
from bartgrid import protocol as proto
from bartgrid.analysis import posterior_from_chain, predict_mean
from bartgrid.cli import (
    ConfigError,
    ModelFileError,
    RunConfig,
    _load_worker_shard,
    load_model,
    main,
    parse_config,
    save_model,
    write_chain_log,
)
from bartgrid.datagen import TableError, read_table
from bartgrid.sampler import FitSettings, run_serial


def fit_small(seed=0, n=300, d=3, m=6, draws=40, burn=10, thin=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    y = np.sin(2 * x[:, 0]) + 0.1 * rng.standard_normal(n)
    result = run_serial(
        x, y, FitSettings(m=m, draws=draws, burn=burn, thin=thin, seed=seed, min_leaf=2)
    )
    return result, x


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config({})
        assert cfg.role == "serial"
        assert cfg.fit.m == 200
        assert cfg.fit.kfac == 2.0
        assert cfg.fit.alpha == 0.95
        assert cfg.fit.beta == 2.0
        assert cfg.fit.nu == 3.0
        assert cfg.fit.sigquant == 0.9
        assert cfg.fit.numcut == 100
        assert cfg.fit.min_leaf == 5
        assert cfg.fit.thin == 1

    def test_prior_sweep_cell(self):
        cfg = parse_config({"kfac": "1", "m": "500"})
        assert cfg.fit.kfac == 1.0 and cfg.fit.m == 500

    def test_domain_error_names_key(self):
        with pytest.raises(ConfigError, match="kfac"):
            parse_config({"kfac": "0"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="fancy_knob"):
            parse_config({"fancy_knob": "1"})

    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nm = 25\nseed=9  # trailing comment\n\n")
        cfg = parse_config({}, str(path))
        assert cfg.fit.m == 25 and cfg.fit.seed == 9

    def test_malformed_file_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m 25\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config({}, str(path))

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        # Property check over random key subsets: flags > file > defaults.
        rng = np.random.default_rng(1)
        numeric_keys = ["m", "draws", "burn", "seed", "numcut", "min_leaf", "workers", "rank"]
        fit_keys = {"m", "draws", "burn", "seed", "numcut", "min_leaf"}
        # Every draws value drawn exceeds every burn value drawn (at most 507).
        offset = {"draws": 9000}
        for _ in range(25):
            file_keys = {k for k in numeric_keys if rng.random() < 0.5}
            flag_keys = {k for k in numeric_keys if rng.random() < 0.5}
            file_pairs = {
                k: str(100 + i + offset.get(k, 0)) for i, k in enumerate(sorted(file_keys))
            }
            flag_pairs = {
                k: str(500 + i + offset.get(k, 0)) for i, k in enumerate(sorted(flag_keys))
            }
            path = tmp_path / "p.cfg"
            path.write_text("".join(f"{k}={v}\n" for k, v in file_pairs.items()))
            cfg = parse_config(flag_pairs, str(path))
            for key in numeric_keys:
                value = getattr(cfg.fit if key in fit_keys else cfg, key)
                if key in flag_pairs:
                    assert value == int(flag_pairs[key])
                elif key in file_pairs:
                    assert value == int(file_pairs[key])
                elif key in fit_keys:
                    assert value == getattr(FitSettings(), key)
                else:
                    assert value == getattr(RunConfig(), key)

    def test_draws_must_exceed_burn(self):
        with pytest.raises(ConfigError, match="burn"):
            parse_config({"draws": "50", "burn": "50"})

    def test_each_fit_flag_reaches_its_setting(self, capsys, monkeypatch):
        configs = []
        monkeypatch.setattr(
            cli, "parse_config", lambda *args: configs.append(parse_config(*args)) or configs[-1]
        )
        # No --data: the serial role stops right after parsing.
        assert main(["fit", "--sigma-quantile", "0.8", "--prior-only", "true",
                     "--reduction-blocks", "0"]) == 2
        assert "requires 'data'" in capsys.readouterr().err
        fit = configs[0].fit
        assert fit.sigquant == 0.8
        assert fit.prior_only is True
        assert fit.reduction_blocks == 0 == FitSettings().reduction_blocks
        assert fit == FitSettings(sigquant=0.8, prior_only=True)
        assert main(["fit", "--sigma-quantile", "1.5"]) == 2
        assert "sigma_quantile must be in (0, 1), got 1.5" in capsys.readouterr().err
        assert len(configs) == 1


class TestModelFile:
    def test_round_trip_predicts_identically(self, tmp_path):
        result, x = fit_small()
        sample = posterior_from_chain(result)
        path = str(tmp_path / "fit.model")
        save_model(path, sample)
        loaded = load_model(path)
        xstar = np.random.default_rng(2).uniform(-1, 1, (100, 3))
        assert np.array_equal(predict_mean(sample, xstar), predict_mean(loaded, xstar))
        assert loaded.m == sample.m and loaded.n_snapshots == sample.n_snapshots

    def test_truncated_file_rejected(self, tmp_path):
        result, _ = fit_small()
        path = str(tmp_path / "fit.model")
        save_model(path, posterior_from_chain(result))
        with open(path) as fh:
            lines = fh.read().splitlines()
        truncated = tmp_path / "cut.model"
        truncated.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(ModelFileError):
            load_model(str(truncated))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.model"
        path.write_text("bartgrid-model 9\n")
        with pytest.raises(ModelFileError, match="version 9"):
            load_model(str(path))

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("something else\n")
        with pytest.raises(ModelFileError, match="not a model file"):
            load_model(str(path))

    def test_trailing_content_rejected(self, tmp_path):
        result, _ = fit_small()
        path = str(tmp_path / "fit.model")
        save_model(path, posterior_from_chain(result))
        with open(path, "a") as fh:
            fh.write("l 1 0.0\n")
        with pytest.raises(ModelFileError, match="trailing"):
            load_model(path)

    def test_paper_scale_counts_load(self, tmp_path):
        # A file declaring 400 snapshots x 200 trees parses and reports them.
        from bartgrid.analysis import PosteriorSample
        from bartgrid.trees import CutpointGrid, Tree

        grid = CutpointGrid.from_ranges(np.array([-1.0]), np.array([1.0]), 3)
        snaps = [(0.1, [Tree() for _ in range(200)]) for _ in range(400)]
        sample = PosteriorSample(m=200, d=1, numcut=3, y_mid=0.0, y_range=1.0,
                                 grid=grid, snapshots=snaps)
        path = str(tmp_path / "big.model")
        save_model(path, sample)
        loaded = load_model(path)
        assert loaded.m == 200 and loaded.n_snapshots == 400

    @staticmethod
    def _predict_with_line(tmp_path, lineno, text):
        """Run `bartgrid predict` on a saved model whose line `lineno` reads `text`."""
        from bartgrid.analysis import PosteriorSample
        from bartgrid.trees import CutpointGrid, Tree

        grid = CutpointGrid.from_ranges(np.array([-1.0]), np.array([1.0]), 3)
        sample = PosteriorSample(m=2, d=1, numcut=3, y_mid=0.0, y_range=1.0,
                                 grid=grid, snapshots=[(0.1, [Tree(), Tree()])])
        path = tmp_path / "edited.model"
        save_model(str(path), sample)
        lines = path.read_text().splitlines()
        assert lines[lineno - 1].split()[0] == text.split()[0]
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")
        data = tmp_path / "x.csv"
        data.write_text("x0\n0.5\n")
        argv = ["predict", "--model", str(path), "--data", str(data),
                "--out", str(tmp_path / "pred.csv")]
        return main(argv)

    @pytest.mark.parametrize("lineno, text, message", [
        (8, "cutpoints 0", "line 8: malformed cutpoints for variable 0"),
        (12, "tree", "line 12: expected 'tree <line count>', found 'tree'"),
    ])
    def test_short_line_named_by_predict(self, tmp_path, capsys, lineno, text, message):
        # A line cut short fails with the line's number, not a traceback.
        assert self._predict_with_line(tmp_path, lineno, text) == 2
        assert f"bartgrid predict: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("lineno, text, message", [
        (1, "bartgrid-model one", "line 1: bad 'version' value: invalid literal for int()"),
        (2, "m two", "line 2: bad 'm' value: invalid literal for int()"),
        (3, "d 1.0", "line 3: bad 'd' value: invalid literal for int()"),
        (4, "snapshots x", "line 4: bad 'snapshots' value: invalid literal for int()"),
        (5, "y_mid abc", "line 5: bad 'y_mid' value: could not convert string to float: 'abc'"),
        (6, "y_range 1,5", "line 6: bad 'y_range' value: could not convert string to float"),
        (7, "numcut 3a", "line 7: bad 'numcut' value: invalid literal for int()"),
        (8, "cutpoints 0 3 a b c",
         "line 8: bad 'cutpoints' value: could not convert string to float: 'a'"),
        (9, "snapshot 0 x", "line 9: bad 'snapshot' value: could not convert string to float: 'x'"),
    ])
    def test_non_numeric_value_named_by_predict(self, tmp_path, capsys, lineno, text, message):
        # Each kind of number in the file names its line and key when it does not parse.
        assert self._predict_with_line(tmp_path, lineno, text) == 2
        assert f"bartgrid predict: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("lineno, text, message", [
        (2, "m 0", "line 2: 'm' must be >= 1, got 0"),
        (3, "d -1", "line 3: 'd' must be >= 1, got -1"),
        (4, "snapshots 0", "line 4: 'snapshots' must be >= 1, got 0"),
        (5, "y_mid nan", "line 5: 'y_mid' must be finite, got nan"),
        (6, "y_range 0", "line 6: 'y_range' must be finite and > 0, got 0"),
        (7, "numcut -5", "line 7: 'numcut' must be >= 1, got -5"),
        (8, "cutpoints 0 3 -0.5 inf 0.5", "line 8: 'cutpoints' must be finite, got inf"),
        (9, "snapshot 0 -0.1", "line 9: 'snapshot' must be finite and > 0, got -0.1"),
    ])
    def test_out_of_range_value_named_by_predict(self, tmp_path, capsys, lineno, text, message):
        # A value that parses but would make `predict` write nan or 0.0 is
        # refused at load time, naming its line and key.
        assert self._predict_with_line(tmp_path, lineno, text) == 2
        assert f"bartgrid predict: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", [(7, 0), (1, 3)])
    def test_rule_outside_the_grid_rejected(self, tmp_path, rule):
        # A split on a variable the model lacks, or past its last cutpoint,
        # is refused at load time, not at the first prediction.
        from bartgrid.analysis import PosteriorSample
        from bartgrid.trees import CutpointGrid, Tree

        grid = CutpointGrid.from_ranges(np.full(2, -1.0), np.full(2, 1.0), 3)
        bad = Tree({1: (0, 1), 2: rule, 3: 0.5, 4: 0.0, 5: 1.0})
        snaps = [(0.1, [Tree(), Tree()]), (0.1, [Tree(), bad])]
        sample = PosteriorSample(m=2, d=2, numcut=3, y_mid=0.0, y_range=1.0,
                                 grid=grid, snapshots=snaps)
        path = str(tmp_path / "bad.model")
        save_model(path, sample)
        with pytest.raises(ModelFileError, match="snapshot 1, tree 1, node 2"):
            load_model(path)


class TestChainLog:
    def test_chain_log_round_trip_and_determinism(self, tmp_path):
        result, _ = fit_small(seed=5)
        again, _ = fit_small(seed=5)
        p1, p2 = str(tmp_path / "a.log"), str(tmp_path / "b.log")
        write_chain_log(p1, result)
        write_chain_log(p2, again)
        with open(p1) as f1, open(p2) as f2:
            assert f1.read() == f2.read()
        data, names = read_table(p1)
        assert names[:4] == ["iteration", "sigma", "sigma_y", "mean_b"]
        assert np.array_equal(data[:, 1], result.sigmas)


class TestCliCommands:
    def test_generate_defaults_match_benchmark_configuration(self):
        from bartgrid.cli import build_parser

        args = build_parser().parse_args(["generate", "--out", "x.csv"])
        assert args.n == 200_000 and args.d == 40 and args.q == 30
        assert args.noise_sd == 0.15

    def test_generate_fit_predict_pipeline(self, tmp_path):
        data = str(tmp_path / "d.csv")
        truth = str(tmp_path / "f.csv")
        model = str(tmp_path / "d.model")
        preds = str(tmp_path / "p.csv")
        assert main(["generate", "--out", data, "--n", "2000", "--d", "5",
                     "--seed", "3", "--truth-out", truth]) == 0
        assert main(["fit", "--data", data, "--out", model, "--m", "50",
                     "--draws", "300", "--burn", "150", "--thin", "15",
                     "--min-leaf", "5", "--seed", "4"]) == 0
        assert main(["predict", "--model", model, "--data", data, "--out", preds]) == 0
        f, _ = read_table(truth)
        p, _ = read_table(preds)
        y, _names = read_table(data)
        resid = p[:, 0] - f[:, 0]
        # Self-consistency: in-sample predictions track the noiseless truth
        # better than the raw response spread.
        assert np.sqrt(np.mean(resid**2)) < np.std(y[:, 0])

    def test_fit_empty_posterior_errors(self, tmp_path):
        data = str(tmp_path / "d.csv")
        main(["generate", "--out", data, "--n", "100", "--d", "2", "--seed", "0"])
        rc = main(["fit", "--data", data, "--out", str(tmp_path / "m"),
                   "--draws", "10", "--burn", "10"])
        assert rc == 2

    def test_bad_flag_value_reports_key(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        main(["generate", "--out", data, "--n", "50", "--d", "2", "--seed", "0"])
        rc = main(["fit", "--data", data, "--out", str(tmp_path / "m"), "--kfac", "0"])
        assert rc == 2
        assert "kfac" in capsys.readouterr().err

    def test_master_worker_subprocesses_match_serial(self, tmp_path):
        data = str(tmp_path / "d.csv")
        main(["generate", "--out", data, "--n", "600", "--d", "3", "--seed", "8"])
        serial_model = str(tmp_path / "serial.model")
        dist_model = str(tmp_path / "dist.model")
        common = ["--m", "8", "--draws", "40", "--burn", "10", "--thin", "5",
                  "--seed", "9", "--min-leaf", "2", "--reduction-blocks", "2"]
        assert main(["fit", "--data", data, "--out", serial_model] + common) == 0

        port = _free_port()
        master = subprocess.Popen(
            [sys.executable, "-m", "bartgrid", "fit", "--role", "master",
             "--listen", f"127.0.0.1:{port}", "--workers", "2",
             "--out", dist_model] + common,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "bartgrid", "fit", "--role", "worker",
                 "--connect", f"127.0.0.1:{port}", "--rank", str(rank),
                 "--workers", "2", "--data", data] + common,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for rank in (1, 2)
        ]
        out, err = master.communicate(timeout=120)
        assert master.returncode == 0, err
        for w in workers:
            _o, werr = w.communicate(timeout=30)
            assert w.returncode == 0, werr
        with open(serial_model) as f1, open(dist_model) as f2:
            assert f1.read() == f2.read()
        with open(serial_model + ".chainlog") as f1, open(dist_model + ".chainlog") as f2:
            assert f1.read() == f2.read()


class TestWorkerShard:
    def _write(self, tmp_path, bad_line=None):
        path = tmp_path / "d.csv"
        lines = ["y,x0,x1"] + [f"{i}.5,{i}.25,{-i}.0" for i in range(8)]
        if bad_line is not None:
            lines[bad_line - 1] = "1.0,oops,2.0"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def _cfg(self, data, rank):
        return parse_config({"data": data, "workers": "2", "rank": str(rank),
                             "reduction_blocks": "2"})

    def test_each_worker_parses_its_own_rows(self, tmp_path):
        data = self._write(tmp_path)
        x_all, y_all, _ = read_table(data, response="y")
        for rank, rows in ((1, slice(0, 4)), (2, slice(4, 8))):
            x, y = _load_worker_shard(self._cfg(data, rank))
            assert np.array_equal(x, x_all[rows]) and np.array_equal(y, y_all[rows])

    def test_bad_line_fails_only_its_owner(self, tmp_path):
        # Line 8 holds data row 6, which belongs to rank 2.
        data = self._write(tmp_path, bad_line=8)
        x, y = _load_worker_shard(self._cfg(data, 1))
        assert x.shape == (4, 2) and y.shape == (4,)
        with pytest.raises(TableError, match="line 8: non-numeric cell 'oops'"):
            _load_worker_shard(self._cfg(data, 2))

    def test_worker_frees_its_float_rows(self, tmp_path, monkeypatch):
        # `bartgrid fit --role worker` hands the loaded shard on without
        # keeping it, so the float rows die once the worker has binned them.
        data = self._write(tmp_path)
        loaded = []
        load = cli._load_worker_shard

        def watched(cfg):
            shard = load(cfg)
            loaded.append(weakref.ref(shard[0]))
            return shard

        monkeypatch.setattr(cli, "_load_worker_shard", watched)
        codes = []
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(10.0)
            argv = ["fit", "--role", "worker", "--connect",
                    f"127.0.0.1:{server.getsockname()[1]}", "--rank", "1", "--workers", "1",
                    "--data", data]
            worker = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
            worker.start()
            conn, _addr = server.accept()
            conn.settimeout(10.0)
            io = cluster.MessageIO(cluster.SocketChannel(conn))
            try:
                hello = io.recv((proto.Hello,))
                meta = io.recv((proto.ShardMeta,))
                io.send(proto.RunSetup(
                    1, 10, 1, hello.shard_rows, 0.0, 1.0, meta.x_min, meta.x_max
                ))
                # The answer to the hash phase comes after the worker binned.
                io.send(proto.IterBegin(proto.PHASE_HASH))
                io.recv((proto.ReplicaHash,))
                assert len(loaded) == 1 and loaded[0]() is None
                io.send(proto.Shutdown())
                worker.join(timeout=15)
            finally:
                io.channel.close()
        assert not worker.is_alive() and codes == [0]

    def test_rank_outside_the_layout_is_named(self, tmp_path, capsys):
        data = self._write(tmp_path)
        rc = main(["fit", "--role", "worker", "--connect", "127.0.0.1:9", "--rank", "3",
                   "--workers", "2", "--data", data])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bartgrid fit: error: no rows for rank 3 of 2 workers: 8 rows in 2" in err

    def test_unreachable_master_is_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cluster, "CONNECT_RETRY", 0.3)
        data = self._write(tmp_path)
        rc = main(["fit", "--role", "worker", "--connect", f"127.0.0.1:{_free_port()}",
                   "--rank", "1", "--workers", "1", "--data", data])
        assert rc == 2
        assert "bartgrid fit: error: could not reach master" in capsys.readouterr().err


def _free_port() -> int:
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]
