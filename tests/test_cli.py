import inspect
import json
import re

import numpy as np
import pytest

from gapcast import cli
from gapcast.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from gapcast.cli import main, parse_horizon
from gapcast.data import RESOLUTION_S, generate_synthetic, load_speed_csv
from gapcast.evaluate import collect_predictions
from gapcast.model import ModelConfig, init_params
from gapcast.sensing import SensingConfig
from gapcast.training import TrainConfig, load_model, predict_full, save_model, train


def run(argv):
    return main(argv)


def dataset(tmp_path, nodes=10, steps=300, seed=0, extra=()):
    out = tmp_path / "data"
    assert run(
        [
            "generate",
            "--nodes", str(nodes),
            "--steps", str(steps),
            "--seed", str(seed),
            "--out", str(out),
            *extra,
        ]
    ) == 0
    return out


TRAIN_ARGS = [
    "--hide-count", "2",
    "--seed", "1",
    "--epochs", "3",
    "--samples", "4",
    "--batch", "4",
    "--lr", "0.003",
    "--history", "8",
    "--horizon", "10min",
    "--hidden", "8",
    "--kappa", "2.5",
]


def train_run(tmp_path, data, name="run", extra=()):
    out = tmp_path / name
    code = run(
        [
            "train",
            "--data", str(data / "speed.csv"),
            "--distances", str(data / "distances.csv"),
            "--out", str(out),
            *TRAIN_ARGS,
            *extra,
        ]
    )
    assert code == 0
    return out


class TestParseHorizon:
    def test_30min_maps_to_six_steps(self):
        assert parse_horizon("30min", 300.0) == 6

    def test_15_and_60(self):
        assert parse_horizon("15min", 300.0) == 3
        assert parse_horizon("60min", 300.0) == 12

    def test_plain_steps(self):
        assert parse_horizon("4", 300.0) == 4

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            parse_horizon("7min", 300.0)

    def test_minutes_need_a_step_length(self):
        """A one-row series has no step length (NaN resolution); bare steps
        need none."""
        with pytest.raises(ValueError, match="at least 2 rows to know the step length"):
            parse_horizon("30min", float("nan"))
        assert parse_horizon("4", float("nan")) == 4


class TestGenerate:
    def test_files_exist_and_reload(self, tmp_path):
        out = dataset(tmp_path)
        series = load_speed_csv(out / "speed.csv")
        assert series.steps == 300 and series.n == 10
        manifest = json.loads((out / "graph.json").read_text())
        assert manifest["nodes"] == 10
        assert (out / "run_config.json").exists()

    def test_requested_shape(self, tmp_path):
        out = dataset(tmp_path, nodes=20, steps=400)
        series = load_speed_csv(out / "speed.csv")
        assert series.values.shape == (400, 20)

    def test_same_seed_identical_files(self, tmp_path):
        a = dataset(tmp_path / "a", seed=7)
        b = dataset(tmp_path / "b", seed=7)
        for name in ("speed.csv", "distances.csv", "graph.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("flag, name", [("--noise", "noise_amp"), ("--wave-amp", "wave_amp")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_amplitude_exits_1(self, tmp_path, capsys, flag, name, value):
        out = tmp_path / "data"
        code = run(["generate", "--nodes", "10", "--steps", "50", "--out", str(out), flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name} must be finite" in err
        assert not (out / "speed.csv").exists()


class TestTrain:
    def test_smoke_and_checkpoint_loads(self, tmp_path):
        data = dataset(tmp_path)
        out = train_run(tmp_path, data)
        model, extra = load_model(out / "checkpoint.bin")
        assert model.horizon == 2  # 10min at 5-min resolution
        assert len(extra["missing"]) == 2
        trace = (out / "loss_trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iteration,j_pre,j_rec,j_total"
        assert len(trace) == 4

    def test_checkpoint_reload_matches_in_memory(self, tmp_path):
        data = dataset(tmp_path)
        out = train_run(tmp_path, data)
        model, extra = load_model(out / "checkpoint.bin")
        series = load_speed_csv(data / "speed.csv")
        window = series.values[: model.history]
        from gapcast.data import load_distances_csv
        from gapcast.graph import build_adjacency

        d = load_distances_csv(data / "distances.csv", series.node_ids)
        graph = build_adjacency(d, sigma=extra["sigma"], kappa=extra["kappa"], node_ids=series.node_ids)
        graph = graph.with_partition(np.array(extra["observable"]), np.array(extra["missing"]))
        fp = predict_full(graph, window, model)
        assert np.isfinite(fp.evidential.gamma).all()

    def test_config_file_precedence(self, tmp_path):
        data = dataset(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 2, "hidden": 6}))
        out = tmp_path / "cfgrun"
        code = run(
            [
                "train",
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--config", str(cfg_file),
                "--epochs", "4",  # CLI beats config
                "--samples", "4",
                "--history", "8",
                "--horizon", "2",
                "--lr", "0.003",
                "--kappa", "2.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["epochs"] == 4  # flag wins
        assert resolved["hidden"] == 6  # config beats default

    def test_unknown_config_key_rejected(self, tmp_path):
        data = dataset(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"nope": 1}))
        code = run(
            [
                "train",
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--config", str(cfg_file),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1

    def test_config_values_parsed_like_flags(self, tmp_path, capsys):
        data = dataset(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        base = [
            "train",
            "--data", str(data / "speed.csv"),
            "--distances", str(data / "distances.csv"),
            "--config", str(cfg_file),
            "--epochs", "2",
            "--history", "8",
            "--horizon", "2",
            "--hidden", "6",
        ]
        cfg_file.write_text(json.dumps({"lr": "0.003", "samples": "2", "kappa": 2.5}))
        out = tmp_path / "textcfg"
        assert run([*base, "--out", str(out)]) == 0
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["lr"] == 0.003 and resolved["samples"] == 2
        for bad in ({"lr": "fast"}, {"batch": 2.5}, {"k_order": True}):
            cfg_file.write_text(json.dumps(bad))
            assert run([*base, "--out", str(tmp_path / "bad")]) == 1
            err = capsys.readouterr().err
            assert "error:" in err and repr(next(iter(bad))) in err

    def test_reproducible_outputs(self, tmp_path):
        data = dataset(tmp_path)
        out = tmp_path / "repro"
        args = [
            "train",
            "--data", str(data / "speed.csv"),
            "--distances", str(data / "distances.csv"),
            "--out", str(out),
            *TRAIN_ARGS,
        ]
        assert run(args) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("checkpoint.bin", "loss_trace.csv", "run_config.json")
        }
        assert run(args) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name


class TestTrainRejectsInput:
    def test_duplicate_sensor_id_exits_1(self, tmp_path, capsys):
        data = dataset(tmp_path)
        lines = (data / "speed.csv").read_text().splitlines()
        header = lines[0].split(",")
        header[2] = header[1]
        dup = tmp_path / "dup.csv"
        dup.write_text("\n".join([",".join(header), *lines[1:]]) + "\n")
        code = run(
            [
                "train",
                "--data", str(dup),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "t"),
                *TRAIN_ARGS,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"row 1: duplicate sensor id {header[1]!r}" in err
        assert "Traceback" not in err

    def test_infinite_timestamp_exits_1(self, tmp_path, capsys):
        data = dataset(tmp_path)
        lines = (data / "speed.csv").read_text().splitlines()
        last = lines[-1].split(",")
        bad = tmp_path / "inf.csv"
        bad.write_text("\n".join([*lines[:-1], ",".join(["inf", *last[1:]])]) + "\n")
        code = run(
            [
                "train",
                "--data", str(bad),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "t"),
                *TRAIN_ARGS,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"row {len(lines)}: non-finite timestamp" in err
        assert "Traceback" not in err


class TestEval:
    def test_missing_checkpoint_nonzero_exit(self, tmp_path, capsys):
        data = dataset(tmp_path)
        code = run(
            [
                "eval",
                "--checkpoint", str(tmp_path / "absent.bin"),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_reordered_csv_columns_rejected(self, tmp_path, capsys):
        data = dataset(tmp_path)
        out = train_run(tmp_path, data)
        rows = [line.split(",") for line in (data / "speed.csv").read_text().splitlines()]
        flipped = tmp_path / "flipped.csv"
        flipped.write_text("".join(",".join([r[0], *r[:0:-1]]) + "\n" for r in rows))
        code = run(
            [
                "eval",
                "--checkpoint", str(out / "checkpoint.bin"),
                "--data", str(flipped),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "node index 0" in err

    def test_checkpoint_without_cli_metadata_rejected(self, tmp_path, capsys):
        data = dataset(tmp_path)
        out = train_run(tmp_path, data)
        model, _ = load_model(out / "checkpoint.bin")
        bare = tmp_path / "bare.bin"
        save_model(bare, model)  # the public API writes no CLI metadata
        code = run(
            [
                "eval",
                "--checkpoint", str(bare),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'node_ids'" in err

    def test_checkpoint_with_empty_meta_exits_1(self, tmp_path, capsys):
        data = dataset(tmp_path)
        empty = tmp_path / "empty.bin"
        params = init_params(ModelConfig(hidden_dim=4), 8, np.random.default_rng(0))
        save_checkpoint(empty, params, {})
        with pytest.raises(CheckpointError, match="'model_cfg'"):
            load_model(empty)
        code = run(
            [
                "eval",
                "--checkpoint", str(empty),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'model_cfg'" in err

    @pytest.mark.parametrize(
        "key, bad",
        [("sigma", "abc"), ("kappa", "abc"), ("node_ids", 5), ("missing", None), ("sigma", [1]),
         ("missing", [2**70])],
    )
    def test_wrong_typed_cli_metadata_names_its_key(self, tmp_path, capsys, key, bad):
        data = dataset(tmp_path)
        params, meta = load_checkpoint(train_run(tmp_path, data) / "checkpoint.bin")
        meta["extra"][key] = bad
        edited = tmp_path / "edited.bin"
        save_checkpoint(edited, params, meta)
        code = run(
            [
                "eval",
                "--checkpoint", str(edited),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key!r} is malformed" in err

    def test_nothing_hidden_evaluates(self, tmp_path):
        """A run with nothing hidden stores ``missing`` as ``[]``, which the
        node-index reader takes as an empty list."""
        data = dataset(tmp_path)
        out = train_run(tmp_path, data, extra=["--hide-count", "0"])
        assert load_model(out / "checkpoint.bin")[1]["missing"] == []
        code = run(
            [
                "eval",
                "--checkpoint", str(out / "checkpoint.bin"),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 0 and (tmp_path / "e" / "metrics.csv").exists()

    @pytest.mark.parametrize("key", ["observable", "missing"])
    @pytest.mark.parametrize(
        "edit", [lambda i: i + 0.25, lambda i: i + 0.75, lambda i: True, lambda i: str(i)],
        ids=["plus-0.25", "plus-0.75", "true", "string"],
    )
    def test_non_integer_node_index_names_its_key(self, tmp_path, capsys, key, edit):
        data = dataset(tmp_path)
        params, meta = load_checkpoint(train_run(tmp_path, data) / "checkpoint.bin")
        meta["extra"][key] = [edit(i) for i in meta["extra"][key]]
        edited = tmp_path / "edited.bin"
        save_checkpoint(edited, params, meta)
        code = run(
            [
                "eval",
                "--checkpoint", str(edited),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key!r} is malformed" in err
        assert "expected a list of integer node indices" in err

    @pytest.mark.parametrize(
        "cut, message", [(6, "preamble"), (20, "not JSON"), (-1, "runs past")]
    )
    def test_truncated_checkpoint_exits_1(self, tmp_path, capsys, cut, message):
        data = dataset(tmp_path)
        blob = (train_run(tmp_path, data) / "checkpoint.bin").read_bytes()
        cut_path = tmp_path / "cut.bin"
        cut_path.write_bytes(blob[:cut])
        code = run(
            [
                "eval",
                "--checkpoint", str(cut_path),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_eval_writes_reports(self, tmp_path):
        data = dataset(tmp_path)
        out = train_run(tmp_path, data)
        edir = tmp_path / "evalout"
        code = run(
            [
                "eval",
                "--checkpoint", str(out / "checkpoint.bin"),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--stride", "3",
                "--out", str(edir),
            ]
        )
        assert code == 0
        assert (edir / "metrics.csv").exists()
        per_node = (edir / "per_node_metrics.csv").read_text().strip().splitlines()
        assert per_node[0].startswith("node_id,node_index,group")
        assert len(per_node) == 11

    def test_perfect_oracle_checkpoint_gives_zero_rmse(self, tmp_path):
        # constant dataset + zeroed parameters: prediction is exactly the mean
        data = dataset(
            tmp_path,
            extra=["--noise", "0", "--diurnal-amp", "0", "--wave-amp", "0"],
        )
        series = load_speed_csv(data / "speed.csv")
        assert np.ptp(series.values) == 0.0
        graph_cfg = TrainConfig(
            iterations=1, samples_per_iter=1, history=8, horizon=2,
            model=ModelConfig(hidden_dim=8),
        )
        from gapcast.data import load_distances_csv
        from gapcast.graph import build_adjacency

        d = load_distances_csv(data / "distances.csv", series.node_ids)
        graph = build_adjacency(d, kappa=2.5, node_ids=series.node_ids)
        result = train(graph, series, graph_cfg, np.random.default_rng(0))
        for p in result.model.params.values():
            p.values[:] = 0.0
        ckpt = tmp_path / "oracle.bin"
        save_model(
            ckpt,
            result.model,
            extra_meta={
                "node_ids": list(series.node_ids),
                "observable": graph.observable.tolist(),
                "missing": graph.missing.tolist(),
                "seed": 0,
                "kappa": 2.5,
                "sigma": graph.kernel_sigma,
            },
        )
        edir = tmp_path / "oracle_eval"
        code = run(
            [
                "eval",
                "--checkpoint", str(ckpt),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--out", str(edir),
            ]
        )
        assert code == 0
        rows = (edir / "metrics.csv").read_text().strip().splitlines()
        observable_row = rows[1].split(",")
        assert observable_row[0] == "observable"
        assert float(observable_row[1]) == 0.0  # rmse exactly zero


SENSE_ARGS = [
    "--budget", "2",
    "--init-sensors", "4",
    "--steps", "1",
    "--train-iters", "2",
    "--seed", "3",
    "--history", "8",
    "--horizon", "2",
    "--hidden", "8",
    "--kappa", "2.5",
    "--eval-stride", "8",
]


class TestSense:
    def test_both_policies_emit_logs(self, tmp_path):
        data = dataset(tmp_path)
        out = tmp_path / "sense"
        code = run(
            [
                "sense",
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--policy", "random",
                "--policy", "uncertainty",
                "--out", str(out),
                *SENSE_ARGS,
            ]
        )
        assert code == 0
        assert (out / "episode_random.csv").exists()
        assert (out / "episode_uncertainty.csv").exists()

    def test_reproducible(self, tmp_path):
        data = dataset(tmp_path)
        out = tmp_path / "sense2"
        args = [
            "sense",
            "--data", str(data / "speed.csv"),
            "--distances", str(data / "distances.csv"),
            "--policy", "random",
            "--out", str(out),
            *SENSE_ARGS,
        ]
        assert run(args) == 0
        blob = (out / "episode_random.csv").read_bytes()
        assert run(args) == 0
        assert (out / "episode_random.csv").read_bytes() == blob

    def test_repeated_policy_refused(self, tmp_path, capsys):
        data = dataset(tmp_path)
        files = ["--data", str(data / "speed.csv"), "--distances", str(data / "distances.csv")]
        out = tmp_path / "s"
        code = run(["sense", *files, "--policy", "random", "--policy", "random", *SENSE_ARGS,
                    "--out", str(out)])
        assert code == 1
        assert "'random'" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestRejectedValues:
    """Out-of-range option values exit 1 with a message naming the option."""

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--hidden", "0", "hidden"),
            ("--kappa", "-1", "kappa"),
            ("--kappa", "0", "kappa"),
            ("--lr", "-1", "lr"),
            ("--lr", "0", "lr"),
            ("--alpha", "nan", "alpha"),
            ("--alpha", "inf", "alpha"),
            ("--horizon", "infmin", "horizon"),
            ("--horizon", "-infmin", "horizon"),
            ("--horizon", "1e400min", "horizon"),
            ("--horizon", "nanmin", "horizon"),
            ("--horizon", "abc", "horizon"),
            ("--horizon", "inf", "horizon"),
            ("--horizon", "2.5", "horizon"),
            ("--sigma", "nan", "sigma"),
        ],
    )
    def test_train(self, tmp_path, capsys, flag, value, name):
        data = dataset(tmp_path)
        files = ["--data", str(data / "speed.csv"), "--distances", str(data / "distances.csv")]
        # one --flag=value word, so a value such as -infmin is not read as a flag
        code = run(["train", *files, *TRAIN_ARGS, f"{flag}={value}", "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err

    def test_eval_stride(self, tmp_path, capsys):
        data = dataset(tmp_path)
        model = train_run(tmp_path, data, extra=["--epochs", "1"])
        code = run(
            [
                "eval",
                "--checkpoint", str(model / "checkpoint.bin"),
                "--data", str(data / "speed.csv"),
                "--distances", str(data / "distances.csv"),
                "--stride", "0",
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "stride" in err

    def test_sense_eval_stride(self, tmp_path, capsys):
        data = dataset(tmp_path)
        files = ["--data", str(data / "speed.csv"), "--distances", str(data / "distances.csv")]
        code = run(["sense", *files, *SENSE_ARGS, "--eval-stride", "0", "--out", str(tmp_path / "s")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "eval_stride" in err

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_generate_steps(self, tmp_path, capsys, steps):
        code = run(["generate", "--nodes", "20", "--steps", steps, "--out", str(tmp_path / "g")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least 2 steps" in err
        assert not (tmp_path / "g" / "speed.csv").exists()

    @pytest.mark.parametrize(
        "rows, message",
        [(0, "row 2: the file has no readings after its header"),
         (1, "horizon '30min' needs a series of at least 2 rows")],
    )
    def test_train_on_too_short_series(self, tmp_path, capsys, rows, message):
        """A speed CSV cut to its header, or to one row, is refused with an
        error that names the cause."""
        data = dataset(tmp_path, nodes=20)
        speed = data / "speed.csv"
        speed.write_text("".join(speed.read_text().splitlines(keepends=True)[: 1 + rows]))
        files = ["--data", str(speed), "--distances", str(data / "distances.csv")]
        code = run(["train", *files, "--horizon", "30min", "--out", str(tmp_path / "t")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--steps", "-1", "steps"), ("--budget", "-1", "budget"), ("--budget", "0", "budget"),
         ("--lr", "-1", "lr")],
    )
    def test_sense(self, tmp_path, capsys, flag, value, name):
        data = dataset(tmp_path)
        files = ["--data", str(data / "speed.csv"), "--distances", str(data / "distances.csv")]
        code = run(["sense", *files, *SENSE_ARGS, flag, value, "--out", str(tmp_path / "s")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err


class TestParser:
    @pytest.mark.parametrize("cmd", ["generate", "train", "eval", "sense"])
    def test_help_exits_zero_and_documents_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--out" in text
        assert "--seed" in text or cmd == "eval"

    def test_unknown_flag_is_hard_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--bogus", "1", "--out", "x"])
        assert exc.value.code != 0

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0


class TestOptionTable:
    FILE_FLAGS = {"help", "data", "distances", "checkpoint", "config", "out"}

    def test_run_config_keys_match_help_flags(self, tmp_path, capsys):
        data = dataset(tmp_path)
        model = train_run(tmp_path, data, extra=["--epochs", "1"])
        files = ["--data", str(data / "speed.csv"), "--distances", str(data / "distances.csv")]
        evaluated, sensed = tmp_path / "e", tmp_path / "s"
        ckpt = str(model / "checkpoint.bin")
        assert run(["eval", "--checkpoint", ckpt, *files, "--out", str(evaluated)]) == 0
        assert run(["sense", *files, "--policy", "random", *SENSE_ARGS, "--out", str(sensed)]) == 0
        outputs = {"generate": data, "train": model, "eval": evaluated, "sense": sensed}
        for command, folder in outputs.items():
            keys = set(json.loads((folder / "run_config.json").read_text())) - {"command"}
            capsys.readouterr()
            with pytest.raises(SystemExit):
                main([command, "--help"])
            flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
            assert {key.replace("_", "-") for key in keys} == flags - self.FILE_FLAGS, command


def option_defaults(command):
    return {name: opt.default for name, opt in cli._options(command).items()}


def keyword_default(func, name):
    return inspect.signature(func).parameters[name].default


class TestSharedDefaults:
    """Each option's default equals the default of the field or argument it
    feeds, so a flagless run does what the library does by default."""

    @pytest.mark.parametrize(
        "command, reference", [("train", TrainConfig()), ("sense", SensingConfig().train)]
    )
    def test_train_and_model_config(self, command, reference):
        defaults = option_defaults(command)
        pairs = [(opt, getattr(reference, f)) for opt, f in cli.TRAIN_FIELDS.items()]
        pairs += [(opt, getattr(reference.model, f)) for opt, f in cli.MODEL_FIELDS.items()]
        checked = [(opt, want) for opt, want in pairs if opt in defaults]
        assert len(checked) == {"train": 9, "sense": 5}[command]
        for opt, want in checked:
            assert defaults[opt] == want, opt
        assert parse_horizon(defaults["horizon"], RESOLUTION_S) == reference.horizon

    def test_sensing_config(self):
        defaults, reference = option_defaults("sense"), SensingConfig()
        fields = {
            "budget": "budget_per_step",
            "init_sensors": "initial_count",
            "steps": "steps",
            "eval_stride": "eval_stride",
        }
        for opt, field in fields.items():
            assert defaults[opt] == getattr(reference, field), opt

    def test_generator_and_eval(self):
        defaults = option_defaults("generate")
        arguments = {
            "noise": "noise_amp",
            "diurnal_amp": "diurnal_amp",
            "wave_amp": "wave_amp",
            "kappa_hops": "kappa_hops",
        }
        for opt, name in arguments.items():
            assert defaults[opt] == keyword_default(generate_synthetic, name), opt
        assert option_defaults("eval")["stride"] == keyword_default(collect_predictions, "stride")
