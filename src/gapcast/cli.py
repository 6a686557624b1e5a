"""Command-line entry point: generate / train / eval / sense.

Every run is seed-reproducible: identical arguments (including --seed)
produce byte-identical output files. Option precedence is CLI flag >
--config JSON file > built-in default, and the resolved configuration is
echoed to <out>/run_config.json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .data import (
    NodeIdMismatch,  # noqa: F401  (re-exported: callers catch cli.NodeIdMismatch)
    SplitSpec,
    check_node_ids,
    generate_synthetic,
    hide_locations,
    load_distances_csv,
    load_speed_csv,
    save_distances_csv,
    save_speed_csv,
    split,
    write_csv,
)
from .checkpoint import CheckpointError
from .evaluate import collect_predictions, make_report
from .graph import build_adjacency
from .model import ModelConfig
from .sensing import POLICIES, SensingConfig, run_episodes
from .training import TrainConfig, load_model, save_model, train


@dataclass(frozen=True)
class Option:
    """One option: the flag ``--name`` (``_`` spelled ``-``), the --config
    key ``name`` and the run_config.json key ``name``."""

    name: str
    type: Callable[[str], object]
    default: object
    help: str
    commands: tuple[str, ...]
    choices: tuple[str, ...] = ()
    repeat: bool = False  # the flag may be given several times; the value is a list

    def from_config(self, value):
        """Parse a --config value the way the flag's text would be parsed."""
        texts = value if self.repeat and not isinstance(value, str) else [value]
        try:
            parsed = [self.type(str(text)) for text in texts]
        except (TypeError, ValueError):
            raise ValueError(
                f"config key {self.name!r}: {value!r} is not a {self.type.__name__}"
            ) from None
        if self.choices and not set(parsed) <= set(self.choices):
            raise ValueError(f"config key {self.name!r}: {value!r} is not in {self.choices}")
        return parsed if self.repeat else parsed[0]


TRAIN_SENSE = ("train", "sense")

OPTIONS = (
    Option("nodes", int, 20, "number of sensor locations", ("generate",)),
    Option("steps", int, 2000, "number of 5-minute steps", ("generate",)),
    Option("noise", float, 2.0, "uniform noise amplitude (mph)", ("generate",)),
    Option("diurnal_amp", float, 12.0, "diurnal dip amplitude", ("generate",)),
    Option("wave_amp", float, 8.0, "traveling wave amplitude", ("generate",)),
    Option("kappa_hops", float, 2.5, "adjacency cutoff in hops", ("generate",)),
    Option("seed", int, 0, "random seed", ("generate", "train", "sense")),
    Option("hide_count", int, 0, "locations to hide", ("train",)),
    Option("epochs", int, 750, "training iterations", ("train",)),
    Option("samples", int, 8, "subgraph samples per iteration", ("train",)),
    Option("batch", int, 4, "gradient batch size", ("train",)),
    Option("k_order", int, 2, "Chebyshev order", ("train",)),
    Option("layers", int, 3, "diffusion layer count", ("train",)),
    Option("sigma", float, None, "kernel width (default: distance std)", ("train",)),
    Option("lr", float, 1e-4, "Adam learning rate", TRAIN_SENSE),
    Option("alpha", float, 1.0, "recovery loss weight", TRAIN_SENSE),
    Option("hidden", int, 100, "hidden width", TRAIN_SENSE),
    Option("history", int, 24, "input window length in steps", TRAIN_SENSE),
    Option("horizon", str, "30min", "prediction horizon ('30min' or steps)", TRAIN_SENSE),
    Option("kappa", float, float("inf"), "adjacency distance cutoff", TRAIN_SENSE),
    Option("stride", int, 1, "evaluate every k-th window", ("eval",)),
    Option(
        "policy", str, POLICIES, "deployment policy (repeatable; default: both)", ("sense",),
        choices=POLICIES, repeat=True,
    ),
    Option("budget", int, 10, "sensors deployed per step", ("sense",)),
    Option("init_sensors", int, 50, "starting coverage", ("sense",)),
    Option("steps", int, 5, "deployment steps", ("sense",)),
    Option("train_iters", int, 200, "retraining iterations per step", ("sense",)),
    Option("eval_stride", int, 4, "evaluate every k-th window", ("sense",)),
)

# Input files each command requires; they are neither config keys nor echoed.
FILES = (
    ("checkpoint", "checkpoint path", ("eval",)),
    ("data", "speed CSV path", ("train", "eval", "sense")),
    ("distances", "distance CSV path", ("train", "eval", "sense")),
)

# Resolved option -> TrainConfig / ModelConfig field. A field whose option
# the command lacks keeps the dataclass default.
TRAIN_FIELDS = {
    "epochs": "iterations",
    "train_iters": "iterations",
    "samples": "samples_per_iter",
    "batch": "batch_size",
    "history": "history",
    "alpha": "loss_alpha",
    "lr": "lr",
}
MODEL_FIELDS = {"hidden": "hidden_dim", "layers": "layers", "k_order": "cheb_order"}


def _options(command: str) -> dict[str, Option]:
    return {opt.name: opt for opt in OPTIONS if command in opt.commands}


def parse_horizon(value, resolution: float) -> int:
    """'30min' -> steps at the series resolution; bare integers are steps."""
    text = str(value).strip().lower()
    minutes = text.endswith("min")
    try:
        number = float(text[:-3]) if minutes else int(text)
    except ValueError:
        raise ValueError(
            f"horizon {value!r} is neither a whole number of steps nor '<minutes>min'"
        ) from None
    if minutes:
        if math.isnan(resolution):
            raise ValueError(
                f"horizon {value!r} needs a series of at least 2 rows to know the step length"
            )
        steps_f = number * 60.0 / resolution
        if not math.isfinite(steps_f):
            raise ValueError(f"horizon {value!r} is not a finite number of minutes")
        if abs(steps_f - round(steps_f)) > 1e-9:
            raise ValueError(
                f"horizon {value!r} is not a whole number of {resolution:.0f}s steps"
            )
        steps = int(round(steps_f))
    else:
        steps = number
    if steps < 1:
        raise ValueError(f"horizon must be at least one step, got {value!r}")
    return steps


def _resolve(ns: argparse.Namespace) -> dict:
    """CLI flag > config file > default, for every option of ns.command.

    A config value of null counts as unset.
    """
    options = _options(ns.command)
    config = {}
    if ns.config:
        with open(ns.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{ns.config} must hold a JSON object")
        unknown = set(config) - set(options)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for name, opt in options.items():
        value = getattr(ns, name)
        if value is None and config.get(name) is not None:
            value = opt.from_config(config[name])
        resolved[name] = opt.default if value is None else value
    return resolved


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as sorted, indented JSON, so a rerun writes the same bytes."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n")


def _load_graph(ns_data, ns_distances, sigma, kappa):
    series = load_speed_csv(ns_data)
    distances = load_distances_csv(ns_distances, series.node_ids)
    graph = build_adjacency(distances, sigma=sigma, kappa=kappa, node_ids=series.node_ids)
    return graph, series


def _train_config(cfg: dict, resolution: float) -> TrainConfig:
    """The TrainConfig that train and sense build from their options."""
    return TrainConfig(
        horizon=parse_horizon(cfg["horizon"], resolution),
        model=ModelConfig(**{f: cfg[k] for k, f in MODEL_FIELDS.items() if k in cfg}),
        **{f: cfg[k] for k, f in TRAIN_FIELDS.items() if k in cfg},
    )


def _node_indices(nodes) -> np.ndarray:
    """A stored list of node indices, ``[]`` included; anything else, such
    as an entry that is a fraction, a bool or a string, raises ValueError."""
    if not isinstance(nodes, list) or any(type(i) is not int for i in nodes):
        raise ValueError("expected a list of integer node indices")
    return np.array(nodes, dtype=np.int64)


# Metadata cmd_train stores with a checkpoint, and how cmd_eval reads each back.
EVAL_META = {
    "node_ids": tuple,
    "observable": _node_indices,
    "missing": _node_indices,
    "sigma": float,
    "kappa": float,
}


def cmd_generate(ns: argparse.Namespace, cfg: dict, out: Path) -> None:
    rng = np.random.default_rng(cfg["seed"])
    graph, series = generate_synthetic(
        cfg["nodes"],
        cfg["steps"],
        rng,
        diurnal_amp=cfg["diurnal_amp"],
        wave_amp=cfg["wave_amp"],
        noise_amp=cfg["noise"],
        kappa_hops=cfg["kappa_hops"],
    )
    save_speed_csv(series, out / "speed.csv")
    save_distances_csv(graph.distances, graph.node_ids, out / "distances.csv")
    manifest = {
        "nodes": graph.n,
        "steps": series.steps,
        "node_ids": list(graph.node_ids),
        "kernel_sigma": graph.kernel_sigma,
        "kernel_kappa": graph.kernel_kappa,
        "resolution_seconds": series.resolution,
    }
    _write_json(out / "graph.json", manifest)
    print(f"wrote {series.steps}x{graph.n} series to {out}")


def cmd_train(ns: argparse.Namespace, cfg: dict, out: Path) -> None:
    graph, series = _load_graph(ns.data, ns.distances, cfg["sigma"], cfg["kappa"])
    train_cfg = _train_config(cfg, series.resolution)
    rng = np.random.default_rng(cfg["seed"])
    graph = hide_locations(graph, cfg["hide_count"], rng)
    min_steps = train_cfg.history + train_cfg.horizon
    train_series, _, _ = split(series, SplitSpec(), min_steps=min_steps)
    result = train(graph, train_series, train_cfg, rng)
    save_model(
        out / "checkpoint.bin",
        result.model,
        extra_meta={
            "node_ids": list(series.node_ids),
            "observable": graph.observable.tolist(),
            "missing": graph.missing.tolist(),
            "seed": cfg["seed"],
            "kappa": cfg["kappa"],
            "sigma": graph.kernel_sigma,
        },
    )
    columns = ["iteration", "j_pre", "j_rec", "j_total"]
    write_csv(out / "loss_trace.csv", columns, ([row[c] for c in columns] for row in result.trace))
    final = result.trace[-1]
    print(f"trained {cfg['epochs']} epochs; final j_total {final['j_total']:.4f}")


def cmd_eval(ns: argparse.Namespace, cfg: dict, out: Path) -> None:
    model, extra = load_model(ns.checkpoint)
    meta = {}
    for key, build in EVAL_META.items():
        try:
            value = extra[key]
        except (KeyError, TypeError):  # TypeError: the extra meta is not a JSON object
            raise CheckpointError(
                f"{ns.checkpoint} has no {key!r} in its metadata; "
                "eval needs a checkpoint written by 'gapcast train'"
            ) from None
        try:
            meta[key] = build(value)
        except (TypeError, ValueError, OverflowError) as err:
            raise CheckpointError(
                f"{ns.checkpoint} metadata {key!r} is malformed: {err}"
            ) from None
    graph, series = _load_graph(ns.data, ns.distances, meta["sigma"], meta["kappa"])
    check_node_ids(meta["node_ids"], series.node_ids, "the checkpoint")
    graph = graph.with_partition(meta["observable"], meta["missing"])
    min_steps = model.history + model.horizon
    _, _, test_series = split(series, SplitSpec(), min_steps=min_steps)
    wp = collect_predictions(model, graph, test_series, test_series, stride=cfg["stride"])
    report = make_report(wp, graph, horizon=model.horizon)
    report.to_csv(out / "metrics.csv")
    report.per_node_csv(out / "per_node_metrics.csv")
    print(report.format_table())


def cmd_sense(ns: argparse.Namespace, cfg: dict, out: Path) -> None:
    graph, series = _load_graph(ns.data, ns.distances, None, cfg["kappa"])
    sense_cfg = SensingConfig(
        initial_count=cfg["init_sensors"],
        budget_per_step=cfg["budget"],
        steps=cfg["steps"],
        train=_train_config(cfg, series.resolution),
        eval_stride=cfg["eval_stride"],
    )
    rng = np.random.default_rng(cfg["seed"])
    for episode in run_episodes(graph, series, sense_cfg, cfg["policy"], rng):
        episode.to_csv(out / f"episode_{episode.policy}.csv")
        last = episode.records[-1]
        print(
            f"{episode.policy}: final coverage {last.n_observable}, "
            f"rmse obs {last.rmse_observable:.3f}, missing {last.rmse_missing:.3f}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcast",
        description="Traffic forecasting with uncertainty at sensed and unsensed locations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("generate", cmd_generate, "write a synthetic corridor dataset"),
        ("train", cmd_train, "train a forecaster on a speed CSV"),
        ("eval", cmd_eval, "evaluate a checkpoint on the test split"),
        ("sense", cmd_sense, "run active-sensing deployment episodes"),
    )
    for command, func, help_text in commands:
        cp = sub.add_parser(command, help=help_text)
        for name, file_help, takers in FILES:
            if command in takers:
                cp.add_argument(f"--{name}", required=True, help=file_help)
        for opt in _options(command).values():
            flag = "--" + opt.name.replace("_", "-")
            if opt.repeat:
                cp.add_argument(flag, action="append", choices=opt.choices, help=opt.help)
            else:
                cp.add_argument(flag, type=opt.type, help=opt.help)
        cp.add_argument("--config", help="JSON file with defaults for these flags")
        cp.add_argument("--out", required=True, help="output directory")
        cp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command: resolve its options, create --out, run it, and
    echo the resolved options to run_config.json."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _resolve(ns)
        out = Path(ns.out)
        out.mkdir(parents=True, exist_ok=True)
        ns.func(ns, cfg, out)
        _write_json(out / "run_config.json", {"command": ns.command, **cfg})
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
