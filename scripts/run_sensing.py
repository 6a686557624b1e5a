#!/usr/bin/env python3
"""Paired active-sensing study: uncertainty-guided vs random sensor
deployment over several seeds, with per-step RMSE curves.

    python3 scripts/run_sensing.py --seeds 5 --out results/sensing
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from gapcast.data import generate_synthetic
from gapcast.model import ModelConfig
from gapcast.sensing import SensingConfig, run_episode
from gapcast.training import TrainConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--nodes", type=int, default=40)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--init-sensors", type=int, default=10, dest="init_sensors")
    parser.add_argument("--budget", type=int, default=5)
    parser.add_argument("--deploy-steps", type=int, default=5, dest="deploy_steps")
    parser.add_argument("--train-iters", type=int, default=750, dest="train_iters")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = SensingConfig(
        initial_count=args.init_sensors,
        budget_per_step=args.budget,
        steps=args.deploy_steps,
        train=TrainConfig(
            iterations=args.train_iters,
            history=24,
            horizon=12,
            lr=5e-3,
            model=ModelConfig(hidden_dim=48),
        ),
        eval_stride=1,
    )
    with open(out / "sensing_curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "policy", "step", "n_observable", "rmse_obs", "rmse_missing"])
        for seed in range(args.seeds):
            gen = np.random.default_rng(seed)
            graph, series = generate_synthetic(
                args.nodes, args.steps, gen, kappa_hops=6.5, wave_het=0.9, noise_amp=1.5
            )
            for policy in ("uncertainty", "random"):
                episode = run_episode(graph, series, cfg, policy, np.random.default_rng(seed))
                episode.to_csv(out / f"episode_seed{seed}_{policy}.csv")
                for rec in episode.records:
                    writer.writerow(
                        [seed, policy, rec.step, rec.n_observable,
                         rec.rmse_observable, rec.rmse_missing]
                    )
                last = episode.records[-1]
                print(
                    f"seed {seed} {policy}: step {last.step} missing "
                    f"{last.rmse_missing:.3f}, obs {last.rmse_observable:.3f}"
                )
    print(f"wrote {out / 'sensing_curves.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
