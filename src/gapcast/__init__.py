"""gapcast: traffic forecasting with uncertainty at sensed and unsensed
road-network locations."""

from .data import SpeedSeries, SplitSpec, generate_synthetic, hide_locations, split
from .evaluate import MetricReport, knn_impute, mean_impute, two_step_pipeline
from .graph import RoadGraph, build_adjacency, normalize
from .model import EvidentialOutput, ModelConfig
from .sensing import SensingConfig, SensingEpisode, run_episode, run_episodes
from .training import (
    TrainConfig,
    TrainedModel,
    draw_sample,
    load_model,
    predict_full,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "SpeedSeries",
    "SplitSpec",
    "generate_synthetic",
    "hide_locations",
    "split",
    "MetricReport",
    "knn_impute",
    "mean_impute",
    "two_step_pipeline",
    "RoadGraph",
    "build_adjacency",
    "normalize",
    "EvidentialOutput",
    "ModelConfig",
    "SensingConfig",
    "SensingEpisode",
    "run_episode",
    "run_episodes",
    "TrainConfig",
    "TrainedModel",
    "draw_sample",
    "load_model",
    "predict_full",
    "save_model",
    "train",
    "__version__",
]
