"""Few-shot classification on episode graphs with relative-metric edges."""

__version__ = "0.1.0"

import os

# one BLAS thread per process, set before numpy first loads, unless the
# caller chose: the ``workers`` processes already fill the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (
    ConfigError,
    DataError,
    DegenerateEpisodeError,
    FormatError,
    NumericError,
    ShapeError,
)
from .data import (
    EmbeddingDataset,
    Episode,
    load_dataset,
    make_rng,
    sample_episode,
    synth_benchmark,
    synth_clusters,
    write_dataset,
)
from .graph import CHANNEL_ORDER, FULL_CHANNELS, parse_variant
from .model import EpisodeGraph, ModelConfig, ModelParams, forward, init_params
from .losses import predict_labels, episodic_ce, manifold_loss, total_loss
from .train import (
    Adam,
    Checkpoint,
    TrainConfig,
    evaluate,
    load_checkpoint,
    run_ablation,
    save_checkpoint,
    train,
)

__all__ = [
    "ConfigError", "DataError", "DegenerateEpisodeError", "FormatError",
    "NumericError", "ShapeError",
    "EmbeddingDataset", "Episode", "load_dataset", "make_rng",
    "sample_episode", "synth_benchmark", "synth_clusters", "write_dataset",
    "CHANNEL_ORDER", "FULL_CHANNELS", "parse_variant",
    "EpisodeGraph", "ModelConfig", "ModelParams", "forward", "init_params",
    "predict_labels", "episodic_ce", "manifold_loss", "total_loss",
    "Adam", "Checkpoint", "TrainConfig", "evaluate", "load_checkpoint",
    "run_ablation", "save_checkpoint", "train",
]
