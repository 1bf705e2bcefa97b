"""tsnorm: adaptive input normalization for multivariate time series.

Library surface: data containers and CSV IO (`data`), static preprocessing
baselines (`static_norm`), the adaptive EDAIN/DAIN layers with analytic
backward passes (`adaptive`), the invertible KL-trained variant (`flow_kl`),
a small GRU training stack (`neural`), a synthetic data generator
(`synthgen`), evaluation metrics (`metrics`), and the experiment harness and
CLI (`harness`, `cli`).
"""

from .data import LabeledDataset, RngState, TimeSeriesBatch, load_csv, save_csv
from .adaptive import (DainLayer, DainParams, EdainLayer, EdainParams, LocalSummary,
                       RunningMean, dain_backward, dain_forward, edain_backward,
                       edain_forward, init_edain_params, update_running_mean)
from .flow_kl import KlBijectorParams, fit_kl, generate_direction, negative_log_likelihood, \
    normalize_direction
from .harness import ExperimentConfig, MetricsReport, anchored_folds, kfold_indices, \
    run_ablation, run_experiment
from .metrics import amex_metric, cohen_kappa, default_rate_captured, macro_f1, weighted_gini
from .neural import GruStack, TrainConfig, bce_loss, cross_entropy_loss, gru_backward, \
    gru_forward, predict, train_loop
from .static_norm import KditConfig, StaticPipeline, StaticStats, apply_zscore, \
    fit_yeo_johnson_static, fit_zscore
from .synthgen import InverseCdfTable, SynthConfig, build_inverse_cdf, builtin_pdfs, \
    generate_dataset, ma_autocovariance, nearest_psd

__version__ = "0.1.0"
