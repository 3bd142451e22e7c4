"""Numerical laboratory for softmax attention over mixtures of measures.

The package has three layers:

* measure plumbing: a Mercer-style spectrum on [0, 1], discrete measures,
  pushforwards, mixtures, and 1-d Wasserstein distance;
* attention: integral-form softmax attention over a discrete measure, the
  explicit associative-recall construction, and a Lipschitz probe with an
  explicit constant;
* learning: a small trainable attention model with exact manual gradients,
  Adam training, and the synthetic recall experiment with risk-scaling fits.

``measure-attn --help`` describes the command-line surface.
"""

from .attention import (AttnHead, AttnParams, LipschitzReport, MeasureMap,
                        ProbeSummary, attention_map, build_recall_params,
                        compose, featured_mixture, lipschitz_probe,
                        measure_attention, pointwise_map,
                        random_lipschitz_trials, recall_feature_map,
                        softmax_weights, temperature_for_error)
from .experiment import (AttentionStats, CellResult, Example,
                         ExperimentConfig, FitResult, RiskCurve,
                         attention_mass_stats, fit_rate, gen_example,
                         query_shuffle_eval, run_cell, scaling_axis, sweep,
                         target_value)
from .measures import (DiscreteMeasure, MixtureContext, build_mixture,
                       flatten, product_embed, pushforward, sample_tokens,
                       wasserstein1_1d)
from .model import ModelCache, StudentConfig, StudentModel
from .optim import AdamState, TrainConfig, adam_step, train
from .spectrum import (MercerSpectrum, gen_norm_sq, isometry_map,
                       midpoint_grid, synth_density, truncation_bound)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AttentionStats", "AttnHead", "AttnParams", "CellResult",
    "DiscreteMeasure", "Example", "ExperimentConfig", "FitResult",
    "LipschitzReport", "MeasureMap", "MercerSpectrum", "MixtureContext",
    "ModelCache", "ProbeSummary", "RiskCurve", "StudentConfig",
    "StudentModel", "TrainConfig", "adam_step", "attention_map",
    "attention_mass_stats", "build_mixture",
    "build_recall_params", "compose", "featured_mixture",
    "fit_rate", "flatten", "gen_example", "gen_norm_sq", "isometry_map",
    "lipschitz_probe", "measure_attention", "midpoint_grid",
    "pointwise_map", "product_embed", "pushforward", "query_shuffle_eval",
    "random_lipschitz_trials", "recall_feature_map", "run_cell",
    "sample_tokens", "scaling_axis", "softmax_weights", "sweep",
    "synth_density", "target_value", "temperature_for_error", "train",
    "truncation_bound", "wasserstein1_1d", "__version__",
]
