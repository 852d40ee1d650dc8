"""Class balancing, standardization, and the five classifier configurations."""

from .api import (
    KINDS,
    ClassifierConfig,
    TrainedModel,
    config_fingerprint,
    decision_scores,
    default_config,
    predict_batch,
    train,
)
from .data import LabeledDataset, Standardizer, fit_standardizer
from .smote import smote

__all__ = [
    "KINDS",
    "ClassifierConfig",
    "TrainedModel",
    "LabeledDataset",
    "Standardizer",
    "config_fingerprint",
    "decision_scores",
    "default_config",
    "fit_standardizer",
    "predict_batch",
    "smote",
    "train",
]
