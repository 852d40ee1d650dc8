"""Class balancing, standardization, and the five classifier configurations."""

from .api import (
    KINDS,
    LEARNERS,
    ClassifierConfig,
    TrainedModel,
    config_fingerprint,
    decision_scores,
    default_config,
    predict_batch,
    train,
    train_many,
)
from .data import LabeledDataset, Standardizer, fit_standardizer
from .smote import smote

__all__ = [
    "KINDS",
    "LEARNERS",
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
    "train_many",
]
