"""Labeled feature rows and per-feature z-score standardization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidParameterError


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with binary classes (0 = NF, 1 = failure) and the owning
    participant id per row, needed for grouped cross-validation.

    ``fold_models`` holds the models ``evaluate.fit_fold`` fitted on this
    dataset's folds; the arrays are read-only, so they stay valid as long as
    the dataset does."""

    X: np.ndarray
    y: np.ndarray
    groups: np.ndarray
    fold_models: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.int64)
        groups = np.ascontiguousarray(self.groups, dtype=np.int64)
        if X.ndim != 2:
            raise InvalidParameterError("X must be a 2-D matrix")
        if y.shape != (X.shape[0],) or groups.shape != (X.shape[0],):
            raise InvalidParameterError("y and groups must match the row count")
        if y.size and not np.isin(y, (0, 1)).all():
            raise InvalidParameterError("classes must be 0 or 1")
        for a in (X, y, groups):
            a.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "groups", groups)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.y == 0)), int(np.sum(self.y == 1))

    def subset(self, mask) -> "LabeledDataset":
        mask = np.asarray(mask)
        return LabeledDataset(self.X[mask], self.y[mask], self.groups[mask])


@dataclass(frozen=True)
class Standardizer:
    """Per-feature mean/std (population); zero-variance features map to 0."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        std = np.ascontiguousarray(self.std, dtype=np.float64)
        mean.flags.writeable = False
        std.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        scale = np.where(self.std > 0, self.std, 1.0)
        z = (X - self.mean) / scale
        return np.where(self.std > 0, z, 0.0)


def fit_standardizer(X: np.ndarray) -> Standardizer:
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise InvalidParameterError("cannot standardize an empty matrix")
    return Standardizer(mean=X.mean(axis=0), std=X.std(axis=0))
