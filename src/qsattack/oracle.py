"""Label-only wrapper around a predict-capable classifier.

The oracle is the one channel through which an attack may touch the
target model: it returns hard labels only, counts every labeled epoch,
and can enforce a hard query budget.  Budget checks are all-or-nothing
per call, so a refused call leaves the counter untouched.
"""

from __future__ import annotations

import numpy as np

from .data import as_epoch_batch
from .errors import BudgetExhaustedError, is_integer


class TargetOracle:
    """Counted, label-only access to an attacked classifier."""

    def __init__(self, model, budget: int | None = None):
        if budget is not None and (not is_integer(budget) or budget < 1):
            raise ValueError(f"budget must be a positive integer when set, got {budget!r}")
        self._model = model
        self._budget = None if budget is None else int(budget)
        self._count = 0

    @property
    def epoch_shape(self) -> tuple[int, int]:
        """(channels, samples) every queried epoch must have."""
        return self._model.spec.input_shape

    @property
    def n_classes(self) -> int:
        """Size of the label alphabet the oracle emits."""
        return self._model.spec.classes

    @property
    def query_count(self) -> int:
        return self._count

    @property
    def budget(self) -> int | None:
        return self._budget

    @property
    def remaining(self) -> int | None:
        """Queries left under the budget, or None when unlimited."""
        if self._budget is None:
            return None
        return self._budget - self._count

    def query_labels(self, epochs) -> np.ndarray:
        """Label a batch of epochs, charging one query per epoch."""
        xs = as_epoch_batch(epochs, self.epoch_shape)
        if self._budget is not None and self._count + len(xs) > self._budget:
            raise BudgetExhaustedError(
                f"query of {len(xs)} epochs exceeds budget {self._budget} "
                f"({self._budget - self._count} remaining)",
                remaining=self._budget - self._count,
            )
        labels = self._model.predict_batch(xs)
        self._count += len(xs)
        return labels
