"""Shared scaffolding for the three augmenters.

Every generator is fit per class and sampled per class, with synthetic
counts proportional to the training class frequencies (largest-remainder
rounding so the total is exact). Synthetic rows are appended after the
originals and tracked by a provenance record so the harness can assert
the test set is never contaminated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .rng import RngStream


@dataclass
class SyntheticBatch:
    generator: str  # "gmm" | "vae" | "gan"
    n_synthetic: int
    per_class_counts: dict[int, int]
    synthetic_mask: np.ndarray  # bool over the augmented rows
    models: dict[int, object] = field(default_factory=dict)


def largest_remainder_counts(class_counts: dict[int, int], total: int) -> dict[int, int]:
    """Apportion `total` proportionally to `class_counts`, summing exactly."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    n = sum(class_counts.values())
    quotas = {c: total * k / n for c, k in class_counts.items()}
    counts = {c: int(np.floor(q)) for c, q in quotas.items()}
    short = total - sum(counts.values())
    # Distribute the leftover by descending fractional part (ties by class id).
    order = sorted(quotas, key=lambda c: (-(quotas[c] - counts[c]), c))
    for c in order[:short]:
        counts[c] += 1
    return counts


def augment_per_class(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    n_synthetic: int,
    fit_fn: Callable[[np.ndarray, int, RngStream], object],
    sample_fn: Callable[[object, int, RngStream], np.ndarray],
    rng: RngStream,
    generator_id: str,
) -> tuple[np.ndarray, np.ndarray, SyntheticBatch]:
    """Fit one generator per class and append proportional synthetic rows."""
    if n_synthetic < 0:
        raise ValueError("n_synthetic must be nonnegative")
    classes = np.unique(train_labels)
    if len(classes) < 2:
        raise ValueError("both classes must be present in the training set")

    n_orig = len(train_labels)
    class_counts = {int(c): int(np.sum(train_labels == c)) for c in classes}
    counts = largest_remainder_counts(class_counts, n_synthetic)

    synth_X, synth_y, models = [], [], {}
    for c in sorted(class_counts):
        data = train_features[train_labels == c]
        model = fit_fn(data, c, rng.derive(f"fit-class{c}"))
        models[c] = model
        if counts[c] > 0:
            rows = sample_fn(model, counts[c], rng.derive(f"sample-class{c}"))
            synth_X.append(rows)
            synth_y.append(np.full(counts[c], c, dtype=train_labels.dtype))

    if synth_X:
        aug_X = np.vstack([train_features] + synth_X)
        aug_y = np.concatenate([train_labels] + synth_y)
    else:
        aug_X = train_features.copy()
        aug_y = train_labels.copy()

    mask = np.zeros(len(aug_y), dtype=bool)
    mask[n_orig:] = True
    provenance = SyntheticBatch(
        generator=generator_id,
        n_synthetic=n_synthetic,
        per_class_counts=counts,
        synthetic_mask=mask,
        models=models,
    )
    return aug_X, aug_y, provenance
