"""Shared scaffolding for the three augmenters.

Every generator is fit per class and sampled per class, with synthetic
counts proportional to the training class frequencies (largest-remainder
rounding so the total is exact). A generator's fit function receives every
class at once, so the VAE and GAN can train their classes in one loop;
the GMM fits its classes one after the other. Synthetic rows are appended
after the originals and tracked by a provenance record so the harness can
assert the test set is never contaminated. A generator that raises fails
its row of the grid with a `GeneratorError`, which the CLI reports as a
one-line error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .rng import RngStream


class GeneratorError(Exception):
    """A generator raised; the message is "{type}: {message}" of its error."""


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
    fit_fn: Callable[[dict[int, np.ndarray], dict[int, RngStream]], dict[int, object]],
    sample_fn: Callable[[object, int, RngStream], np.ndarray],
    rng: RngStream,
    generator_id: str,
) -> tuple[np.ndarray, np.ndarray, SyntheticBatch]:
    """Fit one generator per class and append proportional synthetic rows.

    `fit_fn(data, streams)` gets each class's training rows and fit stream,
    keyed by class, and returns each class's model under the same key."""
    if n_synthetic < 0:
        raise ValueError("n_synthetic must be nonnegative")
    classes, sizes = np.unique(train_labels, return_counts=True)
    if len(classes) < 2:
        raise ValueError("both classes must be present in the training set")

    n_orig = len(train_labels)
    class_counts = {int(c): int(size) for c, size in zip(classes, sizes)}
    counts = largest_remainder_counts(class_counts, n_synthetic)

    data = {c: train_features[train_labels == c] for c in sorted(class_counts)}
    models = fit_fn(data, {c: rng.derive(f"fit-class{c}") for c in data})
    synth_X, synth_y = [], []
    for c in data:
        if counts[c] > 0:
            rows = sample_fn(models[c], counts[c], rng.derive(f"sample-class{c}"))
            synth_X.append(rows)
            synth_y.append(np.full(counts[c], c, dtype=train_labels.dtype))

    aug_X = np.vstack([train_features] + synth_X)
    aug_y = np.concatenate([train_labels] + synth_y)
    mask = np.arange(len(aug_y)) >= n_orig
    return aug_X, aug_y, SyntheticBatch(generator_id, n_synthetic, counts, mask, models)
