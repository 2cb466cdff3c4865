"""Benchmark toolkit: generative augmentation (GMM/VAE/GAN) for small
tabular classification tasks, with six from-scratch classifiers and a
deterministic experiment harness."""

from .rng import RngStream

__version__ = "0.1.0"
__all__ = ["RngStream", "__version__", "warn"]


def warn(logger: str, message: str, *args) -> None:
    """Log a warning on the logger named `logger` (a module's `__name__`).
    `logging` is imported at the first warning, so a run that warns about
    nothing never loads it (about 5 ms of every process)."""
    import logging

    logging.getLogger(logger).warning(message, *args)
