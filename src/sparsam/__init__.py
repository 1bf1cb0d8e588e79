"""Sparse-layer sharpness-aware minimization on layered objectives.

The package splits into small focused modules:

    layered     layered parameter vectors and active-set arithmetic
    objectives  block quadratics and a small MLP with exact gradients
    bandit      sampling distribution over layers and its update rule
    optimizers  AdamW, the optimizer type table and the one SAM step core
    datasets    synthetic datasets and minibatch streams
    telemetry   per-step records and run-level metrics
    config      experiment configuration loading and validation
    runner      training loop, CSV/JSON outputs, comparisons
    cli         command line entry points
"""

from sparsam.errors import ConfigError, DivergenceError
from sparsam.layered import ActiveSet, LayeredVector

__all__ = ["ActiveSet", "ConfigError", "DivergenceError", "LayeredVector"]

__version__ = "0.1.0"
