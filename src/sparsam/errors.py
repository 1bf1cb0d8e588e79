"""Exceptions shared across the package.

Anything that maps to a CLI exit code gets its own class; everything else
raises plain ValueError.
"""

from typing import Any, Callable


class ConfigError(ValueError):
    """Invalid or unknown configuration input. CLI exit code 1."""


class DivergenceError(RuntimeError):
    """A loss or gradient went non-finite during training. CLI exit code 2."""


def in_pass(step: int, name: str, fn: Callable[..., Any], *args: Any) -> Any:
    """fn(*args), re-raising a DivergenceError from it with the step and
    the pass (the ascent, descent or probe gradient, or the sampler
    update) named."""
    try:
        return fn(*args)
    except DivergenceError as e:
        raise DivergenceError(f"{e} in the {name} pass of step {step}") from e
