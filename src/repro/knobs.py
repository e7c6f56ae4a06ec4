"""Type and range checks for configuration knobs.

Campaign job configs arrive as JSON, so a count may be a string, a bool
or a negative number by the time it reaches a config object. The config
classes (``XPlainConfig``, ``GeneratorConfig``, ``RegressionTree``) and
the campaign spec parser check their knobs with these helpers, each
raising its own subsystem's exception.
"""

from __future__ import annotations

import math


def is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An int or float, not a bool, that converts to a finite float."""
    if not (is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def check_int_knobs(config, knobs, error: type[Exception], prefix: str = "") -> None:
    """Raise ``error`` unless every ``(name, least)`` knob is an int >= least."""
    for name, low in knobs:
        value = getattr(config, name)
        if not is_int(value) or value < low:
            raise error(f"{prefix}{name} must be an integer >= {low}, got {value!r}")
