"""One text of an elementwise formula for a Python float or an array.

:func:`elementwise` hands a formula the functions it calls, from numpy for an
array and from :mod:`math` and the builtins for a float, where each numpy
scalar call costs about a microsecond. So a per-point caller, or ``Si`` and
``Cin`` in :mod:`bohmdec.bath_dynamics._trig`, runs the array path's formulas
on floats. The two may differ in the last bit of a transcendental function
(``log``, ``cos``); square roots and arithmetic agree bitwise. ``math``
raises where numpy warns and returns NaN or inf (a root of a negative number,
a log of zero), so a formula keeps its arguments out of those domains.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

_FLOAT = SimpleNamespace(
    sqrt=math.sqrt,
    log=math.log,
    arcsin=math.asin,
    cos=math.cos,
    sin=math.sin,
    copysign=math.copysign,
    # the value first and the bound second, so that, as with numpy, NaN stays NaN
    maximum=max,
    minimum=min,
    where=lambda condition, a, b: a if condition else b,
    pi=math.pi,
    nan=math.nan,
)


def elementwise(x):
    """``(functions, x)``: the float functions and ``x`` itself for a Python
    float, else numpy and ``x`` as a float array. A numpy scalar takes numpy,
    so it keeps the array path's result types."""
    if type(x) is float:
        return _FLOAT, x
    return np, np.asarray(x, dtype=float)
