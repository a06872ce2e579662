"""Exception hierarchy shared across the package.

Configuration problems and numerical failures are kept distinct so that a
scenario runner can map them to different exit codes: 2 for
:class:`ScenarioError` and 3 for :class:`NumericalFailureError`.
"""

from __future__ import annotations


class BohmdecError(Exception):
    """Base class for all package errors."""


class ScenarioError(BohmdecError):
    """Invalid scenario configuration (unknown keys, bad values, bad state)."""


class DomainValidityError(BohmdecError):
    """A quantity was requested outside the regime where its defining
    approximation holds (turning-point windows, semiclassical gates,
    weak-coupling preconditions)."""


class UndefinedVelocityError(BohmdecError):
    """Velocity requested where the conditioned density is below the
    resolvable floor."""


class GridCoverageError(BohmdecError):
    """A phase-space grid does not cover the state it is asked to hold."""


class NumericalFailureError(BohmdecError):
    """An integrator or quadrature failed its own accuracy controls."""


class CouplingStrengthWarning(UserWarning):
    """Closed-form weak-coupling blocks requested outside their regime."""
