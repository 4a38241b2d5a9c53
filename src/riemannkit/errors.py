"""Exception hierarchy shared by all riemannkit modules."""

from __future__ import annotations


class RiemannKitError(Exception):
    """Base class for all engine errors."""


class ParseError(RiemannKitError):
    def __init__(self, message, line, column, expected=()):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
        self.expected = frozenset(expected)


class UnknownIdentifier(ParseError):
    def __init__(self, name, line, column):
        super().__init__(f"unknown identifier '{name}'", line, column)
        self.name = name


class _AlongCurve(RiemannKitError):
    """An error that the integrator can locate on the curve it was following."""

    def __init__(self, message, t_exit=None, trajectory=None, point=None):
        super().__init__(message)
        self.t_exit = t_exit
        self.trajectory = trajectory
        self.point = point


class DomainFault(_AlongCurve):
    """log/sqrt of a nonpositive argument, division by zero, bad power base.

    Raised inside the geodesic integrator, it carries the parameter and the
    point of the failing evaluation and the partial trajectory before it.
    """


class UnknownBuiltin(RiemannKitError):
    pass


class BadParam(RiemannKitError):
    pass


class DomainExit(_AlongCurve):
    """A computation left the chart domain.

    Carries the exit parameter and, when raised by the integrator, the
    partial trajectory up to the last interior sample.
    """


class SingularMetric(_AlongCurve):
    """g is singular or not positive definite; located when found along a geodesic."""


class DegeneratePlane(RiemannKitError):
    pass


class BadDimension(RiemannKitError):
    pass


class NoConvergence(RiemannKitError):
    def __init__(self, message, best_residual=None, best_value=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_value = best_value


class StepFault(RiemannKitError):
    pass


class ConjugatePresent(RiemannKitError):
    pass


class ConjugateNotFound(RiemannKitError):
    pass


class InputOrderViolated(RiemannKitError):
    pass


class BadProfile(RiemannKitError):
    pass


class BarrierNotTransversal(RiemannKitError):
    pass
