"""Exception types shared across the toolkit."""

from __future__ import annotations


class PoakitError(Exception):
    """Base class for all toolkit errors. ``exit_code`` is the command line's
    exit status: 1 input error, 2 solver failure, 3 contract violation."""

    exit_code = 1


class NoPath(PoakitError):
    """The network admits no origin-destination path."""


class PathExplosion(PoakitError):
    """Path enumeration exceeded the configured cap."""


class NegativeLoad(PoakitError):
    """A cost function was evaluated at a negative load."""
    exit_code = 3


class NonConvergence(PoakitError):
    """The iterative solver failed to reach the requested duality gap."""
    exit_code = 2


class SupportSearchExhausted(PoakitError):
    """The exact affine solver found no support that passes its equilibrium test."""
    exit_code = 2


class TraceFailure(PoakitError):
    """The equilibrium tracer could not continue past an event."""
    exit_code = 2


class BisectionFailure(PoakitError):
    """A monotone root search lost its bracket (non-monotone or NaN data)."""
    exit_code = 2


class SignViolation(PoakitError):
    """A traced segment violates the sign contracts on its coefficients."""
    exit_code = 3


class NonpositiveOptimum(PoakitError):
    """A PoA piece's optimum cost, its ratio's denominator, is not positive."""
    exit_code = 3


class GridExceedsBreakpointMax(PoakitError):
    """A sampled PoA grid exceeds the breakpoint maximum beyond tolerance."""
    exit_code = 3


class CertificateFailure(PoakitError):
    """Path flows, solved or read off a trace, fail their Wardrop grade."""
    exit_code = 3
