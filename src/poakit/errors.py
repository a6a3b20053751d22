"""Exception types shared across the toolkit."""

from __future__ import annotations


class PoakitError(Exception):
    """Base class for all toolkit errors."""


class NoPath(PoakitError):
    """The network admits no origin-destination path."""


class PathExplosion(PoakitError):
    """Path enumeration exceeded the configured cap."""


class NotSP(PoakitError):
    """The network is not series-parallel between origin and destination."""


class NegativeLoad(PoakitError):
    """A cost function was evaluated at a negative load."""


class NonConvergence(PoakitError):
    """The iterative solver failed to reach the requested duality gap."""


class SupportSearchExhausted(PoakitError):
    """The exact affine solver found no support that passes its equilibrium test."""


class TraceFailure(PoakitError):
    """The equilibrium tracer could not continue past an event."""


class BisectionFailure(PoakitError):
    """A monotone root search lost its bracket (non-monotone or NaN data)."""


class SignViolation(PoakitError):
    """A traced segment violates the sign contracts on its coefficients."""


class ClassificationConflict(PoakitError):
    """A PoA piece's derivative numerator changes sign from + to -."""


class NonpositiveOptimum(PoakitError):
    """A PoA piece's optimum cost, its ratio's denominator, is not positive."""


class GridExceedsBreakpointMax(PoakitError):
    """A sampled PoA grid exceeds the breakpoint maximum beyond tolerance."""


class CertificateFailure(PoakitError):
    """Path flows, solved or read off a trace, fail their Wardrop grade."""
