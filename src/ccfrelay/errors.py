"""Exception types shared across the package."""


class CCFError(Exception):
    """Base class for all library errors."""


class SingularMatrixError(CCFError):
    """A square matrix over F_gamma has no inverse."""


class NotFullRankError(CCFError):
    """An operation required a full-rank matrix over F_gamma."""


class SpecMismatchError(CCFError):
    """Two lattice points belong to different chain specifications."""


class LengthMismatchError(CCFError):
    """A message vector has the wrong length for its level pair."""


class NotInCodebookError(CCFError):
    """A point violated the canonical-codeword precondition of a decode."""


class SingularResidualError(CCFError):
    """A residual coefficient matrix was singular during successive recovery.

    ``phase`` is ``"quantization"`` or ``"modulo"``; ``iteration`` is the
    1-based recovery iteration at which the singularity appeared.
    """

    def __init__(self, phase: str, iteration: int):
        self.phase = phase
        self.iteration = iteration
        super().__init__(f"singular residual matrix in {phase} phase, iteration {iteration}")


class DecodeFailure(CCFError):
    """The brute-force noisy decoder could not resolve a unique lattice point."""


class VariantMismatchError(CCFError):
    """A rate formula was requested for an assignment lacking the needed structure."""


class InfeasibleStructureError(CCFError):
    """No nonnegative rate tuple satisfies the forwarding constraints."""


class ReductionError(CCFError):
    """A lattice reduction did not converge, its steps left the int64 range
    or its metric is not finite: the floating-point metric lost its precision."""


class ConfigError(CCFError):
    """A run configuration is invalid."""
