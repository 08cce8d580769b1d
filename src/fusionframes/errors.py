"""Exception hierarchy shared by all fusionframes modules."""


class FusionFrameError(Exception):
    """Base class for every error raised by this package."""


# -- linear algebra -----------------------------------------------------------

class ZeroSubspace(FusionFrameError):
    """A spanning set was numerically rank zero; ``index`` is its position
    in a list of spanning sets, when it came from one."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DimensionMismatch(FusionFrameError):
    """Operands live in ambient spaces of different dimension."""


class NotContained(FusionFrameError):
    """A subspace expected to be contained in another is not."""


# -- frames -------------------------------------------------------------------

class NotAFrame(FusionFrameError):
    """The vector family does not span the ambient space."""


class LengthMismatch(FusionFrameError):
    """Two families that must be index-aligned have different lengths."""


# -- fusion frames ------------------------------------------------------------

class NotAFusionFrame(FusionFrameError):
    """The weighted subspace family does not span the ambient space."""


# -- duality ------------------------------------------------------------------

class ShapeMismatch(FusionFrameError):
    """Block operator dimensions do not match the frames it couples."""


class NotADual(FusionFrameError):
    """Certification failed: the reconstruction residual exceeds tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotLeftInverse(NotADual):
    """Certification failed: the candidate is no left inverse of the analysis."""


class NotOvercomplete(FusionFrameError):
    """Operation requires an overcomplete fusion frame."""


class TrivialSubspace(FusionFrameError):
    """Operation requires all subspaces to be nonzero."""


class NotRiesz(FusionFrameError):
    """Operation requires a Riesz fusion basis."""


class NotBlockDiagonal(FusionFrameError):
    """Operation requires a block-diagonal coupling operator."""


class NotAlternateDual(FusionFrameError):
    """The weighted projection reconstruction identity does not hold."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# -- systems ------------------------------------------------------------------

class InvalidSystem(FusionFrameError):
    """Local frames do not lie in, or do not span, their subspaces."""


class NotLocalDual(FusionFrameError):
    """The candidate local family is not a dual frame inside its subspace."""


class NotProjective(FusionFrameError):
    """A reconstruction system operator is not a scaled isometry."""


# -- erasures -----------------------------------------------------------------

class BadR(FusionFrameError):
    """Erasure count out of range, pattern enumeration too large, or p not 2 or inf."""


class NotUnitNorm(FusionFrameError):
    """Local frame vectors must have unit norm for this optimizer."""


class NullVector(FusionFrameError):
    """Local frame vectors must be nonzero for this optimizer."""


class NonConvergence(FusionFrameError):
    """Solver exhausted its budget while still making progress."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# -- input/output -------------------------------------------------------------

class ParseError(FusionFrameError):
    """Input file is not valid JSON or violates the input schema."""


class InvalidSpec(FusionFrameError):
    """Input parsed but is semantically inconsistent."""
