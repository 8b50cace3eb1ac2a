"""Exception hierarchy for the library.

Every error raised on bad input derives from LoopAtlasError, so callers
(including the CLI) can distinguish domain failures from programming bugs.
"""


class LoopAtlasError(Exception):
    """Base class for all library errors."""


class InvalidCartanMatrixError(LoopAtlasError, ValueError):
    """Matrix fails the generalized Cartan matrix axioms or type checks."""


class TwistedTypeError(InvalidCartanMatrixError):
    """Corank-one matrix that is not an untwisted affinization."""


class ClassificationError(LoopAtlasError, ValueError):
    """Matrix is no finite or untwisted affine type the library names."""


class MixedAmbientError(LoopAtlasError, ValueError):
    """Operation combining objects over different ambient types."""


class InvalidSubsetError(LoopAtlasError, ValueError):
    """Node subset out of range, duplicated, or of the wrong shape."""


class UnsupportedRankError(LoopAtlasError, ValueError):
    """Rank outside the supported range for this operation."""


class EntryOverflowError(LoopAtlasError, OverflowError):
    """Exact integer entries that the fixed-width array or float holding
    them could no longer hold."""


class RegionError(LoopAtlasError, ValueError):
    """Spectral parameter outside the region an operation requires."""


class NumberTypeError(LoopAtlasError, TypeError):
    """Value that is not a number of the kind an operation requires."""
