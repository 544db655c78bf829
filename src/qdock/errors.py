"""Exception types shared across the package."""


class QdockError(Exception):
    """Base class for all domain errors raised by qdock."""


class ComplexFormatError(QdockError):
    """A complex document failed to parse or violated an invariant."""


class InfeasibleComplexError(ComplexFormatError):
    """The ligand has more atoms than there are grid points."""


class QuboFormatError(QdockError):
    """A QUBO coordinate file is malformed."""


class SampleFormatError(QdockError):
    """An external-samples file is malformed."""


class GraphBuildError(QdockError):
    """Ligand or grid graph construction failed (disconnected bond graph,
    zero-length edge, coincident points)."""


class CoefficientOverflowError(QdockError):
    """Finite QUBO coefficients whose magnitudes sum past the float range,
    so an exact (fsum) energy or scale cannot be formed."""


class NoValidSolutionError(QdockError):
    """No sample decoded to a constraint-satisfying pose.

    Carries the report assembled from the best invalid sample so callers
    can still inspect energies and the valid-solution rate (zero).
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
