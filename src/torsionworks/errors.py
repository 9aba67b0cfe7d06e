"""Exception hierarchy for torsionworks."""


class TorsionworksError(Exception):
    """Base class for all torsionworks errors."""


class DimensionMismatchError(TorsionworksError):
    """Operands have incompatible shapes."""


class RankAmbiguityError(TorsionworksError):
    """A singular value sits too close to the rank cutoff to call.

    Carries the offending spectrum so the caller can inspect it or retry
    with a different tolerance.
    """

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class InconsistentLiftsError(TorsionworksError):
    """Twisted boundary maps do not compose to zero.

    Signals bad CW data or a representation that does not satisfy the
    relators used to write the boundary matrices.
    """


class HomologyError(TorsionworksError):
    """Homology representatives could not be chosen, or were chosen wrongly.

    Either the cycles of some degree have too few directions outside the
    boundaries, or the representatives ``homology`` chose fail
    ``build_splitting``'s cycle check: the rank cutoff, tol times the
    largest singular value, dropped a genuine singular value of an
    ill-conditioned map, so a vector taken for a cycle is not one.  The
    message names the degree, and the defect in the second case.
    """


class BadHomologyBasisError(TorsionworksError):
    """Supplied homology basis vectors are not cycles, or their classes
    are dependent modulo boundaries, or the count is wrong.  Classes that
    ``homology`` chose and that are dependent raise it too."""


class SplittingError(TorsionworksError):
    """A chain-group splitting could not be built or is singular."""


class SequenceError(TorsionworksError):
    """A long exact sequence failed its exactness checks during assembly."""


class TransportError(TorsionworksError):
    """Basis transport was given a basis it assigns, or cannot normalize."""


class DiskSumError(TorsionworksError):
    """Disk sum inputs are unusable (disconnected factor, target mismatch)."""


class SceneError(TorsionworksError):
    """A scene file failed to parse or validate.

    ``line`` and ``column`` are set for textual syntax errors, ``where``
    for semantic errors (a path into the document).
    """

    def __init__(self, message, line=None, column=None, where=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.where = where
