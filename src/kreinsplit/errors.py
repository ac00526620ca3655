"""Exception taxonomy.

Two families matter for the command line: ``InputError`` covers malformed
input (files, schema, expression text) and maps to exit code 1, while
``AnalysisError`` covers mathematically degenerate or hypothesis-violating
situations discovered at run time and maps to exit code 2.  Verification
tolerance failures are not exceptions; they are reported and map to exit
code 3.
"""


class KreinsplitError(Exception):
    """Base class for all package errors."""


class InputError(KreinsplitError):
    """Malformed input: files, schema, expression text."""


class AnalysisError(KreinsplitError):
    """The computation cannot proceed because a mathematical precondition
    or hypothesis fails for the given data."""


# --- input family -----------------------------------------------------------

class SchemaError(InputError):
    """Scenario file violates the schema.  ``path`` is a JSON-pointer-style
    location of the offending value, or "" when the file as a whole cannot
    be read, and then the message stands alone."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class SymmetryConflictError(InputError):
    """Both (i,j) and (j,i) curve entries were given with different text."""


class ExprSyntaxError(InputError):
    """Expression text does not parse.  Carries the byte offset and the
    set of token kinds that would have been accepted."""

    def __init__(self, offset, expected, message=None):
        self.offset = offset
        self.expected = tuple(expected)
        msg = message or f"syntax error at offset {offset}, expected one of {self.expected}"
        super().__init__(msg)


class UnknownIdentifierError(InputError):
    """Identifier other than t, eps or a known function name."""

    def __init__(self, name, offset):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r} at offset {offset}")


class ExprDepthError(InputError):
    """Expression text, or the eps-derivative of a curve, nests deeper than
    ``expr.MAX_DEPTH`` levels."""


# --- analysis family --------------------------------------------------------

class ExprDomainError(AnalysisError):
    """Evaluation left the real domain (division by zero, sqrt of a
    negative, overflow).  ``offset`` locates the offending subexpression."""

    def __init__(self, offset, message):
        self.offset = offset
        self.reason = message
        super().__init__(f"{message} (subexpression at offset {offset})")


class NonSymplecticError(AnalysisError):
    """Initial condition is not symplectic within tolerance."""


class DegenerateAngleError(AnalysisError):
    """Rotation angle is a multiple of pi, so the multiplier would be +-1."""


class DegeneratePolynomialError(AnalysisError):
    """Leading coefficient of a quartic is zero."""


class NoDoubleMultiplierError(AnalysisError):
    """No double unit-circle eigenvalue pair was detected."""


class NotAJordanBlockError(AnalysisError):
    """The eigenvalue has geometric multiplicity above one (semisimple)."""


class InconsistentChainError(AnalysisError):
    """The generalized-eigenvector equation could not be solved to
    tolerance."""


class DegeneratePairingError(AnalysisError):
    """The pairing <eta2, J eta1> vanishes, so the expansion denominators
    are unusable."""


class ExcludedCaseError(AnalysisError):
    """The multiplier sits at (or too close to) +-1, which the expansion
    does not cover."""


class DegenerateCaseError(AnalysisError):
    """First-order numerator <A eta1, eta1> vanishes; the square-root
    expansion does not apply.  ``measured`` carries the offending value."""

    def __init__(self, measured, message=None):
        self.measured = measured
        super().__init__(message or f"degenerate case: |<A eta1, eta1>| = {abs(measured):.3e}")


class InconclusiveError(AnalysisError):
    """First-order rate is zero within tolerance; the stability dichotomy
    does not decide."""


class TrackingAmbiguityError(AnalysisError):
    """A third eigenvalue came too close to the tracked pair."""

    def __init__(self, s, message=None):
        self.s = s
        super().__init__(message or f"branch tracking ambiguous at parameter {s!r}")


class IllConditionedFitError(AnalysisError):
    """The oracle's fit cannot resolve the pair above roundoff: a fitted
    symmetric function's intercept at s = 0 is not below
    ``verify._INTERCEPT_TOL`` times its least |value| at s = +-max(grid)/4."""


class CorruptedSolutionError(AnalysisError):
    """A flow endpoint failed basic symplectic sanity checks."""


class NonConformingFlowError(AnalysisError):
    """A flow's symplectic drift exceeds its drift tolerance (1e-8 for the
    commands), so its matrices are not trusted as symplectic."""
