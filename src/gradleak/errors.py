"""Exception types shared across the package.

Each failure mode the extraction pipeline can signal gets its own type so
callers (and the CLI exit-code mapping) can tell them apart.
"""


class GradleakError(Exception):
    """Base class for all package-specific errors.

    An error that learn_model raises carries the run's ExtractionReport as
    report: no model, the failing phase, the queries and the search trace.
    So does recover_z's failure; an error raised anywhere else has report None.
    """

    report = None


class GenerationError(GradleakError):
    """Random instance generation exhausted its resampling budget."""


class SingularMatrixError(GradleakError):
    """Linear solve hit a singular value below the singularity tolerance."""


class GeometryError(GradleakError):
    """recover_s's query points could not be placed (Z rank deficient); learn_model never raises it."""


class ExtractionFailure(GradleakError):
    """The crossing search refused a line, or every line of the retry budget.

    The search raises it for each refused line, and recover_z raises it again
    once the retry budget is spent, carrying the search's ExtractionReport as
    report: phase "search" and every line's reason, in order. Signals a
    violated assumption (wrong assumed width, crossings closer than the search
    resolution) rather than a numerical bug.
    """


class SignRecoveryError(GradleakError):
    """A sign solve was singular or not finite, or did not round to a valid {-1,0,1} pattern that fits it.

    Usually means the recovered weighted normals (or the end gradients) were wrong.
    """


class ConfigError(GradleakError):
    """A configuration value makes the requested procedure impossible."""


class MatchAmbiguityError(GradleakError):
    """Row matching found two candidates too close to tell apart."""
