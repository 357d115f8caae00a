"""Exception types shared across the package.

Each failure mode the extraction pipeline can signal gets its own type so
callers (and the CLI exit-code mapping) can tell them apart.
"""

from __future__ import annotations

from collections.abc import Sequence


class GradleakError(Exception):
    """Base class for all package-specific errors.

    learn_model sets phase ("search" or "sign"), retries, refusals (why each
    refused search line was refused, in order) and crossings on the errors it
    re-raises, so a failure report can say where the run stopped; an error
    raised anywhere else reports no phase, no retries, no refusals and no
    crossings. After a search failure every line was refused, so refusals
    holds retries + 1 reasons; after a sign failure, retries.
    """

    phase: str | None = None
    retries: int = 0
    refusals: Sequence[str] = ()
    crossings: Sequence[float] = ()


class GenerationError(GradleakError):
    """Random instance generation exhausted its resampling budget."""


class SingularMatrixError(GradleakError):
    """Linear solve hit a singular value below the singularity tolerance."""


class GeometryError(GradleakError):
    """recover_s's query points could not be placed (Z rank deficient); learn_model never raises it."""


class ExtractionFailure(GradleakError):
    """The crossing search refused a line, or every line of the retry budget.

    The search raises it for each refused line, and recover_z raises it again
    once the retry budget is spent; signals a violated assumption (wrong
    assumed width, crossings closer than the search resolution) rather than
    a numerical bug.
    """


class SignRecoveryError(GradleakError):
    """A sign solve was singular or not finite, or did not round to a valid {-1,0,1} pattern that fits it.

    Usually means the recovered weighted normals (or the end gradients) were wrong.
    """


class ConfigError(GradleakError):
    """A configuration value makes the requested procedure impossible."""


class MatchAmbiguityError(GradleakError):
    """Row matching found two candidates too close to tell apart."""
