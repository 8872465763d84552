"""Exception types shared across the package."""

__all__ = [
    "AbmorphError",
    "MorphismSyntaxError",
    "BadLetterError",
    "ErasingImageError",
    "NotProlongableError",
    "NotPrimitiveError",
    "NotRankOneError",
    "ZeroEntryError",
    "HorizonTooShortError",
    "EmptySelectionError",
    "WrongSpectralCaseError",
    "OutOfRangeError",
    "NotCoprimeError",
    "DegenerateTraceError",
]


class AbmorphError(Exception):
    """Base class for all errors raised by this package."""


class MorphismSyntaxError(AbmorphError, ValueError):
    """Morphism text does not match the a->WORD; b->WORD grammar (or the JSON form)."""


class BadLetterError(AbmorphError, ValueError):
    """A word contains a symbol outside the binary alphabet {a, b}."""


class ErasingImageError(AbmorphError, ValueError):
    """A morphism image is empty; only nonerasing morphisms are supported."""


class NotProlongableError(AbmorphError, ValueError):
    """The morphism is not prolongable on a (needs f(a) = a... with |f(a)| >= 2)."""


class NotPrimitiveError(AbmorphError, ValueError):
    """The incidence matrix is not primitive."""


class NotRankOneError(AbmorphError, ValueError):
    """The incidence matrix has nonzero determinant, so no rank-1 form exists."""


class ZeroEntryError(AbmorphError, ValueError):
    """A zero matrix entry makes the positive rank-1 decomposition impossible."""


class HorizonTooShortError(AbmorphError, ValueError):
    """The supplied prefix is too short for the requested scan."""


class EmptySelectionError(AbmorphError, ValueError):
    """An arithmetic progression selects no positions inside the prefix."""


class WrongSpectralCaseError(AbmorphError, ValueError):
    """The operation requires a specific second eigenvalue and got another."""


class OutOfRangeError(AbmorphError, ValueError):
    """A requested prefix length lies outside [0, |f^t(seed)|]."""


class NotCoprimeError(AbmorphError, ValueError):
    """The residue modulus must be coprime with the block growth factor."""


class DegenerateTraceError(AbmorphError, ValueError):
    """The lift needs base k = trace >= 2; k < 2 cannot index digit positions."""
