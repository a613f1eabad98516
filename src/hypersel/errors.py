"""Exception taxonomy shared by all modules.

Every failure mode a caller can provoke has its own class so that tests
and the CLI can match on type instead of message text.  Broken internal
invariants raise explicitly, never through a bare ``assert``, so the
checks survive ``python -O``.
"""


class HyperselError(Exception):
    """Base class for all package errors."""


class DuplicateLabel(HyperselError):
    """A ground set was given repeated labels."""


class MissingSubset(HyperselError):
    """A selection table is not defined on exactly the required subsets."""


class ChoiceOutsideSubset(HyperselError):
    """A selection table picks an element not contained in its subset."""


class EvenGround(HyperselError):
    """A rotational tournament needs an odd ground size."""


class NotRegular(HyperselError):
    """Operation requires a constant-score structure."""


class NotArityTwo(HyperselError):
    """Operation requires a tournament (arity-2 structure)."""


class SizeMismatch(HyperselError):
    """Two objects that must have equal size do not."""


class ArityMismatch(HyperselError):
    """Two structures that must have equal arity do not."""


class UncertifiedIsomorphism(HyperselError):
    """Equal canonical forms composed to a map that fails the isomorphism
    check (an internal invariant)."""


class BrokenInvariant(HyperselError):
    """A check that holds for every valid input failed (a bug, not a bad
    input)."""


class BudgetExceeded(HyperselError):
    """An enumeration or search hit its resource cap before finishing."""


class NotPrime(HyperselError):
    """A parameter required to be prime is not."""


class OutOfRange(HyperselError):
    """A numeric parameter is outside its documented range."""


class ArityNotInDomain(HyperselError):
    """A partial selection does not admit the requested arity."""


class RegularInput(HyperselError):
    """The level-class split is undefined for regular structures."""


class HypothesisViolated(HyperselError):
    """An extension precondition (primality, size, divisibility) fails."""


class PrimeInput(HyperselError):
    """The composite-arity shortcut was invoked with a prime successor."""


class NotModelContinuous(HyperselError):
    """Neighborhood shrinking hit the radius floor without preserving."""


class NotIso(HyperselError):
    """A map claimed to be an isomorphism is not one."""


class NotNice(HyperselError):
    """A family system failed the niceness check; ``verdict`` carries the
    failing verdict and its witness."""

    def __init__(self, message: str, verdict):
        super().__init__(message)
        self.verdict = verdict


class TransferConflict(HyperselError):
    """Transfer labels conflicted on a system that passed the niceness
    check (an internal invariant)."""


class CoverConflict(HyperselError):
    """Families covering one sample subset selected different points on a
    system that passed the niceness check (an internal invariant)."""


class NonBijectiveTransfer(HyperselError):
    """Selection construction requires bijective transfer maps."""


class DocumentError(HyperselError):
    """A JSON document is malformed or carries unknown fields."""
