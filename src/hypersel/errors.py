"""Exception taxonomy shared by all modules.

Every fault a caller can provoke raises a ``HyperselError``, whose class
names a kind of fault, not a call site, so tests and the CLI match on type.
Broken internal invariants (a check that holds for every valid input) are
``BrokenInvariant``, raised explicitly, never through a bare ``assert``, so
the checks survive ``python -O``.  Any other exception is a bug.  The one
int check, check_int, says "m must be an int in 1..11, got 12", or "p must
be an int, got 2.0" with no bounds.
"""


class HyperselError(Exception):
    """Base class for all package errors."""


class DuplicateLabel(HyperselError):
    """A ground set was given repeated labels."""


class MissingSubset(HyperselError):
    """A selection table is not defined on exactly the required subsets."""


class ChoiceOutsideSubset(HyperselError):
    """A selection table picks an element not contained in its subset."""


class NotRegular(HyperselError):
    """Operation requires a constant-score structure."""


class NotArityTwo(HyperselError):
    """Operation requires a tournament (arity-2 structure)."""


class SizeMismatch(HyperselError):
    """Two objects that must have equal size do not."""


class ArityMismatch(HyperselError):
    """Two structures that must have equal arity do not."""


class BrokenInvariant(HyperselError):
    """A check that holds for every valid input failed (a bug, not a bad
    input)."""


class BudgetExceeded(HyperselError):
    """An enumeration or search hit its resource cap before finishing."""


class NotPrime(HyperselError):
    """A parameter required to be prime is not."""


class OutOfRange(HyperselError):
    """An argument outside its documented domain."""


class ArityNotInDomain(HyperselError):
    """A partial selection does not admit the requested arity."""


class RegularInput(HyperselError):
    """The level-class split is undefined for regular structures."""


class HypothesisViolated(HyperselError):
    """An extension precondition (primality, size, divisibility) fails."""


class InvalidModel(HyperselError):
    """An empty interval, overlapping members, or points unsorted or off the carrier."""


class NotIso(HyperselError):
    """A map claimed to be an isomorphism is not one."""


class NotNice(HyperselError):
    """A family system failed the niceness check; ``verdict`` carries the
    failing verdict and its witness."""

    def __init__(self, message: str, verdict):
        super().__init__(message)
        self.verdict = verdict


class NonBijectiveTransfer(HyperselError):
    """Selection construction requires bijective transfer maps."""


class DocumentError(HyperselError):
    """A JSON document is malformed or carries unknown fields."""


def _shown(x) -> str:
    """repr(x), but an int past the interpreter's digit limit by its bit
    length, also as an item of a list or tuple x."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, (list, tuple)):
            items = ", ".join(map(_shown, x))
            return f"[{items}]" if isinstance(x, list) else f"({items}{',' * (len(x) == 1)})"
        return f"an int of {x.bit_length()} bits"


def check_int(name: str, value, lo=None, hi=None) -> None:
    """OutOfRange naming the argument, its domain and the value unless value is
    an int (not a bool) in lo..hi; None leaves a bound open, hi only with lo."""
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return
    if lo is None:
        raise OutOfRange(f"{name} must be an int, got {_shown(value)}")
    domain = f">= {_shown(lo)}" if hi is None else f"in {_shown(lo)}..{_shown(hi)}"
    raise OutOfRange(f"{name} must be an int {domain}, got {_shown(value)}")
