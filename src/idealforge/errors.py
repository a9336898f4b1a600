"""Exception types shared across the toolkit.

Every error that a caller is expected to branch on gets its own class.
A CLI error report tags an error with its class name.
"""


class IdealforgeError(Exception):
    """Base class for all toolkit errors."""


class CarrierMismatch(IdealforgeError):
    """The carrier kind (number set vs. pair set) does not match the ideal."""


class CannotAvoid(IdealforgeError):
    """No non-positive subset of the requested size exists for the strategy."""


class TooLarge(IdealforgeError):
    """Input exceeds an enumeration cap; shrink it instead of waiting forever."""


class TooSmall(IdealforgeError):
    """Input is below the minimum size the operation is defined for."""


class NotSparse(IdealforgeError):
    """Subset sums collide, so unique decompositions do not exist."""


class NotInFS(IdealforgeError):
    """The value has no decomposition over the given basis."""


class PoolExhausted(IdealforgeError):
    """Greedy selection ran out of pool elements before reaching the target size."""


class WindowExceeded(IdealforgeError):
    """A coloring was queried outside its declared window."""


class ZeroInput(IdealforgeError):
    """Zero has no odd part; the column map is defined for x >= 1."""


class DegeneratePair(IdealforgeError):
    """Pair endpoints must be distinct."""


class CaseMismatch(IdealforgeError):
    """The declared canonical case does not match the classifier's verdict."""


class InvariantViolated(IdealforgeError):
    """An internal invariant failed; this is a bug, never a verdict on input."""


class SearchExhausted(IdealforgeError):
    """A bounded construction step found no candidate within its budget.

    This is an expected outcome for inputs that genuinely witness nothing;
    ``step`` tells the caller where the construction died.
    """

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        message = f"construction exhausted at step {step}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class MalformedBundle(IdealforgeError):
    """A verification bundle has inconsistent indices or missing pieces."""


class NoSuchC(IdealforgeError):
    """No admissible witness set for the final-contradiction replay."""


class ParseError(IdealforgeError):
    """Bad literal or table syntax; ``position`` points at the offender."""

    def __init__(self, message: str, position: int = -1):
        self.position = position
        if position >= 0:
            message = f"{message} (at position {position})"
        super().__init__(message)


class Incomplete(IdealforgeError):
    """A coloring table is missing domain points; totality is enforced."""

    def __init__(self, missing, kind: str = "coloring"):
        self.missing = list(missing)
        shown = ", ".join(str(m) for m in self.missing[:10])
        more = "" if len(self.missing) <= 10 else f" (+{len(self.missing) - 10} more)"
        super().__init__(f"{kind} table incomplete; missing: {shown}{more}")
