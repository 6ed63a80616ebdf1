"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: a failed search recheck exits 1,
bad input or configuration exits 2, resource guards exit 3.
"""

EXCERPT_CHARS = 60


def excerpt(text: str) -> str:
    """`text` when it is at most EXCERPT_CHARS long, else its head and its
    length: a message repeats outside text back, never all of a long one."""
    if len(text) <= EXCERPT_CHARS:
        return text
    return f"{text[:EXCERPT_CHARS]}... ({len(text)} characters)"


class GcircError(Exception):
    """Base class for all toolkit errors."""


class BadDegreeError(GcircError, ValueError):
    """Modulus bitmask does not encode a degree-m polynomial, or m out of range."""


class ReducibleModulusError(GcircError, ValueError):
    """Trial division found a nontrivial factor of the modulus."""


class ParseError(GcircError, ValueError):
    """Element literal not recognized as hex or polynomial syntax."""


class OutOfRangeError(ParseError):
    """Element literal names a term of degree >= m or a value >= 2^m."""


class DimensionError(GcircError, ValueError):
    """Incompatible shapes, out-of-range indices, or dimension cap exceeded."""


class SingularMatrixError(GcircError, ArithmeticError):
    """Inverse requested for a matrix with determinant zero."""


class NotCoprimeError(GcircError, ValueError):
    """Operation requires gcd(g, k) = 1."""


class NotKCycleError(GcircError, ValueError):
    """Permutation is not a single k-cycle."""


class SpaceTooLargeError(GcircError, RuntimeError):
    """Resource guard: the requested enumeration is past desk scale."""


class ResumeTokenError(GcircError, ValueError):
    """Resume token outside the job's candidate range."""


class RecheckError(GcircError, AssertionError):
    """A search's debug_recheck found a pruned candidate that meets the target."""


class ConfigError(GcircError, ValueError):
    """Malformed job description or CLI configuration."""
