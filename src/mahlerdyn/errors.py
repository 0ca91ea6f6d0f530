"""Domain errors raised by the exact-arithmetic layers.

Every error here means "the requested computation is not defined or could not
be completed soundly"; no operation in this package returns a wrong answer in
place of raising.
"""


class MahlerdynError(Exception):
    """Base class for all package errors."""


class ZeroPolynomial(MahlerdynError):
    """An operation required a nonzero polynomial."""


class NotSquarefree(MahlerdynError):
    """Input polynomial has a repeated root where a squarefree one is required."""


class EndpointRoot(MahlerdynError):
    """A Sturm count was requested on an interval whose endpoint is a root."""


class NotReciprocal(MahlerdynError):
    """trace_poly requires a plus-reciprocal polynomial."""


class OddDegree(MahlerdynError):
    """trace_poly requires even degree."""


class NotIrreducible(MahlerdynError):
    """Operation requires an irreducible polynomial."""


class NotMonic(MahlerdynError):
    """Operation requires a monic polynomial."""


class BoxAmbiguous(MahlerdynError):
    """A root box does not certify containment of exactly one root."""


class InternalPrecisionExceeded(MahlerdynError):
    """The working-precision ladder hit its hard cap before certifying.

    Raised instead of ever returning an uncertified answer. The caps are
    fixed: root isolation and refinement stop at ``roots._PREC_CAP`` =
    2^16 bits, and the minpoly-guessing ladder in ``mahler`` stops at 4096
    bits.
    """


# Name used by the higher layers for the same condition.
PrecisionExceeded = InternalPrecisionExceeded


class ZeroInput(MahlerdynError):
    """The algebraic number 0 was passed where it is not meaningful."""


class NotAFixedPoint(MahlerdynError):
    """fixed_point_class called on a number with M(a) != a."""


class TrichotomyViolation(MahlerdynError):
    """A verified fixed point fell outside {RationalInteger, Pisot, Salem}.

    This would contradict the classification theorem for fixed points, so it
    indicates an internal bug rather than a property of the input.
    """


class ExactCheckFailed(MahlerdynError):
    """An exact identity that a computed result must satisfy did not hold:
    an inexact division in Newton's identities, a measure with nonzero
    imaginary part, a factorization that does not multiply back to its input.

    Raised, never asserted, so ``python -O`` keeps the check; like
    TrichotomyViolation it indicates an internal bug.
    """


class RankDeficient(MahlerdynError):
    """Unit search could not certify a full-rank log lattice within budget,
    or the rows handed to LLL are linearly dependent."""


class NotFound(MahlerdynError):
    """Pattern search exhausted its exponent budget without a verified hit."""


class UnsupportedDegree(MahlerdynError):
    """Classification requested outside the supported degree range."""


class NotGalois(MahlerdynError):
    """Operation requires a Galois field (automorphism count == degree)."""


class NotCyclic(MahlerdynError):
    """Operation requires a cyclic Galois group."""


class AutomorphismsUndecided(MahlerdynError):
    """Automorphism discovery ended with fewer verified automorphisms than
    the Frobenius upper bound allows, so the exact count is unknown."""

    def __init__(self, lower: int, upper: int):
        super().__init__(
            f"{lower} automorphisms verified, Frobenius bound {upper}; "
            "the discovery ladder ended undecided"
        )
        self.lower = lower
        self.upper = upper


class UnsupportedGroup(MahlerdynError):
    """Verified Galois group is outside the classified families."""


class WitnessSearchFailed(MahlerdynError):
    """A classification route found no verifiable witness within budget."""


class InvalidPoly(MahlerdynError):
    """Polynomial text could not be parsed (CLI grammar)."""
