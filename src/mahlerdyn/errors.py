"""Domain errors raised by the exact-arithmetic layers, and Record, the
frozen base of the package's value types.

Every error here means "the requested computation is not defined or could not
be completed soundly"; no operation in this package returns a wrong answer in
place of raising.
"""

from operator import attrgetter


class Record:
    """Frozen value type: its fields are the class's own annotations, in
    order, and a value assigned in the class body is a field's default.

    Built positionally or by keyword, it prints as ``Name(field=value, ...)``,
    equals only an instance of its own class with equal fields, and hashes as
    the tuple of them; fields named in ``_hidden`` are left out of all three.
    Assignment and deletion raise AttributeError. The fields are read once,
    when a subclass is defined, and no code is generated for it.
    """

    _hidden = ()

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        cls._shown = shown = tuple(n for n in names if n not in cls._hidden)
        key = attrgetter(*shown)  # of one name, the value rather than a 1-tuple
        cls._key = key if len(shown) > 1 else staticmethod(lambda self: (key(self),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            args = [values[n] for n in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete the field {name!r}")

    __delattr__ = __setattr__


class MahlerdynError(Exception):
    """Base class for all package errors."""


class ZeroPolynomial(MahlerdynError):
    """An operation required a nonzero polynomial."""


class NotSquarefree(MahlerdynError):
    """Input polynomial has a repeated root where a squarefree one is required."""


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

    Raised instead of ever returning an uncertified answer. There are
    three ladders, each with a fixed cap:

    - root isolation and refinement: ``roots._PREC_CAP`` = 2^16 bits;
    - the minpoly-guessing ladder of ``mahler``: 4096 bits, after which a
      product resolvent above degree 64 raises; one above degree
      ``mahler._SUBSET_CAP`` = 1024 raises before it is built;
    - every field-level probe, ``nfield._LAYOUT_PREC``: 6144 bits. It
      covers automorphism discovery (where this error surfaces as
      AutomorphismsUndecided), the Cayley resolvent sextic
      (``classify._cayley_sextic``), the log intervals of
      ``nfield._place_logs``, and the field-element probes of
      ``nfield._embeds`` (signs, ``fe_to_algnum``,
      ``nf_embedding_permutation``), raised where a rung must settle the
      question; each ``nf_embed`` refines 24 times before it gives up.
    """


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
