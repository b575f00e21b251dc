"""Exception types shared across the package.

Every validation or contract failure raises a subclass of
:class:`CompoundnessError`, so callers can catch the whole family at once.
"""


class CompoundnessError(Exception):
    """Base class for all errors raised by this package."""


# -- order structures ------------------------------------------------------

class NotAPoset(CompoundnessError):
    """The relation is not reflexive, antisymmetric, and transitive."""


class NotALattice(CompoundnessError):
    """Some pair of elements lacks a meet or a join."""


class NoBounds(CompoundnessError):
    """The order has no bottom or top element."""


class UnknownElement(CompoundnessError):
    """An element index or label does not belong to the lattice."""


class NotInvolutive(CompoundnessError):
    """The candidate orthocomplement is not an involution."""


class NotOrderReversing(CompoundnessError):
    """The candidate orthocomplement does not reverse the order."""


class NotComplement(CompoundnessError):
    """Some element fails a /\\ a' = 0. (a \\/ a' = 1 then follows, as the
    complement is an order-reversing involution; it is not checked.)"""


class NotOrthomodular(CompoundnessError):
    """The orthomodular law fails for some comparable pair."""


class PreconditionViolated(CompoundnessError):
    """An operation was called outside its stated precondition."""


# -- maps between lattices -------------------------------------------------

class NotJoinPreserving(CompoundnessError):
    """A map table fails to preserve the bottom or some binary join."""


class NotMeetPreserving(CompoundnessError):
    """A map table fails to preserve the top or some binary meet."""


class MixedSignatures(CompoundnessError):
    """Maps with different source/target lattices were combined."""


class TooLarge(CompoundnessError):
    """An exhaustive enumeration guard was exceeded."""


# -- Hilbert geometry ------------------------------------------------------

class BadShape(CompoundnessError):
    """An array argument has the wrong dimensions."""


class NonFinite(CompoundnessError):
    """An array argument contains NaN or infinite entries."""


class DimensionMismatch(CompoundnessError):
    """Operands live in spaces of different ambient dimension."""


class NotADensity(CompoundnessError):
    """A matrix fails the density-operator invariants."""


# -- operators and tensor states -------------------------------------------

class BadBasis(CompoundnessError):
    """A basis argument is not orthonormal, or does not fit the operator."""


class ZeroOperator(CompoundnessError):
    """The zero operator was passed where a nonzero one is required."""


class ZeroVector(CompoundnessError):
    """The zero vector was passed where a nonzero one is required."""


# -- state transition quantale ---------------------------------------------

class NotMember(CompoundnessError):
    """A transition map fails the closure-compatibility condition."""


class IllDefined(CompoundnessError):
    """A propagation is not well defined; carries a witness pair."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# -- command line / serialization ------------------------------------------

class UnknownSuite(CompoundnessError):
    """The requested verification suite does not exist."""


class ParseError(CompoundnessError):
    """A file could not be parsed; carries line/column when known."""

    def __init__(self, message: str, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        base = super().__str__()
        if self.line is not None:
            return f"{base} (line {self.line}, column {self.column})"
        return base
