"""Exception types shared across the package."""


class BergeColorError(Exception):
    """Base class for all package errors."""


class MalformedPartition(BergeColorError):
    """The five sets do not partition the vertex set (overlap or missing vertices)."""


class NotSquareFree(BergeColorError):
    """Input contains an induced 4-cycle; the witness cycle is attached.

    args[0] is a message, .witness is a 4-tuple of vertices in cycle order.
    """

    def __init__(self, msg: str, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotBerge(BergeColorError):
    """Input contains an odd hole or odd antihole; the witness is attached."""

    def __init__(self, msg: str, witness=None):
        super().__init__(msg)
        self.witness = witness


class BergeViolation(BergeColorError):
    """The merge step ran out of color swaps.

    For square-free Berge inputs a reducing swap always exists, so exhaustion
    proves the input (or a partition handed in) was not what it claimed to be.
    """


class Infeasible(BergeColorError):
    """No proper coloring with the requested number of colors exists."""


class InternalViolation(BergeColorError):
    """An internal invariant failed; indicates a bug, never bad user input."""


class SpecError(BergeColorError):
    """Generator parameters are out of range or break a required parity."""


class GenerationExhausted(BergeColorError):
    """Random generation hit its retry budget without producing a valid graph."""


class DimacsError(BergeColorError):
    """A DIMACS file could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no
