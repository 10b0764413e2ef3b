"""Exception hierarchy shared across the toolkit.

Every error raised on a bad input derives from :class:`RmlPruneError`, so the
command line interface can map "your input is broken" uniformly to exit
code 2 while programming errors keep their ordinary tracebacks.  Every parser
that takes bytes decodes them with :func:`decoded`, and reports them alike.
"""

from typing import Callable


class RmlPruneError(Exception):
    """Base class for all input and model errors raised by this package."""


class InvalidTermError(RmlPruneError, ValueError):
    """An RDF term violates its well-formedness rules (bad IRI, bad label...)."""


class StructuralError(RmlPruneError):
    """A mapping expression or evaluation precondition is violated."""


class SourceInputError(RmlPruneError):
    """A source assignment does not satisfy a mapping's requirements."""


class CsvError(RmlPruneError, ValueError):
    """Malformed CSV input (ragged rows, duplicate or empty headers...)."""


class _PositionedError(RmlPruneError, ValueError):
    """Malformed text, with a position when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class TurtleError(_PositionedError):
    """Malformed Turtle input, with a position when available."""


class SparqlError(_PositionedError):
    """Malformed SPARQL input, with a position when available."""


class UnsupportedSparqlError(SparqlError):
    """The query uses a SPARQL feature outside the supported subset."""


class MappingModelError(RmlPruneError):
    """An RML document uses constructs outside the supported vocabulary,
    or is structurally broken (missing subject map, empty join...)."""


def decoded(data: bytes, error: Callable[[str], RmlPruneError]) -> str:
    """*data* as UTF-8 text, after an optional byte-order mark; raises
    ``error("not valid UTF-8: …")`` if it is not UTF-8."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"not valid UTF-8: {exc}") from None
