"""Exception hierarchy shared by all citeineq modules.

Input-side errors (files, schemas, values) and computation-side errors
(degenerate statistics) are kept distinct so the CLI can map them to
different exit codes.  An input value that a message repeats goes through
``echo``, so that a one-line message stays short whatever the input holds.
"""

#: Most characters of an input value's ``repr`` that an error message repeats.
ECHO_LIMIT = 100


def echo(value) -> str:
    """``repr(value)`` as an error message repeats it: whole up to
    ``ECHO_LIMIT`` characters, else cut there and followed by its length."""
    text = repr(value)
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


class CiteIneqError(Exception):
    """Base class for every error raised by this package."""


# --- input / validation errors -------------------------------------------

class ParseError(CiteIneqError):
    """Malformed input file (bad row, bad JSON, wrong header).

    Carries a line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(CiteIneqError):
    """Profile document with an unsupported schema version."""


class ValidationError(CiteIneqError):
    """Well-formed input that violates a value constraint.

    ``row`` is the input index of the first row that breaks a
    ``Publication`` rule, before any sorting, or of the first series entry
    whose central year does not ascend; it is None for an error that spans
    rows, such as a duplicate pub_id or columns of unequal length.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class BadSpec(CiteIneqError):
    """Invalid synthetic-profile specification."""


class EmptyProfile(CiteIneqError):
    """Researcher profile with no publications."""


# --- computation errors ---------------------------------------------------

class EmptyInput(CiteIneqError):
    """Empty citation vector."""


class ZeroTotal(CiteIneqError):
    """All citation counts are zero; shares are 0/0 and undefined."""


class OutOfRange(CiteIneqError):
    """Argument outside its mathematical domain."""


class DegenerateFit(CiteIneqError):
    """Not enough usable points to fit the k-vs-g relation."""


class NoWindows(CiteIneqError):
    """Window configuration admits no window before the end year."""


class AllSkipped(CiteIneqError):
    """Every window in the series was skipped; no statistics available."""


class ZeroCitations(CiteIneqError):
    """Career has zero total citations."""


#: Errors that indicate bad user input rather than a failed computation.
INPUT_ERRORS = (ParseError, SchemaError, ValidationError, BadSpec, EmptyProfile)
