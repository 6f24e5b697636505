"""Exception types shared across the package.

All of these subclass ValueError so callers can catch broadly; the CLI
maps InfeasibleConfigError to exit code 2 and everything else to 1.
"""


class AlignmentError(ValueError):
    """Vector lengths do not match the attribute list."""


class InfeasibleConfigError(ValueError):
    """The clustering configuration cannot be satisfied by the dataset,
    e.g. k exceeds the number of rows or of distinct rows."""


class SchemaError(ValueError):
    """A survey schema document is malformed."""


class ParseError(ValueError):
    """A response table could not be parsed; messages are row-addressed."""


class DegenerateProfileError(ValueError):
    """All raw trait scores are zero, so percentages are undefined."""


class ReportError(ValueError):
    """A report document is malformed or reports are incompatible."""
