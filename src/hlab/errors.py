"""Exception hierarchy shared by all hlab modules.

Domain errors all derive from HlabError so the CLI can map them to a
single exit code; usage errors are left to argparse.
"""


class HlabError(Exception):
    """Base class for every domain error raised by hlab."""


class MalformedSubsetError(HlabError):
    """Subset is not strictly increasing or has the wrong arity."""


class SizeLimitError(HlabError):
    """Instance exceeds a configured exactness bound."""


class ParameterError(HlabError):
    """Numeric or structural parameter outside its documented domain."""


class ConstructionError(HlabError):
    """Invalid construction input (empty family, mixed uniformity, ...)."""


class FeasibilityError(HlabError):
    """Problem too large for the exact path; message names the fallback."""


class ParseError(HlabError):
    """Malformed serialized graph text."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class InputError(HlabError):
    """Inconsistent user-supplied data (overlapping edge sets, ...)."""


class DegenerateGraphError(HlabError):
    """Degenerate input: tau of no vertices, or ex* with no feasible set."""
