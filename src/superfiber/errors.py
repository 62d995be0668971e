"""The domain error type shared across the package.

A DomainError means "the mathematics rejected the input" (the CLI maps
it to exit code 2), as opposed to malformed flags or I/O problems; its
message says which rule the input broke.
"""

from __future__ import annotations


class DomainError(Exception):
    """A mathematical domain violation: a tuple that is not admissible, a
    point off its curve, fiber or cubic, or a degenerate coefficient."""

