"""Exception hierarchy shared by all lbound modules.

Each class carries the stable CLI exit code for its failures in
``exit_code``: input/parse problems exit 2 (the base class default),
performance-database misses exit 3, storage failures exit 4. A new subclass
inherits its parent's code.
"""

from __future__ import annotations


class LboundError(Exception):
    """Base class for all lbound errors."""

    exit_code = 2


class ModelParseError(LboundError):
    """A model file could not be decoded.

    For binary models ``offset`` is the byte offset at which decoding
    failed; for text models it is the 1-based line number.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class GraphStructureError(LboundError):
    """The graph violates a structural invariant (cycle, dangling edge)."""


class ShapeInferenceError(LboundError):
    """A layer's params or input dims do not fit its op; the message names the node and op."""


class ShapeStateError(LboundError):
    """An operation that requires inferred shapes ran before inference."""


class ConfigError(LboundError):
    """Invalid benchmark or analysis configuration."""


class StorageError(LboundError):
    """The performance database could not be read or written."""

    exit_code = 4


class ProfileFormatError(LboundError):
    """An execution profile or log file violates its grammar."""


class CorrelationError(LboundError):
    """Profile entries could not be matched against the model graph."""


class DomainError(LboundError):
    """A numeric argument is outside its valid domain."""


class MissError(LboundError):
    """Requested performance-database keys are absent.

    ``keys`` holds one human-readable string per missing lookup, so a key
    repeats once per layer node that needs it; the message counts each
    distinct key once.
    """

    exit_code = 3

    def __init__(self, keys: list[str]):
        self.keys = list(keys)
        distinct = list(dict.fromkeys(self.keys))
        preview = "; ".join(distinct[:4])
        more = f" (+{len(distinct) - 4} more)" if len(distinct) > 4 else ""
        super().__init__(f"{len(distinct)} benchmark result(s) missing: {preview}{more}")


def read_text(path, error: type[LboundError]) -> str:
    """The text of an outside file; an unreadable or non-UTF-8 file raises ``error``.

    ``error`` is the class that the file's parser raises, so such a file
    exits with the code of any other bad file of its kind.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write an output file; a path that cannot be written raises ``ConfigError``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
