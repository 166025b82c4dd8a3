"""The file boundary: every file ddtlab writes, and every text file it
reads, goes through one of these two context managers."""

from __future__ import annotations

import os
from contextlib import contextmanager

from .errors import FormatError

__all__ = ["atomic_write", "open_text"]


@contextmanager
def atomic_write(path, binary: bool = False):
    """A handle on `<path>.tmp`, renamed over `path` once the block ends
    without an exception, so a reader never sees a half-written file and a
    write that fails leaves any earlier file whole."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


@contextmanager
def open_text(path):
    """`path` opened as UTF-8 text; bytes that do not decode, wherever in
    the block they are read, raise FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
