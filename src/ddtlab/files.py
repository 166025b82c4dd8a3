"""The file boundary: every file ddtlab writes, and every text file it
reads, goes through one of these two context managers."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress

from .errors import FormatError

__all__ = ["atomic_write", "open_text"]


@contextmanager
def atomic_write(path, binary: bool = False):
    """A handle on `<path>.tmp`, renamed over `path` once the block ends
    without an exception, so a reader never sees a half-written file. A
    write that fails leaves any earlier file whole and removes the temp."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):  # never hide the error that got us here
            os.unlink(tmp)
        raise


@contextmanager
def open_text(path):
    """`path` opened as UTF-8 text; bytes that do not decode, wherever in
    the block they are read, raise FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
