"""The file boundary: every file ddtlab writes, and every text file it
reads, goes through one of its two context managers, and every key=value
text (plan files, checkpoint headers, train configs) through `read_fields`."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress

from .errors import FormatError

__all__ = ["atomic_write", "open_text", "read_fields"]


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


def read_fields(lines, fields, required, what) -> dict:
    """The parsed values of key=value `lines`, numbered from 1 as in the
    file. `fields` maps each allowed key to the function that parses its
    value. Blank lines are skipped, keys and values stripped. A line
    without '=', an unknown or repeated key, a value its parser refuses
    and an absent `required` key raise FormatError naming `what`."""
    values = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise FormatError(f"{what} line {lineno}: expected key=value, got {line!r}")
        if key not in fields:
            raise FormatError(f"{what} line {lineno}: unknown field {key!r} "
                              f"(known: {', '.join(sorted(fields))})")
        if key in values:
            raise FormatError(f"{what} line {lineno} repeats field {key!r}: {line.strip()!r}")
        try:
            values[key] = fields[key](value.strip())
        except ValueError as exc:
            raise FormatError(f"{what} line {lineno}: bad value for {key}: {exc}") from exc
    missing = [key for key in required if key not in values]
    if missing:
        raise FormatError(f"{what} missing fields {missing}")
    return values
