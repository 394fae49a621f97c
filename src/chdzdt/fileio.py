"""File I/O shared by every reader and writer.

Output is atomic: a file appears whole under its name, or not at all.
Input is UTF-8 text read line by line; any failure is a DataError.
"""

from __future__ import annotations

import contextlib
import os
import secrets

from .errors import DataError


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = "\n"):
    """open(path, mode) for writing that replaces path only on success.

    The block writes to a new file of a unique name beside path, which is
    renamed over path once the block completes. If the block raises, that
    file is removed and path keeps its old bytes. Text is UTF-8; the file
    gets the permissions a plain open() gives. An OSError becomes a
    DataError naming path.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    mode = mode.replace("w", "x")
    try:
        fh = open(tmp, mode, newline=None if "b" in mode else newline,
                  encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


def read_lines(path):
    """(line number, line without its newline) for each line of a UTF-8
    text file; an OSError or invalid UTF-8 becomes a DataError naming path."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                yield lineno, line.rstrip("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
