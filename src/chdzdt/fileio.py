"""File I/O shared by every reader and writer.

Output is atomic: a file appears whole under its name, or not at all.
Input is UTF-8 text, TAB-separated rows or JSON; a file that cannot be
read or decoded is a DataError, and JSON of the wrong shape is a
ConfigError. No other module opens a file in text mode.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import secrets
import typing
from importlib import resources

from .errors import ConfigError, DataError

_JSON_TYPE_NAMES = {dict: "object", list: "array"}
# a field declared with the key's type takes a value of these types
_FIELD_TYPES = {int: int, float: (int, float), str: str, dict: dict, list: list}


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """open(path, mode) for writing that replaces path only on success.

    The block writes to a new file of a unique name beside path, which is
    renamed over path once the block completes. If the block raises, that
    file is removed and path keeps its old bytes. Text is UTF-8, its line
    ends written as they are; the file gets the permissions a plain open()
    gives. An OSError becomes a DataError naming path.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    mode = mode.replace("w", "x")
    try:
        fh = open(tmp, mode, newline=None if "b" in mode else "\n",
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


def read_rows(path, parse, what: str) -> list:
    """parse(fields) of the TAB-split fields of each non-blank line, in
    order. A ValueError from parse becomes a DataError naming path and
    line; a file with no non-blank line is a DataError ("no {what} found")."""
    rows = []
    for lineno, line in read_lines(path):
        if line:
            try:
                rows.append(parse(line.split("\t")))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no {what} found")
    return rows


def finite_floats(texts, what: str) -> list:
    """float(t) for each of texts; a text that is no number, or a NaN or
    infinite one, is a ValueError naming what (a read_rows parse error)."""
    try:
        values = [float(t) for t in texts]
    except ValueError:
        raise ValueError(f"non-numeric {what}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite {what}")
    return values


def read_text(path) -> str:
    """The whole of a UTF-8 text file; an OSError or invalid UTF-8 becomes
    a DataError naming path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_json(path, what: str, kind: type = dict):
    """The JSON value of a UTF-8 file, which must be a `kind` (dict or
    list). Text that does not parse (too deep or too long a number
    included) or a value of another type is a ConfigError naming path."""
    text = read_text(path)
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(value, kind):
        raise ConfigError(f"{what} {path} must be a JSON "
                          f"{_JSON_TYPE_NAMES[kind]}")
    return value


def read_package_json(name: str):
    """The JSON value of a data file shipped in the package."""
    return json.loads(
        resources.files("chdzdt").joinpath(f"data/{name}").read_text("utf-8"))


def check_fields(d: dict, types: dict, what: str) -> None:
    """Check d against types (field name -> int, float, str, dict or list).
    An unknown key or a value of the wrong type is a ConfigError: an int
    field takes a non-bool int, a float field an int or a float."""
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ConfigError(f"unknown {what} fields: {unknown}; "
                          f"allowed: {sorted(types)}")
    for name, value in d.items():
        if isinstance(value, bool) or not isinstance(
                value, _FIELD_TYPES[types[name]]):
            raise ConfigError(f"{what} field {name!r} must be "
                              f"{types[name].__name__}, got {value!r}")


@functools.cache
def _field_types(cls) -> dict:
    """A dataclass's field name -> type, resolved once per class."""
    return typing.get_type_hints(cls)


def config_from_dict(cls, d: dict, what: str):
    """cls(**d) for a dataclass, once check_fields accepts d."""
    check_fields(d, _field_types(cls), what)
    return cls(**d)
