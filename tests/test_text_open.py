"""Text comes in through chdzdt.fileio alone.

fileio decodes UTF-8, reads rows and turns a failed read into a DataError
naming the file. An `ast` scan of the package finds each call of the
builtin `open` outside fileio whose mode is not a constant holding "b"
(no mode at all included), so a second way to read or write text cannot
appear.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chdzdt"


def _text_opens(source):
    """The line of each call of open in source whose mode is not binary."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "b" in mode.value):
            lines.append(node.lineno)
    return lines


def test_only_fileio_opens_a_file_in_text_mode():
    found = {str(path.relative_to(SRC)): lines
             for path in sorted(SRC.rglob("*.py")) if path.name != "fileio.py"
             if (lines := _text_opens(path.read_text(encoding="utf-8")))}
    assert found == {}, ("read and write text through chdzdt.fileio: "
                         f"{found}")


def test_scan_finds_each_text_mode():
    source = ('open(p, "rb")\nopen(p)\nopen(p, "r")\nopen(p, mode="w")\n'
              'open(p, mode="xb")\nopen(p, m)\n')
    assert _text_opens(source) == [2, 3, 4, 6]
