"""Every module-level function and class in src has a caller in src.

Library code that only tests reach is kept alive by the tests alone. An
`ast` scan of the package finds each top-level `def` and `class` that no
module of the package refers to. A reference is a name (`f(...)`), a
name imported with `from ... import`, or an attribute of a name bound to
one of the package's modules (`T.fit`); an attribute of anything else
(`raw.decode()`) is no reference to a function of that name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chdzdt"

# the seams kept without a caller in src, each with the caller it has
SEAMS = {
    "precision": "the float64 gradient checks in tests",
    "decode": "tests/test_acceptance.py::test_04",
    "gru_cell": "perfbench/layers.py",
}


def _package_sources(root):
    """Dotted module name -> (source, whether it is a package's
    __init__) for every module under root."""
    sources = {}
    for path in sorted(root.rglob("*.py")):
        parts = (root.name, *path.relative_to(root).with_suffix("").parts)
        init = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if init else parts)
        sources[name] = (path.read_text(encoding="utf-8"), init)
    return sources


def _references(tree, module, init, modules):
    """The names tree refers to, module being its dotted name."""
    package = module if init else module.rpartition(".")[0]
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name.partition(".")[0]
                           for a in node.names if a.name in modules)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            for a in node.names:
                names.add(a.name)
                if f"{base}.{a.name}" in modules:
                    aliases.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            names.add(node.attr)
    return names


def _unreferenced(sources):
    """The "module.name" of each top-level def and class in sources that
    no module of sources refers to."""
    trees = {m: (ast.parse(src), init) for m, (src, init) in sources.items()}
    referenced = set().union(*(_references(tree, m, init, sources)
                               for m, (tree, init) in trees.items()))
    return {f"{m}.{node.name}" for m, (tree, _) in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in referenced}


def test_every_library_function_has_a_program_caller():
    found = _unreferenced(_package_sources(SRC))
    lacking = sorted(q for q in found if q.rpartition(".")[2] not in SEAMS)
    assert lacking == [], ("no module of src calls these; delete them, or "
                           f"name the caller in SEAMS: {lacking}")
    seams = sorted(q.rpartition(".")[2] for q in found)
    assert seams == sorted(SEAMS), "a seam in SEAMS is gone or has a caller"


def test_only_attributes_of_a_module_alias_count():
    sources = {
        "pkg": ("", True),
        "pkg.tok": ("def decode(ids): pass\ndef encode(w): pass\n"
                    "class Vocab: pass\n", False),
        "pkg.sub": ("", True),
        "pkg.sub.cli": ("from .. import tok as K\nfrom ..tok import Vocab\n"
                        "raw = b''\nraw.decode()\nK.encode('x')\n", False),
    }
    assert _unreferenced(sources) == {"pkg.tok.decode"}
