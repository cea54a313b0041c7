"""Every fully qualified cross-reference in ``src/`` and the docs resolves.

A role such as ``:class:`~repro.core.model.BCCInstance``` names its
target by import path, so deleting or renaming a module, class or
function leaves the roles that name it dangling, and nothing else reads
them.  This test imports the ``repro.``-qualified target of every
``:class:``, ``:func:``, ``:meth:``, ``:mod:``, ``:data:``, ``:attr:``
and ``:exc:`` role under ``src/``.  The docs cite tests the same way, as
``tests/<file>.py::<Class>::<test>`` (or ``tests/<file>.py:<Class>``),
and each such id must name a class or function in that file.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The documents whose test ids are checked.
DOCS = ("docs/ALGORITHMS.md", "README.md")

_TEST_ID = re.compile(r"tests/(\w+\.py)::?(\w+)(?:::(\w+))?")

_ROLE = re.compile(r":(?:class|func|meth|mod|data|attr|exc):`~?(repro\.[\w.]+)`")


def _references() -> List[Tuple[str, str]]:
    """``(file, target)`` for every qualified role, in file order."""
    return [
        (str(path.relative_to(SRC)), match.group(1))
        for path in sorted(SRC.rglob("*.py"))
        for match in _ROLE.finditer(path.read_text(encoding="utf-8"))
    ]


def _resolves(target: str) -> bool:
    """Import the longest module prefix of ``target``, then walk attributes."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            # Only "this prefix is not a module" moves on to a shorter one;
            # a module that fails its own imports is a real error.
            if exc.name != module_name and not module_name.startswith(
                f"{exc.name}."
            ):
                raise
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_every_qualified_cross_reference_resolves():
    references = _references()
    assert references, "no qualified roles found: the scan itself is broken"
    dangling = [
        f"{path}: {target}" for path, target in references if not _resolves(target)
    ]
    assert not dangling, "dangling cross-references:\n" + "\n".join(dangling)


def _test_names(path: Path) -> Dict[str, Set[str]]:
    """Top-level class and function names of a test file, each mapped to
    the names of the functions defined directly in its body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name: {
            child.name
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_every_test_id_cited_in_the_docs_resolves():
    cited = sorted(
        {
            (doc, match.group(0), *match.groups())
            for doc in DOCS
            for match in _TEST_ID.finditer((ROOT / doc).read_text(encoding="utf-8"))
        },
        key=lambda entry: entry[:2],
    )
    assert cited, "no test ids found: the scan itself is broken"
    dangling = []
    for doc, cited_id, filename, name, member in cited:
        path = ROOT / "tests" / filename
        names = _test_names(path) if path.exists() else {}
        if name not in names or (member is not None and member not in names[name]):
            dangling.append(f"{doc}: {cited_id}")
    assert not dangling, "test ids that name nothing:\n" + "\n".join(dangling)
