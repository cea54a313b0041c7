"""Every fully qualified docstring cross-reference in ``src/`` resolves.

A role such as ``:class:`~repro.core.model.BCCInstance``` names its
target by import path, so deleting or renaming a module, class or
function leaves the roles that name it dangling, and nothing else reads
them.  This test imports the ``repro.``-qualified target of every
``:class:``, ``:func:``, ``:meth:``, ``:mod:``, ``:data:``, ``:attr:``
and ``:exc:`` role under ``src/``.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path
from typing import List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

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
