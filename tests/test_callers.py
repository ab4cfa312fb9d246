"""src/ holds only what a run or the benchmark executes.

Code that only tests call belongs under tests/ (see tests/proofs.py).
"""

import ast
import re
from pathlib import Path

import funnelsim

SRC = Path(funnelsim.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"


def public_functions(path):
    """Public module-level functions and public methods defined in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))
        elif (isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")):
            yield node.name


def test_every_public_function_has_a_caller():
    # __init__.py only imports and lists names; a definition or an
    # __all__ entry names a function without calling it
    texts = [re.sub(r"def \w+|__all__ = \[.*?\]", "", p.read_text(),
                    flags=re.DOTALL)
             for p in [*SRC.glob("*.py"), *BENCH.glob("*.py")]
             if p.name != "__init__.py"]
    uncalled = sorted(
        name for p in SRC.glob("*.py") for name in public_functions(p)
        if not any(re.search(rf"\b{name}\b", text) for text in texts))
    assert uncalled == []
