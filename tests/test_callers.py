"""src/ holds only what a run or the benchmark executes.

Code that only tests call belongs under tests/ (see tests/proofs.py).
"""

import ast
import io
import re
import tokenize
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


def _prose(tree):
    """Positions of the string constants that name without using: the
    docstrings, and the entries of __all__ assignments."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            yield node.body[0].value
        elif (isinstance(node, (ast.Assign, ast.AugAssign))
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in getattr(node, "targets", [])
                      or [node.target])):
            yield from (c for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))


def code_text(path):
    """The tokens of path, space-separated, without its comments, its
    docstrings, its __all__ entries and the names its def statements
    define: these name a function without calling it.  Other string
    literals stay, since a name passed as a string (to getattr, say) is a
    use."""
    source = path.read_text()
    prose = {(c.lineno, c.col_offset) for c in _prose(ast.parse(source))}
    tokens = [tok.string
              for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type != tokenize.COMMENT
              and not (tok.type == tokenize.STRING and tok.start in prose)]
    return re.sub(r"\bdef \w+", "", " ".join(tokens))


def uncalled(defining, calling):
    """Public functions defined in the files defining that no file in
    calling names outside prose."""
    texts = [code_text(p) for p in calling]
    return sorted(
        name for p in defining for name in public_functions(p)
        if not any(re.search(rf"\b{name}\b", text) for text in texts))


def test_every_public_function_has_a_caller():
    # __init__.py only imports and lists names in __all__
    callers = [p for p in [*SRC.glob("*.py"), *BENCH.glob("*.py")]
               if p.name != "__init__.py"]
    assert uncalled(SRC.glob("*.py"), callers) == []


def test_prose_is_not_a_caller(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        '"""in_module_doc is named here."""\n'
        '__all__ = ["in_all", "in_module_doc",\n'
        '           "in_comment", "in_doc", "by_string", "called"]\n'
        '__all__ += ["in_all"]\n\n\n'
        'def in_all(): pass\n'
        'def in_module_doc(): pass\n'
        'def in_comment(): pass  # in_comment()\n'
        'def in_doc():\n    """Call in_doc()."""\n'
        'def by_string(): pass\n'
        'def called(): return getattr(lib, "by_string")()\n'
        'x = called()\n')
    assert uncalled([lib], [lib]) == [
        "in_all", "in_comment", "in_doc", "in_module_doc"]
