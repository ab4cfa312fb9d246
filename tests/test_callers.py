"""src/ holds only what a run or the benchmark executes or names.

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
TOOLS = SRC.parents[1] / "tools"


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


def public_classes(path):
    """Public module-level classes defined in path."""
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef)
            and not node.name.startswith("_")]


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
    docstrings, its __all__ entries and the names its def and class
    statements define: these name a function or class without using it.
    Other string literals stay, since a name passed as a string (to
    getattr, say) is a use."""
    source = path.read_text()
    prose = {(c.lineno, c.col_offset) for c in _prose(ast.parse(source))}
    tokens = [tok.string
              for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type != tokenize.COMMENT
              and not (tok.type == tokenize.STRING and tok.start in prose)]
    return re.sub(r"\b(def|class) \w+", "", " ".join(tokens))


def uncalled(defining, calling, public=public_functions):
    """Public functions (or other public names) defined in the files
    defining that no file in calling names outside prose."""
    texts = [code_text(p) for p in calling]
    return sorted(
        name for p in defining for name in public(p)
        if not any(re.search(rf"\b{name}\b", text) for text in texts))


def dataclass_fields(path):
    """(class, field) for each field of the @dataclass classes in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                == "dataclass" for d in node.decorator_list):
            yield from ((node.name, item.target.id) for item in node.body
                        if isinstance(item, ast.AnnAssign))


def self_attributes(path):
    """(class, attribute) for each attribute a class in path assigns
    through self."""
    for cls in ast.walk(ast.parse(path.read_text())):
        if isinstance(cls, ast.ClassDef):
            yield from ((cls.name, node.attr) for node in ast.walk(cls)
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self")


def unread_fields(defining, reading):
    """Class.field for each dataclass field, or attribute stored through
    self, in the files defining whose name no file in reading loads as an
    attribute: a name in prose, or on the left of an assignment, stores
    without reading."""
    read = {node.attr for p in reading
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted({f"{cls}.{name}" for p in defining
                   for cls, name in [*dataclass_fields(p),
                                     *self_attributes(p)]
                   if name not in read})


# __init__.py only imports and lists names in __all__
CALLERS = [p for p in [*SRC.glob("*.py"), *BENCH.glob("*.py")]
           if p.name != "__init__.py"]


def test_every_public_function_has_a_caller():
    assert uncalled(SRC.glob("*.py"), CALLERS) == []


def test_every_public_class_is_named():
    # an exception only a deleted function raised stayed behind
    assert uncalled(SRC.glob("*.py"), CALLERS, public_classes) == []


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


def test_own_class_statement_is_not_a_use(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        'class Base(Exception): pass\n'
        'class Unused(Base):\n    """Unused is named here."""\n'
        'class Raised(Base): pass\n'
        'class _Private: pass\n'
        'def f(): raise Raised()\n')
    assert uncalled([lib], [lib], public_classes) == ["Unused"]


def test_every_dataclass_field_is_read():
    # bench/ reads Trace.stats, and tools/ reads NormalForm.transform
    readers = [*SRC.glob("*.py"), *BENCH.glob("*.py"), *TOOLS.glob("*.py")]
    assert unread_fields(SRC.glob("*.py"), readers) == []


def test_stored_or_named_field_is_not_read(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        'from dataclasses import dataclass\n\n\n'
        '@dataclass(frozen=True)\n'
        'class Spec:\n'
        '    """in_doc is named here."""\n'
        '    read: float\n'
        '    in_doc: float\n'
        '    in_comment: float\n'
        '    stored: float\n\n\n'
        '@dataclass\n'
        'class Bare:\n'
        '    used: int\n\n\n'
        'class Plain:\n'
        '    ignored: int\n\n\n'
        'def f(spec, bare):\n'
        '    spec.stored = bare.used  # spec.in_comment\n'
        '    return spec.read\n')
    assert unread_fields([lib], [lib]) == [
        "Spec.in_comment", "Spec.in_doc", "Spec.stored"]


def test_attribute_stored_through_self_is_not_read(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        'class Failure(Exception):\n'
        '    """in_doc is named here."""\n\n'
        '    def __init__(self, x):\n'
        '        self.read, self.in_doc = x, x\n'
        '        self.stored = x\n'
        '        super().__init__(f"failed at {x}")\n\n\n'
        'def f(err):\n'
        '    err.stored = err.read\n')
    assert unread_fields([lib], [lib]) == [
        "Failure.in_doc", "Failure.stored"]
