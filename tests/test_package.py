import ast
import collections
import pathlib
import re

import hyperlab

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperlab"


def test_exports_resolve_once():
    repeated = [name for name, n in collections.Counter(hyperlab.__all__).items()
                if n > 1]
    assert repeated == []
    assert [name for name in hyperlab.__all__
            if not hasattr(hyperlab, name)] == []


def _uncalled_definitions(package, root):
    """Public top-level defs and classes of the package that no module but
    `__init__.py` names, and that no benchmark file or README python
    block names either."""
    defined = []
    used = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    texts = [p.read_text() for p in sorted((root / "perfbench").glob("*.py"))]
    texts += re.findall(r"^```python\n(.*?)^```",
                        (root / "README.md").read_text(), flags=re.M | re.S)
    for text in texts:
        used.update(re.findall(r"\w+", text))
    return [name for name in defined if name not in used]


def test_every_public_definition_has_a_caller():
    assert _uncalled_definitions(PACKAGE, ROOT) == []


def _uncalled_private_definitions(package):
    """Private top-level functions and methods of the package, dunders
    aside, that no module of the package names."""
    defined = []
    used = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [tree] + [node for node in tree.body
                           if isinstance(node, ast.ClassDef)]
        defined += [node.name for scope in scopes for node in scope.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    return [name for name in defined if name not in used]


def test_every_private_definition_has_a_caller():
    assert _uncalled_private_definitions(PACKAGE) == []


def _unread_constants(package):
    """`module:NAME` for each module-level UPPER_CASE name of the package
    that the module defining it never reads: a constant lives where it is
    read."""
    defined = []
    unread = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = [target.id for node in tree.body
                 if isinstance(node, ast.Assign)
                 for target in node.targets
                 if isinstance(target, ast.Name) and target.id.isupper()]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        defined += names
        unread += [f"{path.stem}:{name}" for name in names
                   if name not in read]
    assert defined
    return unread


def test_every_constant_is_read():
    assert _unread_constants(PACKAGE) == []


def _unread_parameters(package):
    """`module:function:parameter` for each parameter of a package
    function that its body never reads; `self`, `cls` and names that
    start with `_` are exempt."""
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs
                                      + [args.vararg, args.kwarg]) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.stem}:{name}:{p}" for p in params
                       if p not in read and p not in ("self", "cls")
                       and not p.startswith("_")]
    return unread


def test_every_parameter_is_read():
    assert _unread_parameters(PACKAGE) == []
