"""Every public module-level function and class of `hlab`, and every
public method of such a class, has a caller.

A name counts as used when some program file (`src/hlab/`, `scripts/`,
`perfbench/`) refers to it, as a bare name or an attribute, outside its
own definition.  Tests do not count: a name that only tests reach is
dead code.  Imports and strings do not count either.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src/hlab", "scripts", "perfbench")


def _referenced(node: ast.AST) -> Counter:
    """Names a subtree refers to, as a name or an attribute, with counts."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _public_defs(body: list, prefix: str = ""):
    """(qualified name, node) of each public def or class in body, and of
    each public method of such a class."""
    for node in body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef) and not prefix:
                yield from _public_defs(node.body, f"{node.name}.")


def unused_public_names(root: Path = ROOT) -> list:
    """(module, name) of each public module-level def or class of
    root/src/hlab, or public method of such a class (as Class.method),
    that no program file refers to outside its definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in PROGRAM_DIRS for path in sorted((root / top).glob("*.py"))}
    assert root / "src/hlab/__init__.py" in trees, f"no hlab package in {root}"
    uses = sum(map(_referenced, trees.values()), Counter())
    unused = []
    for path in sorted((root / "src/hlab").glob("*.py")):
        for name, node in _public_defs(trees[path].body):
            if uses[node.name] == _referenced(node)[node.name]:
                unused.append((path.stem, name))
    return unused


def test_every_public_name_has_a_caller():
    assert unused_public_names() == []


def test_unused_method_is_found(tmp_path):
    # A public method that only its own body names is reported; a private
    # one, and one another program file calls, are not.
    for top in PROGRAM_DIRS:
        (tmp_path / top).mkdir(parents=True)
    (tmp_path / "src/hlab/__init__.py").write_text("")
    (tmp_path / "src/hlab/mod.py").write_text(
        "class C:\n"
        "    def used(self):\n        return self._hidden()\n"
        "    def unused(self):\n        return self.unused()\n"
        "    def _hidden(self):\n        return 0\n")
    (tmp_path / "scripts/run.py").write_text("C().used()\n")
    assert unused_public_names(tmp_path) == [("mod", "C.unused")]


def _calls(tree: ast.AST, name: str, skip: ast.AST | None = None) -> list:
    """(positional count, keyword names) of each call of `name`, as a bare
    name or an attribute, outside the subtree `skip`.  A call that unpacks
    *args or **kwargs counts as passing every parameter."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    out = []
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Call) or id(sub) in inside:
            continue
        func = sub.func
        called = (func.id if isinstance(func, ast.Name) else
                  func.attr if isinstance(func, ast.Attribute) else None)
        if called != name:
            continue
        everything = (any(isinstance(a, ast.Starred) for a in sub.args)
                      or any(k.arg is None for k in sub.keywords))
        out.append((float("inf") if everything else len(sub.args),
                    None if everything else {k.arg for k in sub.keywords}))
    return out


def unpassed_defaults(root: Path = ROOT) -> list:
    """(module, function, parameter) of each defaulted parameter of a
    public module-level function of root/src/hlab that no call site in a
    program file passes, by position or by keyword."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in PROGRAM_DIRS for path in sorted((root / top).glob("*.py"))}
    unpassed = []
    for path in sorted((root / "src/hlab").glob("*.py")):
        for node in trees[path].body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
                continue
            calls = [c for tree in trees.values()
                     for c in _calls(tree, node.name, node)]
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(i, p.arg) for i, p in enumerate(positional)
                         if i >= first]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs,
                                                        a.kw_defaults)
                          if d is not None]
            for i, param in defaulted:
                if not any(keys is None or param in keys
                           or (i is not None and count > i)
                           for count, keys in calls):
                    unpassed.append((path.stem, node.name, param))
    return unpassed


def test_every_defaulted_parameter_is_passed():
    assert unpassed_defaults() == []


def test_unpassed_default_is_found(tmp_path):
    # A knob that no call passes is reported; one passed by keyword, by
    # position or through **kwargs is not.
    for top in PROGRAM_DIRS:
        (tmp_path / top).mkdir(parents=True)
    (tmp_path / "src/hlab/__init__.py").write_text("")
    (tmp_path / "src/hlab/mod.py").write_text(
        "def f(a, knob=1, *, flag=False, seed=0):\n"
        "    return f(a, knob, flag=flag, seed=seed)\n"
        "def g(a, b=2, c=3):\n    return a\n")
    (tmp_path / "scripts/run.py").write_text(
        "f(1, flag=True)\ng(1, 2)\ng(**{'c': 3})\n")
    assert unpassed_defaults(tmp_path) == [("mod", "f", "knob"),
                                           ("mod", "f", "seed")]
