"""Every module-level public function and class of `hlab` has a caller.

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


def unused_public_names(root: Path = ROOT) -> list:
    """(module, name) of each public module-level def or class of
    root/src/hlab that no program file refers to outside its definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in PROGRAM_DIRS for path in sorted((root / top).glob("*.py"))}
    assert root / "src/hlab/__init__.py" in trees, f"no hlab package in {root}"
    uses = sum(map(_referenced, trees.values()), Counter())
    unused = []
    for path in sorted((root / "src/hlab").glob("*.py")):
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and uses[node.name] == _referenced(node)[node.name]):
                unused.append((path.stem, node.name))
    return unused


def test_every_public_name_has_a_caller():
    assert unused_public_names() == []
