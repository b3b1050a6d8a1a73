"""List the top-level defs of the morsespec package that neither a command
nor the acceptance gate can reach, and exit 1 if there are any.

    python scripts/unreached_src.py [SRC] [GATE]

SRC defaults to src/morsespec and GATE to tests/test_acceptance.py, both
under the repository root.  The walk starts from every top-level def of
cli, the import-time statements of each module (everything at top level
but defs and imports) and the names the gate reads as `ms.<name>`,
resolved to their module through __init__'s _EXPORTS.  From a reached def
it follows each name the def's body loads: to a def of the same module, or
through the module's `from .x import name` lines to module x.  So a local
variable that shares a name with another module's def reaches nothing.
Annotations are never evaluated (the modules import annotations from
__future__), so they reach nothing either; module dunders such as
__getattr__ are called by Python and count as reached.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def loaded_names(node: ast.AST):
    """The names node loads when it runs, annotations left out."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"
        for field, child in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(child, ast.AST):
                stack.append(child)
            elif isinstance(child, list):
                stack.extend(c for c in child if isinstance(c, ast.AST))


class Module:
    def __init__(self, path: Path) -> None:
        tree = ast.parse(path.read_text())
        self.defs = {node.name: node for node in tree.body if isinstance(node, DEFS)}
        # local name -> (submodule or None for the package, imported name)
        self.imports = {}
        self.top = []  # the import-time statements
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (node.module, alias.name)
            elif not isinstance(node, (*DEFS, ast.Import, ast.ImportFrom)):
                self.top.append(node)


def unreached(src: Path, gate: Path) -> list[str]:
    modules = {path.stem: Module(path) for path in sorted(src.glob("*.py"))}

    def resolve(m: str, name: str):
        """The (module, def) that name, loaded in module m, refers to."""
        head, _, attr = name.partition(".")
        while m in modules:
            mod = modules[m]
            if head in mod.defs and not attr:
                return m, head
            if head not in mod.imports:
                return None
            source, head = mod.imports[head]
            if source is None and head in modules:  # from . import <submodule>
                if not attr:
                    return None
                source, head, attr = head, attr, ""
            m = source or "__init__"
        return None

    exports = next(
        ast.literal_eval(node.value)
        for node in ast.parse((src / "__init__.py").read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS"
    )
    owner = {name: module for module, names in exports.items() for name in names}
    # (module, name loaded there) pairs, starting from the three roots
    todo = [("cli", name) for name in modules["cli"].defs]
    todo += [(m, name) for m, mod in modules.items() for name in mod.defs if name.startswith("__")]
    todo += [(owner[name[3:]], name[3:]) for name in loaded_names(ast.parse(gate.read_text()))
             if name.startswith("ms.") and name[3:] in owner]
    todo += [(m, name) for m, mod in modules.items() for node in mod.top for name in loaded_names(node)]
    reached = set()
    while todo:
        target = resolve(*todo.pop())
        if target and target not in reached:
            reached.add(target)
            m, name = target
            todo += [(m, n) for n in loaded_names(modules[m].defs[name])]
    return [f"{m}.{name}" for m, mod in modules.items() for name in mod.defs if (m, name) not in reached]


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "morsespec"
    gate = Path(sys.argv[2]) if len(sys.argv) > 2 else ROOT / "tests" / "test_acceptance.py"
    names = unreached(src, gate)
    print("\n".join(names), end="\n" if names else "")
    sys.exit(1 if names else 0)
