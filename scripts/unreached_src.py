"""List the top-level defs of the morsespec package, and the methods and
properties of its reached classes, that neither a command nor the
acceptance gate can reach, and exit 1 if there are any.

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

A member (a def in a reached class's body) is reached when reached code,
the gate included, loads an attribute of its name, whatever the object.
Dunders are called by Python, and so are the members that override a
name of a base class from outside the package (argparse calls
cli._Parser.error): both count as reached.  A reached member's body is
followed like a def's.
"""

import ast
import builtins
import importlib
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def walk(node: ast.AST):
    """node and every node under it, annotations left out."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for field, child in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(child, ast.AST):
                stack.append(child)
            elif isinstance(child, list):
                stack.extend(c for c in child if isinstance(c, ast.AST))


def loaded_names(node: ast.AST):
    """The names node loads when it runs, annotations left out."""
    for node in walk(node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"


def loaded_attributes(node: ast.AST) -> set[str]:
    """The attribute names node loads, of any object."""
    return {n.attr for n in walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


class Module:
    def __init__(self, path: Path) -> None:
        tree = ast.parse(path.read_text())
        self.defs = {node.name: node for node in tree.body if isinstance(node, DEFS)}
        # local name -> (submodule or None for the package, imported name)
        self.imports = {}
        # local name -> (module, imported name or None) of the imports from outside
        self.external = {}
        self.top = []  # the import-time statements
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.external[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    module = alias.name if alias.asname else alias.name.partition(".")[0]
                    self.external[alias.asname or module] = (module, None)
            elif not isinstance(node, DEFS):
                self.top.append(node)

    def external_base_names(self, cls: ast.ClassDef) -> set[str]:
        """The names that cls's bases from outside the package define."""
        out = set()
        for base in cls.bases:
            head, *path = ast.unparse(base).split(".")
            if head in self.defs or head in self.imports:
                continue
            module, name = self.external.get(head, (builtins.__name__, head))
            obj = importlib.import_module(module)
            for attr in ([name] if name else []) + path:
                obj = getattr(obj, attr)
            out.update(dir(obj))
        return out


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
    gate_tree = ast.parse(gate.read_text())
    # (module, name loaded there) pairs, starting from the three roots
    todo = [("cli", name) for name in modules["cli"].defs]
    todo += [(m, name) for m, mod in modules.items() for name in mod.defs if name.startswith("__")]
    todo += [(owner[name[3:]], name[3:]) for name in loaded_names(gate_tree)
             if name.startswith("ms.") and name[3:] in owner]
    code = [(m, node) for m, mod in modules.items() for node in mod.top]  # reached code to read
    attributes = loaded_attributes(gate_tree)  # the attribute names reached code loads
    waiting = defaultdict(list)  # attribute name -> members of reached classes it would reach
    reached = set()
    while todo or code:
        if code:
            m, node = code.pop()
            todo += [(m, name) for name in loaded_names(node)]
            for attr in loaded_attributes(node) - attributes:
                attributes.add(attr)
                for owner_m, key, member in waiting.pop(attr, []):
                    reached.add((owner_m, key))
                    code.append((owner_m, member))
            continue
        target = resolve(*todo.pop())
        if not target or target in reached:
            continue
        reached.add(target)
        m, name = target
        node = modules[m].defs[name]
        if not isinstance(node, ast.ClassDef):
            code.append((m, node))
            continue
        # the class body runs; each member's body runs once it is reached
        members = [stmt for stmt in node.body if isinstance(stmt, DEFS)]
        code += [(m, part) for part in (*node.bases, *node.keywords, *node.decorator_list)]
        code += [(m, stmt) for stmt in node.body if stmt not in members]
        called = modules[m].external_base_names(node)
        for member in members:
            key = f"{name}.{member.name}"
            if member.name.startswith("__") or member.name in called or member.name in attributes:
                reached.add((m, key))
                code.append((m, member))
            else:
                waiting[member.name].append((m, key, member))
    out = [f"{m}.{name}" for m, mod in modules.items() for name in mod.defs if (m, name) not in reached]
    out += sorted(f"{m}.{key}" for entries in waiting.values() for m, key, _ in entries)
    return out


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "morsespec"
    gate = Path(sys.argv[2]) if len(sys.argv) > 2 else ROOT / "tests" / "test_acceptance.py"
    names = unreached(src, gate)
    print("\n".join(names), end="\n" if names else "")
    sys.exit(1 if names else 0)
