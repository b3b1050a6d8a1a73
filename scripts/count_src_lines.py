"""Count the lines of a source tree or of one file: all lines, and code
lines (neither blank, nor comment-only, nor part of a docstring).  A path
that does not exist is an error (exit 1).

    python scripts/count_src_lines.py src
    python scripts/count_src_lines.py src/morsespec/cli.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Lines of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(body, list)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(root: Path) -> tuple[int, int]:
    total = code = 0
    for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
        text = path.read_text()
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in NON_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(text.splitlines())
        code += len(lines - docstring_lines(ast.parse(text)))
    return total, code


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    if not root.exists():
        sys.exit(f"no such file or directory: {root}")
    total, code = count(root)
    print(f"{total} lines, {code} code lines")
