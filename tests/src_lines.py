"""Count the lines of code under src/: non-blank lines that hold more than
a comment and lie outside every docstring.

    python tests/src_lines.py [directory]

prints one "name<TAB>lines" line per module and a last "total<TAB>lines".
A docstring is the string that opens a module, class or function body
(found with ``ast``); every line it spans is left out, and so is any line
whose only tokens are comments (found with ``tokenize``).  Standard
library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that a line of code is not made of
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The numbers of the lines spanned by the module's docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token of code outside its
    docstrings."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(root)}\t{count}")
    print(f"total\t{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
