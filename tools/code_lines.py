"""Count the code lines of Python sources: lines that hold part of a
statement, skipping blank lines, comments and docstrings.

A line counts when a token other than a comment or a line break starts
on it or spans it, so every line of a multi-line expression or string
counts. Docstrings (the leading string of a module, class or function)
are found with ``ast`` and skipped whole.

Usage: python3 tools/code_lines.py [PATH ...]   (default: src)
Prints the total over every ``*.py`` file under the given paths.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one Python source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _sources(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in _sources(paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
