"""Count the code, docstring and comment lines of each ``src/asefilt`` module.

A line is a docstring line when it lies in a module, class or function
docstring (found with :mod:`ast`), a comment line when it holds a comment
token and no other token, and a code line when it holds any other token
(found with :mod:`tokenize`); blank lines count as none of them.

    python tools/loc.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int, int]:
    """``(code, docstring, comment)`` line counts of one module's source."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                docstring.update(range(body[0].lineno, body[0].end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    return len(code), len(docstring), len(comment - code - docstring)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "asefilt"
    totals = [0, 0, 0]
    print(f"{'module':<16}{'code':>6}{'doc':>6}{'comment':>9}")
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.stem:<16}{counts[0]:>6}{counts[1]:>6}{counts[2]:>9}")
    print(f"{'total':<16}{totals[0]:>6}{totals[1]:>6}{totals[2]:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
