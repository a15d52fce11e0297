"""Print the size of the package source: physical lines and code lines.

Code lines are the lines that carry a Python token, less docstrings,
comments and blank lines.  Tokens come from `tokenize`; docstrings are the
leading string statements of modules, classes and functions, found with
`ast`.

    python tools/src_size.py              # this checkout's src/zxcliff
    python tools/src_size.py OTHER_DIR    # the *.py files in another package directory
    python tools/src_size.py DIR_A DIR_B  # each file's code lines in both, and B - A

A directory that holds ``src/zxcliff``, such as the root of a checkout,
stands for that package directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Set, Tuple

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) \
                    and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def file_size(text: str) -> Tuple[int, int]:
    """(physical lines, code lines) of one source file."""
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def _package(path: Path) -> Path:
    package = path / "src" / "zxcliff"
    return package if package.is_dir() else path


def _code_lines(root: Path) -> Dict[str, int]:
    return {path.name: file_size(path.read_text())[1] for path in sorted(root.glob("*.py"))}


def main(argv) -> None:
    if len(argv) > 2:
        a, b = (_code_lines(_package(Path(arg))) for arg in argv[1:3])
        for name in sorted(a.keys() | b.keys()):
            ca, cb = a.get(name, 0), b.get(name, 0)
            print(f"{name:20} {ca:6} {cb:6} {cb - ca:+6}")
        ta, tb = sum(a.values()), sum(b.values())
        print(f"{'total':20} {ta:6,} {tb:6,} {tb - ta:+6,}")
        return
    default = Path(__file__).resolve().parent.parent
    root = _package(Path(argv[1]) if len(argv) > 1 else default)
    physical = code = 0
    for path in sorted(root.glob("*.py")):
        p, c = file_size(path.read_text())
        print(f"{path.name:20} {p:6} {c:6}")
        physical += p
        code += c
    print(f"{'total':20} {physical:6,} {code:6,}")


if __name__ == "__main__":
    main(sys.argv)
