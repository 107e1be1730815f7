"""Count the code lines of each module of the library.

    python3 tools/code_lines.py [DIR ...]

A code line is a source line that holds part of a statement: blank lines,
comment lines and the lines of module, class and function docstrings do
not count.  A line that holds code and a trailing comment counts once, and
every line of a statement spread over several lines counts.  Other string
literals count as code.  One line per module (default: ``src/qsprox``),
then the total; compare two checkouts by running it in each.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="*", type=Path,
                    default=[ROOT / "src" / "qsprox"])
    args = ap.parse_args(argv)
    total = 0
    for d in args.dirs:
        for path in sorted(d.glob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
