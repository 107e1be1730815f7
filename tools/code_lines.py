"""Count the code lines of each module of the library.

    python3 tools/code_lines.py [DIR ...] [--against REV]

A code line is a source line that holds part of a statement: blank lines,
comment lines and the lines of module, class and function docstrings do
not count.  A line that holds code and a trailing comment counts once, and
every line of a statement spread over several lines counts.  Other string
literals count as code.  One line per module (default: ``src/qsprox``),
then the total.

``--against REV`` reads each module of the same directories at git
revision REV (``git show REV:path``) and prints its count beside the
working tree's, a module missing on one side counting 0, and ends with
both totals and their difference.
"""

import argparse
import ast
import io
import subprocess
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


def git(*args) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def rev_counts(rev: str, d: Path) -> dict:
    """Code lines of each module of directory d at git revision rev."""
    rel = d.resolve().relative_to(ROOT).as_posix()
    names = git("ls-tree", "--name-only", rev, f"{rel}/").split()
    return {Path(name).name: code_lines(git("show", f"{rev}:{name}"))
            for name in names if name.endswith(".py")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="*", type=Path,
                    default=[ROOT / "src" / "qsprox"])
    ap.add_argument("--against", metavar="REV",
                    help="print each module's count at git revision REV too")
    args = ap.parse_args(argv)
    rows = []  # (module, count in the tree, count at REV)
    for d in args.dirs:
        counts = {path.name: code_lines(path.read_text())
                  for path in sorted(d.glob("*.py"))}
        old = rev_counts(args.against, d) if args.against else {}
        rows += [(name, counts.get(name, 0), old.get(name, 0))
                 for name in sorted(counts.keys() | old.keys())]
    total = sum(row[1] for row in rows)
    if not args.against:
        for name, count, _ in rows:
            print(f"{count:6d}  {name}")
        print(f"{total:6d}  total")
        return
    total_rev = sum(row[2] for row in rows)
    print(f"{args.against[:10]:>10}  {'tree':>6}  module")
    for name, count, count_rev in rows:
        print(f"{count_rev:10d}  {count:6d}  {name}")
    print(f"{total_rev:10d}  {total:6d}  total ({total - total_rev:+d})")


if __name__ == "__main__":
    main()
