"""Line counts of the reconkit package, per module.

    python3 tools/loc.py [PACKAGE_DIR] [--base OTHER_DIR]

prints, for each module of PACKAGE_DIR (default src/reconkit next to this
script's parent), its total lines and its code lines, then the sums.  A code
line holds a token of the program: blank lines, comment lines and the lines
of module, class and function docstrings (found with ast) are not code.
With --base, two more columns give each count's change from the same
module of OTHER_DIR (say, a `git archive` of the parent commit's
src/reconkit); a module missing on one side counts as 0 lines there.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def counts(root: Path) -> dict[str, tuple[int, int]]:
    """Module file name -> (total lines, code lines), for one package."""
    return {path.name: count(path.read_text()) for path in sorted(root.glob("*.py"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default = Path(__file__).resolve().parent.parent / "src" / "reconkit"
    parser.add_argument("package", nargs="?", type=Path, default=default)
    parser.add_argument("--base", type=Path, help="package directory to compare against")
    args = parser.parse_args(argv)
    now = counts(args.package)
    base = counts(args.base) if args.base else {}
    header = ["module", "lines", "code"] + ["+lines", "+code"] * bool(args.base)
    rows = []
    for name in sorted(now.keys() | base.keys()):
        total, code = now.get(name, (0, 0))
        old_total, old_code = base.get(name, (0, 0))
        rows.append([name, total, code] + [total - old_total, code - old_code] * bool(args.base))
    rows.append(["total"] + [sum(column) for column in list(zip(*rows))[1:]])
    width = max(len(row[0]) for row in rows)
    print(f"{header[0]:<{width}}" + "".join(f"  {h:>6}" for h in header[1:]))
    for name, total, code, *change in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}" + "".join(f"  {d:>+6}" for d in change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
