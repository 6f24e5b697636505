"""Count the lines of the package source, one rule for every count.

For each file of src/traitclust (or of the directory given) and in total,
prints the line count that ``wc -l`` gives and the code lines: those that
are not blank, not a ``#`` comment and not part of a module, class or
function docstring (found with ``ast``).

    python3 scripts/src_lines.py
    python3 scripts/src_lines.py path/to/other/src/traitclust
"""

import argparse
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "traitclust"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(wc -l, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    code = sum(1 for no, line in enumerate(text.splitlines(), start=1)
               if line.strip() and not line.lstrip().startswith("#") and no not in docs)
    return text.count("\n"), code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", type=Path, default=PACKAGE)
    args = ap.parse_args()
    total_wc = total_code = 0
    print(f"{'wc -l':>6} {'code':>6}  file")
    for path in sorted(args.directory.glob("*.py")):
        wc, code = count(path)
        total_wc += wc
        total_code += code
        print(f"{wc:>6} {code:>6}  {path.name}")
    print(f"{total_wc:>6} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
