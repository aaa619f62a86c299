"""Code lines of each ``src/bosecool`` module, and their total.

Usage (from anywhere inside the repository):

    python3 tools/loc.py [REV]

With a git revision ``REV`` it prints, per module, REV's count (read
through ``git show``), the working tree's count and their difference; a
module missing on one side counts 0 there.

A code line is one that is not blank, not a comment alone, and not inside
a module, class or function docstring.  This is the rule behind the line
counts that ROADMAP.md and CHANGES.md quote.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bosecool"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``'s module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docs = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def rev_counts(rev: str) -> dict[str, int]:
    """Code lines of each module of ``src/bosecool`` at the git revision ``rev``."""
    names = git("ls-tree", "--name-only", rev, "src/bosecool/").split()
    return {
        Path(name).name: code_lines(git("show", f"{rev}:{name}"))
        for name in names
        if name.endswith(".py")
    }


def main(argv: list[str]) -> int:
    tree = {path.name: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    if not argv:
        for name, count in tree.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(tree.values()):6d}  total")
        return 0
    (rev,) = argv
    old = rev_counts(rev)
    print(f"{rev[:6]:>6}  {'tree':>6}  {'diff':>6}")
    for name in sorted(old.keys() | tree.keys()):
        a, b = old.get(name, 0), tree.get(name, 0)
        print(f"{a:6d}  {b:6d}  {b - a:+6d}  {name}")
    a, b = sum(old.values()), sum(tree.values())
    print(f"{a:6d}  {b:6d}  {b - a:+6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
