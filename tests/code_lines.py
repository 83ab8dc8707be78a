"""Count the lines of the package source by kind: code, docstring, comment
and blank, per module and in total.

    python tests/code_lines.py [DIRECTORY]

DIRECTORY defaults to src/icewatch. A docstring line is any line of a
module, class or function docstring, blank ones included. Outside
docstrings, a blank line holds only whitespace and a comment line only a
comment; every other line is code.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of each kind in `source`."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        kind = "docstring" if number in docstring else "blank" if not text else "comment" if text[0] == "#" else "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> None:
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "icewatch"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in sorted(directory.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}{sum(counts.values()):>7}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    print(f"{'total':<16}{sum(total.values()):>7,}" + "".join(f"{total[kind]:>11,}" for kind in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
