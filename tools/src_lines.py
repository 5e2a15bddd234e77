"""Count the code, comment and docstring lines of each ``src/tautint`` module.

A code line holds a token that is neither a comment nor a docstring; a
comment line holds a comment and no code; a docstring line lies inside a
module, class or function docstring.  Blank lines count as none of these.

    python3 tools/src_lines.py [package-dir]
"""

import ast
import io
import pathlib
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int, int]:
    """(code, comment, docstring) line counts of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in LAYOUT and token.start[0] not in docstrings:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code), len(comments - code), len(docstrings)


def main(argv: list[str]) -> None:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parents[1] / "src/tautint"
    rows = [(path.name, count(path.read_text(encoding="utf-8"))) for path in sorted(root.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    print(f"{'module':<16}{'code':>6}{'comment':>9}{'docstring':>11}")
    for name, (code, comments, docstrings) in rows:
        print(f"{name:<16}{code:>6}{comments:>9}{docstrings:>11}")


if __name__ == "__main__":
    main(sys.argv[1:])
