"""``tools/src_lines.py`` tells code lines from comment and docstring lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment line
X = """not a docstring,
but code"""


class A:
    """Class docstring."""

    def f(self):  # a trailing comment stays a code line
        """Function
        docstring."""
        return (1 +
                2)
'''


def test_counts_code_comment_and_docstring_lines():
    assert src_lines.count(SOURCE) == (6, 1, 5)


def test_totals_add_the_modules(capsys, tmp_path):
    (tmp_path / "module.py").write_text(SOURCE, encoding="utf-8")
    src_lines.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "code", "comment", "docstring"]
    rows = [line.split() for line in lines[1:]]
    assert rows[-1][0] == "total" and [row[0] for row in rows[:-1]] == ["module.py"]
    assert rows[-1][1:] == rows[0][1:] == ["6", "1", "5"]
