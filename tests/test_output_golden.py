"""Golden bytes of `verify`: the md5 of stdout and the exit code in every format.

The digests pin the whole table, not only its values: column widths and
status words of text, indentation and key order of JSON, and the row layout
of CSV.  A refactor of the formatting has to leave every one of them intact.
"""

import csv
import hashlib
import io
import subprocess
import sys

import pytest

from tautint.cli import main

GOLDEN_MD5 = {
    (8, "csv"): "99e4f3fbf5f848064aef8dcd411e08f6",
    (8, "text"): "4a642d1eb4f9218ecdfbda533959d86d",
    (8, "json"): "9f1f47658724aac3fae539964760222d",
    (10, "csv"): "a58b446da85651e6c2d1b194b4462680",
    (10, "text"): "bfc4f07a1d2ea14a872ff2e0bbb1b0f4",
    (10, "json"): "70b531edbc45f42688d24dc3dbdcbd29",
    (12, "csv"): "e233f4833d5e33cbc43555eb54c805ca",
    (12, "text"): "41fa71739de777b05b50803e3f0ff78d",
    (12, "json"): "3bfbeb93e4f59e89b30d6d57b183a07a",
}


def verify_output(capsys, n_max, form):
    code = main(["verify", "--n-max", str(n_max), "--format", form])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("n_max, form", GOLDEN_MD5)
def test_verify_stdout_and_exit_code(capsys, n_max, form):
    code, out = verify_output(capsys, n_max, form)
    assert code == 0
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == GOLDEN_MD5[n_max, form]


def test_csv_needs_no_quoting(capsys):
    # Every field is a decimal integer, p/q, a+b+..., true/false or a column
    # name, so a plain comma join is what a CSV writer would write.
    code, out = verify_output(capsys, 10, "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [line.split(",") for line in out.splitlines()]


def test_import_pulls_in_no_csv():
    code = ("import sys; before = set(sys.modules); import tautint.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    # conftest puts src/ on PYTHONPATH, which the child inherits.
    imported = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True).stdout.split()
    assert "tautint.cli" in imported
    assert "csv" not in imported and "_csv" not in imported
