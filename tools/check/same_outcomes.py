"""Compare this checkout's outcomes, memos and ``verify`` bytes with another's.

For this checkout and for PARENT_DIR, each with its own ``src/`` on
``PYTHONPATH`` and every run in a fresh interpreter, it runs this checkout's
``tools/check/outcome_digest.py`` for seeds 1-3 (the outcome line and the memo
line) and ``python -m tautint.cli verify`` four times: CSV ``--n-max 10``, CSV
``--n-max 18 --hard``, text ``--n-max 10`` and JSON ``--n-max 8``.  A verify
run is read as the md5 of its stdout with its exit code.  It prints one row
per check, ``same`` or ``DIFFERENT``, and exits 1 on any difference::

    python3 tools/check/same_outcomes.py PARENT_DIR
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve()
DIGEST = HERE.with_name("outcome_digest.py")
VERIFY_RUNS = {
    "verify csv --n-max 10": ["--format", "csv", "--n-max", "10"],
    "verify csv --n-max 18 --hard": ["--format", "csv", "--n-max", "18", "--hard"],
    "verify text --n-max 10": ["--format", "text", "--n-max", "10"],
    "verify json --n-max 8": ["--format", "json", "--n-max", "8"],
}


def run(checkout: pathlib.Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=checkout, capture_output=True, text=True)


def outcomes(checkout: pathlib.Path) -> dict[str, str]:
    # Each check's name -> what it printed, for one checkout.
    rows = {}
    for seed in (1, 2, 3):
        lines = run(checkout, [str(DIGEST), "--seed", str(seed)]).stdout.splitlines()
        lines += ["(no line)"] * (2 - len(lines))
        rows[f"seed {seed} outcomes"], rows[f"seed {seed} memos"] = lines[:2]
    for name, args in VERIFY_RUNS.items():
        done = run(checkout, ["-m", "tautint.cli", "verify", *args])
        rows[name] = f"md5 {hashlib.md5(done.stdout.encode()).hexdigest()} exit {done.returncode}"
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (pathlib.Path(argv[0]) / "src/tautint").is_dir():
        sys.exit("usage: same_outcomes.py PARENT_DIR (a checkout with src/tautint)")
    mine, theirs = outcomes(HERE.parents[2]), outcomes(pathlib.Path(argv[0]).resolve())
    for name, value in mine.items():
        print(f"{name:<30} {'same' if value == theirs[name] else 'DIFFERENT':<10} {value}")
        if value != theirs[name]:
            print(f"{'':<30} {'parent':<10} {theirs[name]}")
    return int(mine != theirs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
