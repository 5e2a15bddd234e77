"""Compare this checkout's outcomes, memos and ``verify`` bytes with another's.

For this checkout and for PARENT_DIR, each with its own ``src/`` on
``PYTHONPATH`` and every run in a fresh interpreter, it runs this checkout's
``tools/check/outcome_digest.py`` for seeds 1-3 (the outcome line and the memo
line) and ``python -m tautint.cli verify`` four times: CSV ``--n-max 10``, CSV
``--n-max 18 --hard``, text ``--n-max 10`` and JSON ``--n-max 8``.  A verify
run is read as the md5 of its stdout with its exit code.  It prints one row
per check, ``same`` or ``DIFFERENT``, and exits 1 on any difference.  Where a
seed's outcomes differ, it reruns that seed with ``--verbose`` on both sides
and prints how many outcome lines differ for each call, then the first three
differing lines from each side::

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


def differing_lines(mine: pathlib.Path, theirs: pathlib.Path, seed: int) -> None:
    # One seed's outcome lines (graph, call, exponents, outcome) on both
    # sides, compared in place; the digest lines at the end are left out.
    sides = [[line.split("\t") for line in run(checkout, [str(DIGEST), "--seed", str(seed),
                                                          "--verbose"]).stdout.splitlines()[:-2]]
             for checkout in (mine, theirs)]
    pairs = [(a, b) for a, b in zip(*sides) if a != b]
    counts = {call: sum(a[1] == call for a, _ in pairs) for call in dict.fromkeys(a[1] for a in sides[0])}
    print(f"{'':<30} {'lines':<10} " + ", ".join(f"{call} {count}" for call, count in counts.items()))
    for a, b in pairs[:3]:
        print(f"{'':<30} {'this':<10} {'  '.join(a)}")
        print(f"{'':<30} {'parent':<10} {'  '.join(b)}")


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (pathlib.Path(argv[0]) / "src/tautint").is_dir():
        sys.exit("usage: same_outcomes.py PARENT_DIR (a checkout with src/tautint)")
    here, parent = HERE.parents[2], pathlib.Path(argv[0]).resolve()
    mine, theirs = outcomes(here), outcomes(parent)
    for name, value in mine.items():
        print(f"{name:<30} {'same' if value == theirs[name] else 'DIFFERENT':<10} {value}")
        if value != theirs[name]:
            print(f"{'':<30} {'parent':<10} {theirs[name]}")
            if name.endswith(" outcomes"):
                differing_lines(here, parent, int(name.split()[1]))
    return int(mine != theirs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
