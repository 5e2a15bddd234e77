"""Compare this checkout's outcomes, memos and CLI bytes with another's.

For this checkout and for PARENT_DIR, each with its own ``src/`` on
``PYTHONPATH`` and every run in a fresh interpreter, it runs this checkout's
``tools/check/outcome_digest.py`` for seeds 1-3 (the outcome line and the memo
line) and ``python -m tautint.cli`` on each argument list of ``CLI_RUNS``:
``verify`` four times (CSV ``--n-max 10``, CSV ``--n-max 18 --hard``, text
``--n-max 10`` and JSON ``--n-max 8``), ``-h`` of the program and of each
subcommand, six usage errors, and ``psi`` six times (a 27-mark genus-0
monomial, a genus-1 value, two degree mismatches, one with a part beyond
``chr``'s range, 50 ones in genus 1 and a staircase refused as too costly),
and ``pullback`` five times, either side of the size up to which the orbit sum
skips its cost estimate (delta at 10 and 11 marks, delta0 at 21 and 22) and
delta at 139 marks, refused with its estimate in the message; and ``lambda2``
five times: ``--k 2,1`` by each ``--method`` (closed, eq5, eq3), ``--k 3,1,0
--method eq3 --json``, and ``--k 2,2``, refused for its degree.  A CLI run is
read as the md5 of its stdout and of its stderr with its exit code, under
``COLUMNS=80``, as argparse wraps at the terminal width.  It prints one row
per check, ``same`` or ``DIFFERENT``, and exits 1 on any difference.  Where
a seed's outcomes differ, it reruns that seed with ``--verbose`` on both
sides and prints how many outcome lines differ for each call, then the first
three differing lines from each side.  Where a seed's memos differ, it prints each side's entry
count per memo of ``psi._MEMOS`` for that seed::

    python3 tools/check/same_outcomes.py PARENT_DIR
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve()
DIGEST = HERE.with_name("outcome_digest.py")
CLI_RUNS = {
    "verify csv --n-max 10": ["verify", "--format", "csv", "--n-max", "10"],
    "verify csv --n-max 18 --hard": ["verify", "--format", "csv", "--n-max", "18", "--hard"],
    "verify text --n-max 10": ["verify", "--format", "text", "--n-max", "10"],
    "verify json --n-max 8": ["verify", "--format", "json", "--n-max", "8"],
    "tautint -h": ["-h"],
    **{f"{command} -h": [command, "-h"] for command in ("psi", "pullback", "lambda2", "verify")},
    "pullback --graph banana": ["pullback", "--graph", "banana"],
    "verify --n-max 13": ["verify", "--n-max", "13"],
    "verify --n-max 0": ["verify", "--n-max", "0"],
    "verify --n-max +2": ["verify", "--n-max", "+2"],
    "psi --genus x --k 1": ["psi", "--genus", "x", "--k", "1"],
    "lambda2 --k 2,+0": ["lambda2", "--k", "2,+0"],
    "psi 27 marks in genus 0": ["psi", "--genus", "0", "--k", "6,5,4,3,2,1,1,1,1" + ",0" * 18],
    "psi --genus 1 --k 2,1,0": ["psi", "--genus", "1", "--k", "2,1,0"],
    "psi --genus 0 --k 5,0,0": ["psi", "--genus", "0", "--k", "5,0,0"],
    "psi --genus 0 --k 2000000,0,0": ["psi", "--genus", "0", "--k", "2000000,0,0"],
    "psi 50 ones in genus 1": ["psi", "--genus", "1", "--k", ",".join("1" * 50)],
    "psi staircase 18..1, 156 zeros": ["psi", "--genus", "0", "--k", ",".join(map(str, range(18, 0, -1))) + ",0" * 156],
    "pullback delta 10 marks": ["pullback", "--graph", "delta", "--k", "2,2,2" + ",1" * 5 + ",0" * 2],
    "pullback delta 11 marks": ["pullback", "--graph", "delta", "--k", "3,2,2" + ",1" * 5 + ",0" * 3],
    "pullback delta0 21 marks": ["pullback", "--graph", "delta0", "--k", "5,4,3,2,2" + ",1" * 6 + ",0" * 10],
    "pullback delta0 22 marks": ["pullback", "--graph", "delta0", "--k", "5,4,3,3,2" + ",1" * 6 + ",0" * 11],
    "pullback delta 139 marks": ["pullback", "--graph", "delta", "--k",
                                 ",".join(["4"] * 15 + ["3"] * 15 + ["2"] * 15 + ["1"] * 5 + ["0"] * 89)],
    **{f"lambda2 --k 2,1 {method}": ["lambda2", "--k", "2,1", "--method", method]
       for method in ("closed", "eq5", "eq3")},
    "lambda2 --k 3,1,0 eq3 --json": ["lambda2", "--k", "3,1,0", "--method", "eq3", "--json"],
    "lambda2 --k 2,2": ["lambda2", "--k", "2,2"],
}


def run(checkout: pathlib.Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), COLUMNS="80")
    return subprocess.run([sys.executable, *args], env=env, cwd=checkout, capture_output=True, text=True)


def outcomes(checkout: pathlib.Path) -> dict[str, str]:
    # Each check's name -> what it printed, for one checkout.
    rows = {}
    for seed in (1, 2, 3):
        lines = run(checkout, [str(DIGEST), "--seed", str(seed)]).stdout.splitlines()
        lines += ["(no line)"] * (2 - len(lines))
        rows[f"seed {seed} outcomes"], rows[f"seed {seed} memos"] = lines[:2]
    for name, args in CLI_RUNS.items():
        done = run(checkout, ["-m", "tautint.cli", *args])
        out, err = (hashlib.md5(text.encode()).hexdigest() for text in (done.stdout, done.stderr))
        rows[name] = f"md5 {out} {err} exit {done.returncode}"
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


def memo_entries(mine: pathlib.Path, theirs: pathlib.Path, seed: int) -> None:
    # One seed's entry count per memo on both sides, as the digest's last line.
    for side, checkout in (("this", mine), ("parent", theirs)):
        lines = run(checkout, [str(DIGEST), "--seed", str(seed), "--entries"]).stdout.splitlines()
        print(f"{'':<30} {side:<10} {(lines or ['(no line)'])[-1]}")


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
            elif name.endswith(" memos"):
                memo_entries(here, parent, int(name.split()[1]))
    return int(mine != theirs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
