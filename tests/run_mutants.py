"""Check that the test suite kills every mutant in ``tests/mutants.json``.

Usage, from the root of a checkout::

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py NAME ...   # the named ones

Each catalogue entry names a file, a snippet that must occur in it exactly
once, the snippet's replacement and the pytest arguments expected to fail.
The script copies ``src/`` and ``tests/`` to a temporary directory once;
for each mutant it writes the mutated file there, runs its tests on the copy
with ``PYTHONPATH`` set to the copy's ``src/``, and restores the file. A
mutant is killed when pytest reports failed tests (exit code 1). The script
exits 1 when a snippet does not occur exactly once, when a mutant survives,
or when its tests cannot run (any other exit code), so a refactor has to
re-anchor its mutants rather than lose them. pytest does not collect this
file: its name does not start with ``test_``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tests" / "mutants.json"


def run_pytest(copy: Path, args) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    mutants = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        # The copy's package must be the one imported, not an installed one.
        where = subprocess.run([sys.executable, "-c", "import cotrack; print(cotrack.__file__)"],
                               cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                               capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            print(f"cotrack imports from {where}, not from the copy", file=sys.stderr)
            return 2
        for m in mutants:
            if names and m["name"] not in names:
                continue
            path = copy / m["file"]
            source = path.read_text(encoding="utf-8")
            count = source.count(m["snippet"])
            if count != 1:
                verdict = f"STALE: its snippet occurs {count} times in {m['file']}"
            else:
                path.write_text(source.replace(m["snippet"], m["replacement"]), encoding="utf-8")
                start = time.monotonic()
                try:
                    code = run_pytest(copy, m["tests"])
                finally:
                    path.write_text(source, encoding="utf-8")
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR: pytest exit code {code}")
                verdict += f" ({time.monotonic() - start:.1f} s)"
            print(f"{m['name']}: {verdict}", flush=True)
            if not verdict.startswith("killed"):
                bad.append(m["name"])
    print(f"{len(bad)} of the checked mutants not killed: {bad}" if bad
          else "every checked mutant killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
