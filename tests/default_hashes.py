"""sha256 of the outputs of the nine default scenario configs.

Runs every kind that ``stabsim list-scenarios`` names with its
``show-config`` default config and ``--workers 2`` in a temporary
directory, and prints the sha256 of its ``result.csv`` and
``summary.json``. A refactor that is meant to change no number must leave
all of them as they were:

    python tests/default_hashes.py           # print the values
    python tests/default_hashes.py --check   # exit 1 unless they equal
                                             # tests/golden/default_sha256.json

The bytes depend on the numpy / BLAS build, so the recorded values hold
only on the build that wrote them. Pytest does not collect this file.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "default_sha256.json")
OUTPUTS = ("result.csv", "summary.json")


def _stabsim(*args: str, cwd: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "stabsim.cli", *args], cwd=cwd, env=env,
                          check=True, capture_output=True, text=True)
    return done.stdout


def default_hashes() -> dict:
    """kind -> {output file name -> sha256 hex digest}."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        kinds = [line.split()[0] for line in _stabsim("list-scenarios", cwd=tmp).splitlines()
                 if line.strip()]
        for kind in kinds:
            config = os.path.join(tmp, f"{kind}.json")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(_stabsim("show-config", kind, cwd=tmp))
            out = os.path.join(tmp, kind)
            _stabsim("run", config, "--out", out, "--workers", "2", cwd=tmp)
            hashes[kind] = {}
            for name in OUTPUTS:
                with open(os.path.join(out, name), "rb") as fh:
                    hashes[kind][name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {os.path.relpath(GOLDEN, ROOT)}; exit 1 on a mismatch")
    args = parser.parse_args()
    hashes = default_hashes()
    expected = {}
    if args.check:
        with open(GOLDEN, encoding="utf-8") as fh:
            expected = json.load(fh)
    mismatches = 0
    for kind, files in hashes.items():
        for name, digest in files.items():
            want = expected.get(kind, {}).get(name, digest)
            mark = "" if want == digest else f"  MISMATCH, expected {want}"
            mismatches += bool(mark)
            print(f"{kind:22} {name:13} {digest}{mark}")
    if args.check and set(expected) != set(hashes):
        print(f"kinds differ: recorded {sorted(expected)}, run {sorted(hashes)}")
        mismatches += 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
