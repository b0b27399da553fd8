"""sha256 of the outputs of the nine default scenario configs.

Runs every kind that ``stabsim list-scenarios`` names with its
``show-config`` default config and ``--workers 2`` in a temporary
directory, and prints the sha256 of its ``result.csv`` and
``summary.json``. A refactor that is meant to change no number must leave
all of them as they were:

    python tests/default_hashes.py           # print the values
    python tests/default_hashes.py --check   # exit 1 unless they equal
                                             # tests/golden/default_sha256.json;
                                             # the last line names each kind/file
                                             # that moved
    python tests/default_hashes.py --write   # record them there

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
    golden = os.path.relpath(GOLDEN, ROOT)
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--check", action="store_true",
                        help=f"compare with {golden}; exit 1 on a mismatch")
    action.add_argument("--write", action="store_true", help=f"record the values in {golden}")
    args = parser.parse_args()
    hashes = default_hashes()
    expected = {}
    if args.check:
        with open(GOLDEN, encoding="utf-8") as fh:
            expected = json.load(fh)
    moved = []
    for kind, files in hashes.items():
        for name, digest in files.items():
            want = expected.get(kind, {}).get(name, digest)
            mark = "" if want == digest else f"  MISMATCH, expected {want}"
            if mark:
                moved.append(f"{kind}/{name}")
            print(f"{kind:22} {name:13} {digest}{mark}")
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(hashes, fh, indent=1)
            fh.write("\n")
        print(f"recorded in {golden}")
    if not args.check:
        return 0
    if set(expected) != set(hashes):
        print(f"kinds differ: recorded {sorted(expected)}, run {sorted(hashes)}")
        moved += sorted(set(expected) ^ set(hashes))
    print(f"moved: {', '.join(moved) or 'none'}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
