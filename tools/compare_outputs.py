"""Check that two source trees give byte-identical CLI outputs on the benchmark's runs.

    python3 tools/compare_outputs.py PARENT CHANGE [--seeds 1,2,3]

PARENT and CHANGE are roots of source checkouts.  For each seed, every run
that ``perfbench/workloads.py`` makes for every workload goes through
``python -m rde_lab.cli`` once per tree, with that tree's ``src/`` on
PYTHONPATH, in a temporary directory.  The script prints each non-zero exit
code and each output file that differs (a file missing on one side counts),
a JSON file once per dotted key whose value differs (a float with both
values and their distance in ulps), and exits 1 if there
is any, else 0: every benchmark config exits 0, so a run that fails on both
trees fails the check too.  The runs come from the
``perfbench/`` of the checkout that holds this script, which is only read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, Run, make_runs  # noqa: E402


def run_cli(tree: Path, run: Run, out: Path) -> int:
    """Exit code of one run against ``tree``; its outputs land in ``out``."""
    out.mkdir(parents=True)
    (out / "config.json").write_text(json.dumps(run.config))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "rde_lab.cli", "--config", str(out / "config.json"), "--out", str(out), run.command]
    return subprocess.run(argv, cwd=out, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _leaves(value, path: str = "") -> dict[str, object]:
    """The scalar leaves of parsed JSON by dotted path; list items go by index."""
    if isinstance(value, list):
        value = dict(enumerate(value))
    if not isinstance(value, dict) or not value:
        return {path: value}
    return {
        leaf: v
        for key, item in value.items()
        for leaf, v in _leaves(item, f"{path}.{key}" if path else str(key)).items()
    }


def _json_keys(a: bytes, b: bytes) -> list[str]:
    """Dotted keys whose values differ between two JSON documents; where both
    values are finite floats, with both and their distance in ulps."""
    leaves_a, leaves_b = _leaves(json.loads(a)), _leaves(json.loads(b))
    missing = object()
    found = []
    for key in sorted(leaves_a.keys() | leaves_b.keys()):
        x, y = leaves_a.get(key, missing), leaves_b.get(key, missing)
        if repr(x) == repr(y):
            continue
        if all(isinstance(v, float) and math.isfinite(v) for v in (x, y)):
            key += f": {x!r} -> {y!r} ({abs(x - y) / math.ulp(min(abs(x), abs(y))):.3g} ulp)"
        found.append(key)
    return found


def differences(a: Path, b: Path) -> list[str]:
    """The files under a and b that differ or exist on one side only; a
    differing JSON file is named once per dotted key whose value differs."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    found = [f"{name} only in one tree" for name in sorted(names_a ^ names_b)]
    for name in sorted(names_a & names_b):
        bytes_a, bytes_b = (a / name).read_bytes(), (b / name).read_bytes()
        if bytes_a != bytes_b:
            keys = _json_keys(bytes_a, bytes_b) if name.suffix == ".json" else []
            found += [f"{name}: {key}" for key in keys] or [str(name)]
    return found


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "rde_lab" / "cli.py").is_file():
            ap.error(f"{tree} has no src/rde_lab/cli.py")
    runs = [(w, s, i, run) for s in map(int, args.seeds.split(",")) for w in WORKLOADS
            for i, run in enumerate(make_runs(w, s))]
    sides = ("parent", "change")
    flagged = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for workload, seed, i, run in runs:
            outs = [Path(tmp, side, workload, str(seed), str(i)) for side in sides]
            codes = [run_cli(tree, run, out) for tree, out in zip(trees, outs)]
            found = [f"exit code {code} on the {side} tree" for side, code in zip(sides, codes) if code]
            found += differences(*outs)
            where = f"{workload} seed {seed} {run.label} ({run.command})"
            for item in found:
                print(f"{where}: {item}")
            flagged += bool(found)
    print(f"{len(runs)} runs, {flagged} with differences or non-zero exits")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
