import importlib.util
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _compare_outputs(monkeypatch):
    # the script puts perfbench/ on sys.path and stops bytecode writes; undo both after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOLS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differences_name_the_json_keys_that_differ(monkeypatch, tmp_path):
    compare = _compare_outputs(monkeypatch)
    a, b = tmp_path / "a", tmp_path / "b"
    for side, m2, flag, extra in ((a, 0.5, False, {}), (b, 0.5000000000000001, True, {"new": 1})):
        side.mkdir()
        report = {"finite_depth": {"m2": m2, "p_disagree": 0.1}, "flags": [True, flag], **extra}
        (side / "simulate.json").write_text(json.dumps(report, sort_keys=True, indent=2))
        (side / "same.json").write_text('{"k": 1}')
        (side / "traces.csv").write_text(f"rep,root_C\n0,{m2}\n")
    (a / "parent_only.csv").write_text("x\n")
    assert compare.differences(a, b) == [
        "parent_only.csv only in one tree",
        "simulate.json: finite_depth.m2",
        "simulate.json: flags.1",
        "simulate.json: new",
        "traces.csv",
    ]
