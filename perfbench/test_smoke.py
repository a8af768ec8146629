"""The benchmark's own test, on the smoke scale (a few seconds each).

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, untraced and traced, must pass its output checks and
emit exactly the metrics of ``BENCHMARK.json`` with their units.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def run_bench(cwd: pathlib.Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= (2 if trace else 3)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_children():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1],
             ["a", 6.0, 7.0, 0]]
    total, own, calls = tracing.span_times(spans)
    assert total["a"] == pytest.approx(5.0)
    assert own["a"] == pytest.approx(4.0)
    assert own["root"] == pytest.approx(5.0)
    assert calls["a"] == 2


def test_missing_traced_name_fails(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import stokesbem

    # the first name install() wraps, so nothing is wrapped before it fails
    monkeypatch.delattr(stokesbem, "run_simulation")
    with pytest.raises(AttributeError):
        tracing.Tracer().install()
