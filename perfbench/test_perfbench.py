"""Self-tests of the benchmark: metric coverage and the output check.

They run ``perfbench/run.py`` from the command line, in a subprocess,
at tiny windows (``--quick``), writing reports under a temporary
directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(tmp_path: Path, *args: str) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "5", "--quick",
         "--out", str(tmp_path / "out"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_appears_with_its_unit(tmp_path, workload,
                                                  trace):
    line, stderr = run_bench(tmp_path, "--workload", workload,
                             "--trace", str(trace))
    assert line["correct"], stderr
    assert line["attempted"] >= 1 and line["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        (trace_file,) = (tmp_path / "out").glob("trace-*.json")
        events = json.loads(trace_file.read_text())["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"cell", "core.build", "backend.warm", "backend.advance",
                "backend.result", "program.generate"} <= names
        if workload == "claims-regen":
            assert {"campaign.lease", "campaign.execute",
                    "campaign.ack"} <= names


def test_tampered_pinned_digest_fails_the_output_check(tmp_path):
    digests = tmp_path / "digests.json"
    args = ("--workload", "mem-steady", "--digests", str(digests))
    line, _ = run_bench(tmp_path, *args, "--write-digests")
    assert line["correct"]
    pins = json.loads(digests.read_text())
    (key,) = pins
    label = sorted(pins[key])[0]
    pins[key][label] = "0" * 16
    digests.write_text(json.dumps(pins))
    line, stderr = run_bench(tmp_path, *args)
    assert not line["correct"]
    assert line["failed"] == 1
    assert label in stderr
