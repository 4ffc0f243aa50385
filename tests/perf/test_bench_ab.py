"""The A/B tool that compares the repository benchmark across revisions.

``scripts/bench_ab.py`` is loaded from ``scripts/`` and driven through
its ``main(argv)``.  Every test but the export check stubs the
function that runs one side (``run_once``), so none of them runs the
benchmark itself.
"""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
METRICS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}


def load_bench_ab():
    spec = importlib.util.spec_from_file_location(
        "bench_ab_cli", ROOT / "scripts" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_ab = load_bench_ab()


def result(correct=True, **values):
    """A result line carrying every end-to-end metric (1.0 by default)."""
    return {"correct": correct, "attempted": 12,
            "failed": 0 if correct else 1,
            "metrics": {name: {"value": values.get(name, 1.0),
                               "unit": metric["unit"]}
                        for name, metric in METRICS.items()}}


def run_ab(monkeypatch, capsys, answer, pairs=1):
    """``main`` with ``run_once`` answering ``answer(side, workload,
    pair)``; returns (exit code, report or None, stderr, calls)."""
    calls = []

    def run_once(tree, workload, seed, seconds, out):
        side = "head" if tree == bench_ab.ROOT else "base"
        calls.append((side, workload, seed))
        return answer(side, workload, seed)

    monkeypatch.setattr(bench_ab, "export", lambda base, dest: "f" * 40)
    monkeypatch.setattr(bench_ab, "run_once", run_once)
    code = bench_ab.main(["--base", "HEAD", "--pairs", str(pairs),
                          "--seconds", "1"])
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err, calls


def test_run_order_alternates_and_both_sides_get_the_pair_seed(
        monkeypatch, capsys):
    code, _, _, calls = run_ab(monkeypatch, capsys,
                               lambda side, workload, pair: result(),
                               pairs=3)
    assert code == 0
    expected = []
    for pair, order in enumerate((("base", "head"), ("head", "base"),
                                  ("base", "head"))):
        expected += [(side, workload, pair)
                     for workload in WORKLOADS for side in order]
    assert calls == expected


def test_medians_quartiles_and_wins_on_a_worked_example(monkeypatch,
                                                        capsys):
    values = {"base": {"wall_s": [3.0, 2.0, 4.0, 1.0],
                       "sim_kcycles_per_s": [10.0, 20.0, 30.0, 40.0]},
              "head": {"wall_s": [2.5, 2.5, 3.5, 1.5],
                       "sim_kcycles_per_s": [12.0, 18.0, 33.0, 40.0]}}

    def answer(side, workload, pair):
        return result(**{name: runs[pair]
                         for name, runs in values[side].items()})

    code, doc, _, _ = run_ab(monkeypatch, capsys, answer, pairs=4)
    assert code == 0 and doc["problems"] == []
    for workload in WORKLOADS:
        wall = doc["workloads"][workload]["wall_s"]
        assert wall["base"] == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                                "runs": [3.0, 2.0, 4.0, 1.0]}
        assert (wall["head"]["median"], wall["head"]["q1"],
                wall["head"]["q3"]) == (2.5, 2.25, 2.75)
        # Lower is better: the head wins pairs 0 and 2.
        assert wall["head_wins"] == 2
        speed = doc["workloads"][workload]["sim_kcycles_per_s"]
        assert (speed["base"]["median"], speed["base"]["q1"],
                speed["base"]["q3"]) == (25.0, 17.5, 32.5)
        assert (speed["head"]["median"], speed["head"]["q1"],
                speed["head"]["q3"]) == (25.5, 16.5, 34.75)
        # Higher is better, and the tie in pair 3 is no win.
        assert speed["head_wins"] == 2
        assert not wall["regressed"] and not speed["regressed"]


@pytest.mark.parametrize("name", ["wall_s", "sim_kcycles_per_s"])
@pytest.mark.parametrize("past, code", [(False, 0), (True, 1)],
                         ids=["inside", "past"])
def test_bound_edges(monkeypatch, capsys, name, past, code):
    metric = METRICS[name]
    margin = metric["bound"] + (0.01 if past else -0.01)
    worse = 1 + margin if metric["better"] == "lower" else 1 - margin
    base = 40.0

    def answer(side, workload, pair):
        return result(**{name: base * worse if side == "head" else base})

    got, doc, err, _ = run_ab(monkeypatch, capsys, answer, pairs=2)
    assert got == code
    for workload in WORKLOADS:
        assert doc["workloads"][workload][name]["regressed"] is past
    named = [problem for problem in doc["problems"] if name in problem]
    assert len(named) == (len(WORKLOADS) if past else 0)
    assert (f"FAILED {WORKLOADS[0]}: {name}" in err) is past


def test_incorrect_head_run_fails_but_incorrect_base_does_not(
        monkeypatch, capsys):
    code, doc, _, _ = run_ab(
        monkeypatch, capsys,
        lambda side, workload, pair: result(correct=side == "head"),
        pairs=2)
    assert code == 0 and doc["problems"] == []

    code, doc, err, _ = run_ab(
        monkeypatch, capsys,
        lambda side, workload, pair: result(
            correct=not (side == "head" and pair == 1
                         and workload == WORKLOADS[0])),
        pairs=2)
    assert code == 1
    assert doc["problems"] == [f"{WORKLOADS[0]}: head run of pair 1 is "
                               "not correct (1 of 12 outputs failed)"]
    assert "not correct" in err


def test_failed_run_exits_2_with_its_stderr(monkeypatch, capsys):
    def answer(side, workload, pair):
        raise bench_ab.RunFailed("mem-steady exited 1; stderr ends:\nboom")

    code, doc, err, calls = run_ab(monkeypatch, capsys, answer)
    assert code == 2 and doc is None
    assert "boom" in err
    assert len(calls) == 1


@pytest.mark.parametrize("script, why", [
    ("import sys; print('boom', file=sys.stderr); sys.exit(1)", "boom"),
    ("print('no json here')", "exited 0 without a result line"),
    ("print('{\"correct\": true, \"metrics\": {}}')",
     "exited 0 without a result line"),
], ids=["exit-1", "no-json", "missing-metrics"])
def test_run_once_rejects_a_run_without_a_result(tmp_path, script, why):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(script + "\n",
                                                   encoding="utf-8")
    with pytest.raises(bench_ab.RunFailed, match=why):
        bench_ab.run_once(tmp_path, WORKLOADS[0], 0, 1.0, tmp_path / "out")


def test_defaults_follow_benchmark_json(monkeypatch, capsys):
    args = bench_ab.parse_args(["--base", "HEAD~1"])
    assert (args.pairs, args.seconds) == (10, BENCHMARK["run_seconds"])
    _, doc, _, _ = run_ab(monkeypatch, capsys,
                          lambda side, workload, pair: result())
    assert list(doc["workloads"]) == WORKLOADS
    for workload in WORKLOADS:
        report = doc["workloads"][workload]
        assert list(report) == list(METRICS)
        for name, metric in METRICS.items():
            assert (report[name]["unit"], report[name]["better"],
                    report[name]["bound"]) \
                == (metric["unit"], metric["better"], metric["bound"])


@pytest.mark.parametrize("argv, message", [
    (["--base", "HEAD", "--pairs", "0"], "--pairs must be >= 1"),
    (["--base", "HEAD", "--seconds", "0"], "--seconds must be > 0"),
    ([], "--base"),
])
def test_invalid_flags_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        bench_ab.parse_args(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


needs_git = pytest.mark.skipif(
    not (ROOT / ".git").exists() or shutil.which("git") is None,
    reason="needs a git checkout")


@needs_git
def test_unknown_base_revision_exits_2(capsys):
    assert bench_ab.main(["--base", "no-such-revision"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "bench_ab: git rev-parse" in err


@needs_git
def test_export_overlays_this_trees_perfbench(tmp_path):
    dest = tmp_path / "base"
    commit = bench_ab.export("HEAD", dest)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert commit == head.stdout.strip()
    assert (dest / "src" / "repro" / "__init__.py").is_file()
    assert not (dest / "perfbench" / "out").exists()

    def files(tree):
        return {path.relative_to(tree): path.read_bytes()
                for path in tree.rglob("*") if path.is_file()
                and not {"out", "__pycache__"} & set(
                    path.relative_to(tree).parts)}

    assert files(dest / "perfbench") == files(ROOT / "perfbench")
