"""The flag contract the two runner CLIs share, and the paper document.

``scripts/run_experiments.py`` and ``scripts/run_sweep.py`` take the
same execution flags; each case here runs against both scripts, loaded
from ``scripts/`` and driven through their ``parse_args(argv)``.  Both
plan each batch once: a cold run, a warm rerun and a ``--plan-only``
run each dedup, hash and cache-check their cells a single time, driven
in process through ``main(argv)``.  The remaining cases drive
``run_experiments.py``'s ``main(argv)``: its document is built from one
batch of cells, so nothing after that batch simulates, not even a cell
that failed in it.  One more case checks that its Table 1 reads the
same cached programs the simulator builds.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.campaign import manifest
from repro.core.config import DEFAULT_CONFIG
from repro.core.simulator import Simulator
from repro.core.workloads import workload_benchmarks
from repro.experiments import ExperimentSession
from repro.experiments.cache import ResultCache
from repro.program import program_for
from repro.resilience import FaultSpec, inject_faults

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def load_cli(name):
    spec = importlib.util.spec_from_file_location(
        f"{name}_cli", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLIS = {name: load_cli(name) for name in ("run_experiments", "run_sweep")}
STRICT_DEFAULT = {"run_experiments": True, "run_sweep": False}

runner = pytest.mark.parametrize("name", sorted(CLIS))

INVALID = [
    (["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["--retries", "-1"], "--retries must be >= 0, got -1"),
    (["--cell-timeout", "0"], "--cell-timeout must be > 0, got 0.0"),
    (["--no-cache", "--prune-cache", "3"],
     "--prune-cache is meaningless with --no-cache"),
    (["--prune-cache", "-1"], "--prune-cache must be >= 0, got -1"),
    (["--no-cache", "--verify-cache"],
     "--verify-cache is meaningless with --no-cache"),
    (["--no-cache", "--plan-only"], "--plan-only needs a --campaign-dir"),
    (["--no-cache", "--resume", "0123456789abcdef"],
     "--resume needs a --campaign-dir"),
]


def parse_error(name, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        CLIS[name].parse_args(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@runner
@pytest.mark.parametrize("argv, message", INVALID)
def test_invalid_flags_exit_2_with_their_message(name, argv, message,
                                                 capsys):
    assert message in parse_error(name, argv, capsys)


@runner
def test_campaign_dir_defaults_under_the_cache(name, tmp_path):
    args = CLIS[name].parse_args(["--cache-dir", str(tmp_path)])
    assert args.campaign_dir == str(tmp_path / "campaigns")
    assert CLIS[name].parse_args(["--no-cache"]).campaign_dir is None


@runner
def test_strict_default(name):
    cli = CLIS[name]
    assert cli.parse_args([]).strict is STRICT_DEFAULT[name]
    assert cli.parse_args(["--strict"]).strict is True
    assert cli.parse_args(["--no-strict"]).strict is False


@runner
def test_cycles_default_resolves(name):
    assert CLIS[name].parse_args([]).cycles == 20_000
    assert CLIS[name].parse_args(["--cycles", "700"]).cycles == 700


@runner
@pytest.mark.parametrize("flag",
                         ["--backend=reference", "--profile", "--log-json"])
def test_removed_flags_are_rejected(name, flag, capsys):
    assert f"unrecognized arguments: {flag}" \
        in parse_error(name, [flag], capsys)


PLAN_ONCE = {
    # argv selecting a small batch, and its distinct cell count
    "run_experiments": (["--only", "dist"], 4),
    "run_sweep": (["--axis", "ftq_depth=1,2"], 2),
}


@runner
def test_each_batch_is_planned_once(name, tmp_path, capsys, count_calls):
    # One plan per invocation: the campaign id is hashed once, each
    # distinct cell's cache entry is probed once, and the plan the CLI
    # printed is the one it persists (--plan-only) or executes.  A warm
    # rerun therefore reads every cell from disk and none from memo.
    selection, distinct = PLAN_ONCE[name]
    calls = count_calls((ExperimentSession, "plan"), (ResultCache, "get"),
                        (manifest, "campaign_id"))

    def invoke(cache, *extra):
        calls.clear()
        CLIS[name].main([*selection, "--cycles", "300", "--warmup", "100",
                         "--cache-dir", str(tmp_path / cache), *extra])
        assert calls == {"plan": 1, "campaign_id": 1, "get": distinct}
        out, err = capsys.readouterr()
        (line,) = [line for line in err.splitlines()
                   if line.startswith(f"[{name}] campaign ")
                   and "distinct cells" in line]
        return line.split()[2], out, err

    cid, out, _ = invoke("planned", "--plan-only")
    assert out == f"{cid}\n"
    cold_cid, _, err = invoke("cache")
    assert f"{distinct} cell(s) simulated, 0 memo hit(s), 0 disk hit(s)" \
        in err
    warm_cid, _, err = invoke("cache")
    assert f"0 cell(s) simulated, 0 memo hit(s), {distinct} disk hit(s)" \
        in err
    assert cold_cid == warm_cid == cid


def test_table1_and_a_machine_generate_each_program_once():
    # Table 1 covers all twelve benchmarks; a 2_MIX (Figure 2) machine
    # then needs gzip and twolf again, which must be cache hits.
    program_for.cache_clear()
    CLIS["run_experiments"].table1_rows()
    Simulator(workload_benchmarks("2_MIX"), config=DEFAULT_CONFIG)
    assert program_for.cache_info().misses == 12


TINY = ["--cycles", "300", "--warmup", "100", "--no-cache"]


def document(argv, capsys) -> tuple[str, str]:
    """``run_experiments.py``'s stdout and stderr for ``argv``."""
    CLIS["run_experiments"].main([*TINY, *argv])
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_document_reads_only_its_one_batch(capsys):
    # fig2's two cells are two of dist's four: four distinct cells run
    # once, and rendering either format re-reads none of them.
    for fmt in ("json", "md"):
        out, err = document(["--only", "fig2,dist", "--format", fmt],
                            capsys)
        assert "4 cell(s) simulated, 0 memo hit(s)" in err
    assert out.rstrip().endswith(
        "(4 cell(s) simulated, 0 memo hit(s))._")


@pytest.mark.parametrize("times", [100, 1], ids=["always", "once"])
def test_no_strict_run_never_reexecutes_a_failed_cell(times, tmp_path,
                                                      capsys):
    # One claims/dist cell fails its only attempt.  Whether or not a
    # second attempt would succeed, the run must not make one: both
    # sections that read the cell are skipped and the run is partial.
    cli = CLIS["run_experiments"]
    out = {}
    for fmt in ("json", "md"):
        with inject_faults(FaultSpec("raise", "2_MIX:gshare+BTB:ICOUNT.2.8:",
                                     times=times),
                           spool=tmp_path / fmt):
            with pytest.raises(SystemExit) as exc:
                document(["--only", "claims,dist", "--no-strict",
                          "--format", fmt], capsys)
        assert exc.value.code == 3
        out[fmt], err = capsys.readouterr()
        assert "1 cell(s) FAILED" in err
        assert "WARNING: 1 cell(s) failed after retries" in err
    doc = json.loads(out["json"])
    assert doc["meta"]["simulated"] == 84
    assert doc["meta"]["failed_cells"] == 1
    assert doc["meta"]["skipped_sections"] == ["claims", "dist"]
    assert doc["claims"] is None and doc["distributions"] is None
    md = out["md"]
    _, claims, dist = md.split("\n## ")
    assert claims.startswith("Quantitative claims")
    assert dist.startswith("Sections 3.1/3.2")
    assert cli.SKIPPED in claims and cli.SKIPPED in dist
    # The Markdown is a rendering of the same document.
    assert md.startswith(cli.render_markdown(doc)
                         + "\n_Total regeneration time: ")
