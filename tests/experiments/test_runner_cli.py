"""The flag contract the two runner CLIs share.

``scripts/run_experiments.py`` and ``scripts/run_sweep.py`` take the
same execution flags; each case here runs against both scripts, loaded
from ``scripts/`` and driven through their ``parse_args(argv)``.  One
more case checks that ``run_experiments.py``'s Table 1 reads the same
cached programs the simulator builds.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.simulator import Simulator
from repro.core.workloads import workload_benchmarks
from repro.program import program_for

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


def test_legacy_positional_cycles():
    cli = CLIS["run_experiments"]
    assert cli.parse_args(["5000"]).cycles == 5000
    assert cli.parse_args(["5000", "--cycles", "7000"]).cycles == 7000


@runner
def test_backend_flag_is_rejected(name, capsys):
    err = parse_error(name, ["--backend=reference"], capsys)
    assert "unrecognized arguments: --backend=reference" in err


def test_table1_and_a_machine_generate_each_program_once():
    # Table 1 covers all twelve benchmarks; a 2_MIX (Figure 2) machine
    # then needs gzip and twolf again, which must be cache hits.
    program_for.cache_clear()
    CLIS["run_experiments"].table1_rows()
    Simulator(workload_benchmarks("2_MIX"), config=DEFAULT_CONFIG)
    assert program_for.cache_info().misses == 12
