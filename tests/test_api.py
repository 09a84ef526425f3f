"""The package's public surface."""
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import afsasim

SRC = Path(__file__).resolve().parents[1] / "src"


def test_root_exports_what_a_caller_needs_to_run_and_report():
    assert sorted(afsasim.__all__) == [
        "AggregateStats",
        "COLUMNS",
        "ExperimentConfig",
        "ExperimentConfigError",
        "ExperimentResult",
        "InventoryResult",
        "TimingModel",
        "render_csv",
        "render_json",
        "result_rows",
        "run_experiment",
        "run_trial",
        "validate_experiment",
        "write_rows",
    ]


def test_every_exported_name_resolves():
    missing = [name for name in afsasim.__all__ if not hasattr(afsasim, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(afsasim.__all__) == len(set(afsasim.__all__))


def test_the_cli_imports_only_the_standard_library():
    # -I: no user site-packages, no PYTHONPATH, no current directory
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = {id(m) for m in sys.modules.values()}\n"
        "import afsasim.cli\n"
        # multiprocessing files __main__ again as __mp_main__: skip aliases
        "print(*sorted(name for name, m in sys.modules.items()\n"
        "              if id(m) not in before), sep='\\n')\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    added = out.split()
    assert "afsasim.cli" in added
    foreign = [name for name in added
               if name.partition(".")[0] not in sys.stdlib_module_names | {"afsasim"}]
    assert foreign == []


def test_importing_the_cli_loads_no_process_pool():
    # only a pooled run imports concurrent.futures, and multiprocessing with it
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import afsasim.cli\n"
        "print(*sorted(sys.modules), sep='\\n')\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    loaded = [name for name in out.split()
              if name.partition(".")[0] in ("multiprocessing", "concurrent")]
    assert loaded == []


# Every (module, attribute) pair that bench/child.py replaces with a timing
# wrapper, by the name it patches; a missing one makes a traced benchmark
# run raise AttributeError.
BENCHMARK_PATCHES = [
    ("cli", "parse_cli"),
    ("cli", "run_experiment"),
    ("cli", "result_rows"),
    ("cli", "write_rows"),
    ("report", "render_csv"),
    ("report", "render_json"),
    ("experiment", "run_trial"),
    ("experiment", "_aggregate"),
    ("experiment", "RngStream"),
    ("experiment", "make_population"),
    ("experiment", "run_afsa_inventory"),
    ("experiment", "run_fsa_inventory"),
    ("experiment", "run_edfsa_inventory"),
    ("afsa", "run_afsa_round"),
    ("afsa", "next_frame"),
    ("afsa", "phase_durations_for"),
    ("afsa", "active_count"),
    ("afsa", "estimate_backlog"),
    ("estimator", "optimal_seq_len"),
    ("baselines", "run_fsa_round"),
    ("baselines", "active_count"),
    ("baselines", "estimate_backlog"),
]


@pytest.mark.parametrize("module, attr", BENCHMARK_PATCHES,
                         ids=[f"{m}.{a}" for m, a in BENCHMARK_PATCHES])
def test_the_names_the_benchmark_wraps_exist(module, attr):
    assert hasattr(importlib.import_module(f"afsasim.{module}"), attr)
