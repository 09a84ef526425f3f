"""The package's public surface."""
import subprocess
import sys
from pathlib import Path

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
