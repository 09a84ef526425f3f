"""The package's public surface."""
import ast
import importlib
import json
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
        "render_csv",
        "render_json",
        "result_rows",
        "run_experiment",
        "run_trial",
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


# The benchmark's paper-k100 flags at seed 1 (bench/run.py), every flag
# explicit; a run parses them before its first trial.
PAPER_K100_ARGV = ["--protocol", "afsa", "--tags", "100", "--frame", "128",
                   "--seq-bits", "auto", "--trials", "500", "--max-rounds", "1000",
                   "--arrival-rate", "0.0", "--departure-prob", "0.0", "--format", "csv",
                   "--seed", "1"]


def _modules_after_importing_the_cli() -> list:
    # what a run has loaded by its first trial: the import, then the parse
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import afsasim.cli\n"
        f"afsasim.cli.parse_cli({PAPER_K100_ARGV!r})\n"
        "print(*sorted(sys.modules), sep='\\n')\n"
    )
    return subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True).stdout.split()


def test_importing_the_cli_loads_no_process_pool():
    # trials run in this process, so nothing may pull in a pool's modules
    loaded = [name for name in _modules_after_importing_the_cli()
              if name.partition(".")[0] in ("multiprocessing", "concurrent")]
    assert loaded == []


def test_importing_the_cli_loads_no_module_a_plain_run_does_not_use():
    # records are NamedTuples, so nothing loads dataclasses (and with it
    # inspect, ast and dis); statistics, decimal and fractions wait for the
    # calls that need them, which test_parse_cli_sweeps and the
    # run_experiment tests exercise.  The flags are read by a table, not by
    # argparse (which loads gettext and, on its first message, locale),
    # model.is_real imports numbers only for a value neither float nor int,
    # and the report imports csv only for a row its template cannot write.
    deferred = ("dataclasses", "inspect", "statistics", "decimal", "fractions",
                "argparse", "gettext", "locale", "numbers", "csv")
    assert [name for name in _modules_after_importing_the_cli() if name in deferred] == []


def test_importing_the_cli_loads_no_json():
    # a CSV report, the default, needs no json; a JSON report imports it
    assert "json" not in _modules_after_importing_the_cli()


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


# Every (module, attribute) pair that bench/gate.py imports to check each
# round's time; a missing one makes every benchmark run fail its gate.
BENCHMARK_GATE_IMPORTS = [
    ("analytic", "phase_durations_for"),
    ("model", "TimingModel"),
]


@pytest.mark.parametrize("module, attr", BENCHMARK_GATE_IMPORTS,
                         ids=[f"{m}.{a}" for m, a in BENCHMARK_GATE_IMPORTS])
def test_the_names_the_benchmark_gate_imports_exist(module, attr):
    assert hasattr(importlib.import_module(f"afsasim.{module}"), attr)


def _bench_tree(name: str) -> ast.Module:
    return ast.parse((SRC.parent / "bench" / name).read_text(encoding="utf-8"))


def test_the_lists_above_are_the_names_the_benchmark_uses():
    # every `tracer.patch(module, "attr", ...)` call in bench/child.py; in a
    # `for module in (...)` loop it patches each module the loop names
    loops = {node.target.id: [elt.id for elt in node.iter.elts]
             for node in ast.walk(_bench_tree("child.py"))
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)}
    patched = set()
    for node in ast.walk(_bench_tree("child.py")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "tracer"):
            module, attr = node.args[0].id, node.args[1].value
            patched.update((m, attr) for m in loops.get(module, [module]))
    assert patched == set(BENCHMARK_PATCHES)
    assert len(BENCHMARK_PATCHES) == len(set(BENCHMARK_PATCHES)) == 22
    # every `from afsasim.X import Y` in bench/gate.py
    imported = {(node.module.partition(".")[2], alias.name)
                for node in ast.walk(_bench_tree("gate.py"))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("afsasim.")
                for alias in node.names}
    assert imported == set(BENCHMARK_GATE_IMPORTS)


def _imported_but_unread(tree: ast.Module) -> set:
    # names bound by the module's top-level imports (those in a top-level
    # `if` too) that no expression in the module reads
    bound = set()
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.If):
            statements.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_no_module_imports_a_name_it_never_reads():
    # an unread import is dead code, unless bench/child.py wraps the name
    # in that module; today 8 names are kept for the benchmark alone
    dead = {}
    for path in sorted((SRC / "afsasim").glob("*.py")):
        if path.stem == "__init__":
            continue
        patched = {attr for module, attr in BENCHMARK_PATCHES if module == path.stem}
        unread = _imported_but_unread(ast.parse(path.read_text(encoding="utf-8"))) - patched
        if unread:
            dead[path.stem] = sorted(unread)
    assert dead == {}


@pytest.mark.parametrize("protocol, inventory, kernel", [
    ("afsa", "afsa.inventory", "afsa.round"),
    ("fsa", "baselines.fsa_inventory", "baselines.fsa_round"),
    ("edfsa", "baselines.edfsa_inventory", "baselines.fsa_round"),
])
def test_the_traced_benchmark_times_churn_on_every_gap(tmp_path, protocol, inventory, kernel):
    # bench/child.py times churn by wrapping the `between_rounds` keyword of
    # the inventory calls in `experiment`
    report, result = tmp_path / "report.json", tmp_path / "result.json"
    trials = 3
    cli_args = ["--protocol", protocol, "--tags", "30", "--frame", "16",
                "--trials", str(trials), "--arrival-rate", "1", "--departure-prob", "0.05",
                "--format", "json", "--out", str(report)]
    subprocess.run([sys.executable, "-I", str(SRC.parent / "bench" / "child.py"),
                    str(SRC), "trace", str(result), *cli_args], check=True)
    traced = json.loads(result.read_text(encoding="utf-8"))
    assert traced["exit_code"] == 0
    calls = {name: layer["calls"] for name, layer in traced["layers"].items()}
    rounds = sum(row["round"] for row in json.loads(report.read_text(encoding="utf-8")))
    assert calls[inventory] == trials
    assert calls[kernel] == rounds
    assert calls["experiment.churn"] == rounds - trials
