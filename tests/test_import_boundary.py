"""The import boundary: packages resolve their public names on first
access, and a warm campaign rerun loads no simulator module.

Import-sensitive checks run in fresh interpreters, since this test
process has long since imported everything.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages whose ``__init__`` re-exports through a lazy name table.
LAZY_PACKAGES = ("repro", "repro.core", "repro.campaign", "repro.workloads",
                 "repro.obs", "repro.dvfs", "repro.power", "repro.analysis",
                 "repro.timing")

#: Modules only a simulation needs.
SIMULATOR_MODULES = ("repro.core.baseline", "repro.core.flywheel",
                     "repro.core.pipelined", "repro.workloads.generator",
                     "multiprocessing")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, env=env)


# ------------------------------------------------------ lazy export tables


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_resolves_to_its_defining_module(name):
    package = importlib.import_module(name)
    table = {export: module for module, exports in package._EXPORTS.items()
             for export in exports}
    assert set(table) <= set(package.__all__)
    for export in package.__all__:
        value = getattr(package, export)
        if export not in table:
            continue          # bound eagerly by the package itself
        module = importlib.import_module(table[export])
        assert getattr(module, export) is value, export
        defined_in = getattr(value, "__module__", None)
        if isinstance(defined_in, str) and defined_in.startswith("repro."):
            assert defined_in == table[export], export


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_dir_and_unknown_names(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")


def test_import_repro_loads_no_simulator():
    out = _python("import sys, repro\n"
                  "print(sorted(m for m in sys.modules\n"
                  "             if m.startswith('repro.core.')))\n")
    assert "repro.core.baseline" not in out.stdout
    assert "repro.core.sim" not in out.stdout


def test_cold_session_map_registers_and_runs_every_kind():
    # jobs=2 takes the worker-pool path, which imports the core classes
    # of the kinds it runs before forking.
    code = (
        "import sys\n"
        "from repro import MachineSpec, Session, kind_names\n"
        "kinds = ('baseline', 'pipelined_wakeup', 'flywheel')\n"
        "assert kind_names()[:3] == kinds, kind_names()\n"
        "specs = [MachineSpec(k, 'smoke', instructions=300, warmup=0)\n"
        "         for k in kinds]\n"
        "with Session(jobs=2) as session:\n"
        "    results = session.map(specs)\n"
        "assert session.executed == 3\n"
        "assert [r.kind for r in results] == list(kinds)\n"
        "assert all(r.stats.committed >= 300 for r in results)\n"
        "for module in ('baseline', 'pipelined', 'flywheel'):\n"
        "    assert f'repro.core.{module}' in sys.modules, module\n"
        "print('ok')\n")
    assert _python(code).stdout.strip() == "ok"


# ------------------------------------------------------------ warm reruns


_RUN = ("import sys\n"
        "from repro.campaign.__main__ import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('\\n'.join(sorted(sys.modules)), file=sys.stderr)\n")


def test_warm_rerun_loads_no_simulator_modules(tmp_path):
    args = ("run", "--experiments", "fig2", "--benchmarks", "gcc",
            "--instructions", "300", "--warmup", "0", "--quiet",
            "--store", str(tmp_path / "store"))
    cold = _python(_RUN, *args)
    assert re.search(r"0 from cache, (\d+) simulated", cold.stderr)
    warm = _python(_RUN, *args)
    summary = re.search(r"campaign: (\d+) jobs: (\d+) from cache, "
                        r"0 simulated", warm.stderr)
    assert summary and summary.group(1) == summary.group(2), warm.stderr
    assert "experiments ran" not in warm.stderr
    assert warm.stdout == cold.stdout
    loaded = set(warm.stderr.split())
    for module in SIMULATOR_MODULES:
        assert module not in loaded, module
    assert not any(m.startswith("repro.core.engine.turbo") for m in loaded)
