"""tools/harness.py, which the hand-run tools import first: its BLAS pin
holds only for a tool run as a script, and a `--src` without a spikebit
package exits 2."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import spikebit
from spikebit import model

TOOLS = Path(__file__).resolve().parents[1] / "tools"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def load_tool(monkeypatch):
    """Loads a tool as a module, with a fresh `harness`, as a script would;
    the modules it imports are forgotten after."""
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.delitem(sys.modules, "harness", raising=False)
    before = set(sys.modules)

    def load(name: str):
        spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield load
    for name in set(sys.modules) - before:
        del sys.modules[name]


@pytest.mark.parametrize("tool", ["abstep", "peak", "identity"])
def test_loading_a_tool_after_numpy_changes_no_blas_variable(tool, load_tool, monkeypatch):
    assert "numpy" in sys.modules
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    for var in BLAS_THREAD_VARS[1:]:
        monkeypatch.delenv(var, raising=False)
    load_tool(tool)
    assert {v: os.environ.get(v) for v in BLAS_THREAD_VARS} == {
        "OPENBLAS_NUM_THREADS": "7", "MKL_NUM_THREADS": None, "OMP_NUM_THREADS": None}


def test_import_tree_without_spikebit_exits_2_naming_the_directory(load_tool, tmp_path,
                                                                   capsys):
    harness = load_tool("harness")
    with pytest.raises(SystemExit) as exc:
        harness.import_tree(tmp_path)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: no spikebit package under {tmp_path}\n"


def test_machine_record_holds_each_trees_inference_workers(load_tool):
    record = load_tool("harness").machine(spikebit, spikebit)
    assert record["numpy"] == np.__version__
    assert record["infer_workers"] == [model._infer_workers()] * 2
