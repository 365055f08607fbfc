"""tools/abstep.py's byte check: arrays that differ by one byte are named,
and a run whose trees' first steps differ says so and exits 1."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def abstep(monkeypatch):
    """The tool as a module; the trees it imports are forgotten after."""
    monkeypatch.syspath_prepend(str(TOOLS))  # as a script sees its own directory
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("abstep", TOOLS / "abstep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


def _flip_one_byte(a: np.ndarray) -> np.ndarray:
    b = a.copy()
    b.view(np.uint8).reshape(-1)[-1] ^= 1
    return b


def test_differences_name_the_arrays_one_byte_apart(abstep):
    a = {"logits": np.arange(6, dtype=np.float32).reshape(2, 3), "distillation logits": None,
         "gradient w": np.ones(4, np.float32)}
    b = dict(a, **{"gradient w": _flip_one_byte(a["gradient w"])})
    assert abstep.differences(a, dict(a)) == []
    assert abstep.differences(a, b) == ["gradient w"]
    assert abstep.differences(a, dict(a, logits=a["logits"].astype(np.float64))) == ["logits"]
    assert abstep.differences(a, dict(a, logits=a["logits"].reshape(3, 2))) == ["logits"]
    assert abstep.differences(a, dict(a, **{"distillation logits": a["logits"]})) == [
        "distillation logits"]
    assert abstep.differences(a, {"logits": a["logits"]}) == ["the parameter lists"]


def test_trees_whose_first_steps_differ_exit_1(abstep, monkeypatch, capsys):
    checked_step = abstep.Runner.checked_step

    def tree_b_one_byte_off(self):
        found = checked_step(self)
        if self.tree.model.__name__.startswith("spikebit_b."):
            name = "parameter head_cls.bias"
            found[name] = _flip_one_byte(found[name])
        return found

    monkeypatch.setattr(abstep.Runner, "checked_step", tree_b_one_byte_off)
    assert abstep.main(["--workload", "train_toy", "--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert "first steps DIFFER: parameter head_cls.bias\n" in out
    assert '"equal": false' in out
