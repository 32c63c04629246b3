"""``tools/kernel_goldens.py`` is a gate: its exit code over the per-kernel pytest children."""

import json
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
FAILED = "tests/test_golden_outputs.py::test_report_bytes_match_pinned_hashes[csv]"


@pytest.fixture
def kernel_goldens(monkeypatch):
    sys.path.insert(0, TOOLS)
    try:
        import kernel_goldens

        monkeypatch.setattr(sys, "argv", ["kernel_goldens.py"])
        yield kernel_goldens
    finally:
        sys.path.remove(TOOLS)


@pytest.mark.parametrize(
    "children, code",
    [
        ({}, 0),  # every child passes every test
        ({"Prescott": (1, [FAILED])}, 1),  # a test fails or errors under one kernel
        ({None: (2, [])}, 1),  # a child does not finish a run: pytest was interrupted
    ],
)
def test_the_tool_exits_0_only_when_every_kernel_passes_every_test(kernel_goldens, monkeypatch,
                                                                    capsys, children, code):
    calls = []

    def run_kernel(kernel, args):
        calls.append((kernel, args))
        child_code, failed = children.get(kernel, (0, []))
        return child_code, {"passed": 44 - len(failed), "failed": failed}

    monkeypatch.setattr(kernel_goldens, "run_kernel", run_kernel)
    assert kernel_goldens.main() == code
    assert calls == [(kernel, ["-m", "kernel_pinned"]) for kernel in (None, "Haswell", "Prescott")]
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["default", "Haswell", "Prescott"]
    assert report["Prescott"]["failed"] == children.get("Prescott", (0, []))[1]
