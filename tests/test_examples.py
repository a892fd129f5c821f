"""Smoke tests for the example scripts.

Every example must at least compile; the fast ones run end to end as
subprocesses (the slow embedding examples are exercised by their unit
tests instead - re-running full t-SNE here would double the suite time).
"""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))
FAST = {"churn_demo.py", "cluster_demo.py", "custom_simt_kernel.py",
        "gnn_edges_demo.py", "quickstart.py", "serving_demo.py",
        "streaming_updates.py"}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize(
    "path", [p for p in EXAMPLES if p.name in FAST], ids=lambda p: p.name
)
def test_fast_example_runs(path):
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example should print something"


def test_expected_examples_present():
    names = {p.name for p in EXAMPLES}
    assert {
        "quickstart.py",
        "strategy_crossover.py",
        "tsne_pipeline.py",
        "similarity_search.py",
        "custom_simt_kernel.py",
        "label_propagation.py",
        "serving_demo.py",
        "cluster_demo.py",
        "gnn_edges_demo.py",
    } <= names
