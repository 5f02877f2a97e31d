"""Self-tests of the benchmark's counts.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does
not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from limcone import bulk, words  # noqa: E402
from limcone.reps import make_schottky, perturb, sym_power_embed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


@pytest.mark.parametrize("k,n_max", [(2, 10), (3, 6)])
def test_reduced_words_per_level(k, n_max):
    for n in range(1, n_max + 1):
        assert len(words.word_level_array(k, n)) == 2 * k * (2 * k - 1) ** (n - 1)


def test_class_multiplicities_are_periodic_point_counts():
    # tr A^n of the non-backtracking matrix of F_2 (eigenvalues 3, 1, 1, -1)
    for n in range(1, 13):
        _, mult = words.class_level_arrays(2, n)
        assert int(mult.sum()) == 3**n + 2 + (-1) ** n


def test_products_and_matrices_equal_enumerated_sizes():
    rep = perturb(sym_power_embed(make_schottky([2.0, 2.0], [0.0, np.pi / 2]), 3), 0.05, 11)
    tracer = Tracer()
    tracer.install()
    try:
        for op, call in enumerate((lambda: bulk.class_spectra(rep, 8),
                                   lambda: bulk.element_spectra(rep, 7))):
            tracer.op = op
            with tracer.span("op"):
                call()
    finally:
        tracer.uninstall()
    spans = [s.to_dict() for s in tracer.spans]
    classes = sum(len(words.class_level_arrays(2, n)[0]) for n in range(1, 9))
    m = layer_metrics(spans, [0])
    assert m["bulk.products"] == m["spectra.matrices"] == m["words.classes"] == classes
    elements = sum(words.count_words(2, n) for n in range(1, 8))
    m = layer_metrics(spans, [1])
    assert m["bulk.products"] == m["spectra.matrices"] == m["words.words"] == elements


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["scan", "dual"])
def test_counts_repeat_across_runs(workload):
    first, second = _traced_run(workload, 3), _traced_run(workload, 3)
    assert first["correct"] and second["correct"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts and any(counts.values())
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
