"""scripts/peak_phase.py: it runs a grid and wraps calls that still exist."""

import importlib.util
import json
import re
import subprocess
import sys

from conftest import FIXTURE_CSV, REPO, SCHEMA

SCRIPT = REPO / "scripts" / "peak_phase.py"
_spec = importlib.util.spec_from_file_location("peak_phase", SCRIPT)
peak_phase = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_phase)

TINY = {
    "dataset": str(FIXTURE_CSV),
    "schema": dict(SCHEMA),
    "classifiers": ["knn", "svm_rbf"],
    "n_synthetic": 40,
    "hyperparams": {
        "gmm": {"n_components": 2}, "vae": {"epochs": 3},
        "gan": {"pretrain_epochs": 2, "epochs": 3}, "svm_rbf": {"C": 1.0, "gamma": 0.5},
    },
}
RISE = re.compile(r"^\+ *\d+\.\d\d MiB -> +\d+\.\d\d MiB  (\w+\.\w+)\(")


def test_every_printed_rise_names_a_wrapped_call(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(TINY))
    proc = subprocess.run([sys.executable, str(SCRIPT), str(config), "--seeds", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("peak before the run: ")
    assert lines[-2].startswith("wrote 2 run(s) to ")
    assert lines[-1].startswith("peak after the run: ")
    wrapped = {f"{m.__name__.rsplit('.', 1)[-1]}.{name}" for m, name in peak_phase.WRAPPED}
    for line in lines[1:-2]:
        assert RISE.match(line) and RISE.match(line)[1] in wrapped, line
