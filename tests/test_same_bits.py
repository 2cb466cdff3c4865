"""scripts/same_bits.py: the artifact comparison it reports on."""

import importlib.util

from conftest import REPO

_spec = importlib.util.spec_from_file_location("same_bits", REPO / "scripts" / "same_bits.py")
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_identical_trees_differ_only_in_run_meta(tmp_path):
    files = {"seed_0/report.md": "# r\n", "aggregate.csv": "a,b\n"}
    a = _tree(tmp_path / "a", dict(files, **{"seed_0/run_meta.json": "{\"t\": 1}"}))
    b = _tree(tmp_path / "b", dict(files, **{"seed_0/run_meta.json": "{\"t\": 2}"}))
    assert same_bits.differing_files(a, b) == []


def test_changed_and_one_sided_files_are_listed_sorted(tmp_path):
    a = _tree(tmp_path / "a", {"results.csv": "1\n", "only_a.csv": "x\n", "same.csv": "s\n"})
    b = _tree(tmp_path / "b", {"results.csv": "2\n", "seed_1/only_b.csv": "y\n",
                               "same.csv": "s\n"})
    assert same_bits.differing_files(a, b) == ["only_a.csv", "results.csv", "seed_1/only_b.csv"]
