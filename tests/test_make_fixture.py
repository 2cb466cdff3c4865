"""scripts/make_fixture.py: rerunning it rewrites the committed fixture."""

import importlib.util

from conftest import FIXTURE_CSV, REPO

_spec = importlib.util.spec_from_file_location("make_fixture", REPO / "scripts" / "make_fixture.py")
make_fixture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixture)


def test_rerun_writes_the_committed_csv_byte_for_byte(tmp_path, monkeypatch):
    out = tmp_path / "social_ads_400.csv"
    monkeypatch.setattr(make_fixture, "OUT", out)
    make_fixture.main()
    assert out.read_bytes() == FIXTURE_CSV.read_bytes()
