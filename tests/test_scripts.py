import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_paper_grids_run_every_axis(tmp_path):
    """One iteration per grid point: every flag and ablation axis the
    script passes to the CLI must still parse and run."""
    spec = importlib.util.spec_from_file_location(
        "run_paper_grids", SCRIPTS / "run_paper_grids.py")
    grids = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grids)
    assert grids.run(tmp_path, 1, iterations=1) == 0
    for axis in grids.AXES:
        assert (tmp_path / axis / f"{axis}_table.csv").exists()
