import importlib.util
from pathlib import Path

from hospgnn import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paper_grids_run_every_axis(tmp_path):
    """One iteration per grid point: every flag and ablation axis the
    script passes to the CLI must still parse and run."""
    grids = load_script("run_paper_grids")
    assert grids.run(tmp_path, 1, iterations=1) == 0
    for axis in grids.AXES:
        assert (tmp_path / axis / f"{axis}_table.csv").exists()


def test_desk_benchmark_flags_parse(tmp_path, monkeypatch):
    """Every flag the desk benchmark passes to the CLI must parse into a
    config, without running its 2000 iterations."""
    desk = load_script("run_desk_benchmark")
    calls = []

    def fake_main(argv):
        calls.append(argv)
        return 1

    monkeypatch.setattr(desk, "hospgnn_main", fake_main)
    assert desk.run(tmp_path, 1) == 1
    (argv,) = calls
    args = cli.make_parser().parse_args(argv)
    assert args.command == "train"
    cfg = cli.config_from_args(args, feature_dim=16)
    assert not cfg.model.use_encoder
    assert cfg.model.standardize_vertex and cfg.model.aggregate_self
