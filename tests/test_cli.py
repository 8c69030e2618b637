import dataclasses
import json
import typing

import numpy as np
import pytest

from hospgnn import losses
from hospgnn.cli import (
    CONFIG_KEYS,
    EPISODE_OPTIONS,
    MODEL_OPTIONS,
    TRAIN_OPTIONS,
    config_from_args,
    load_config_defaults,
    main,
    make_parser,
)
from hospgnn.data import load_dataset
from hospgnn.model import ModelConfig
from hospgnn.train import TrainConfig, load_checkpoint

from test_train import nan_valued_loss

FAST_MODEL = [
    "--layers", "2", "--hidden-dim", "8", "--encoder-dim", "8",
    "--metric-hidden", "8",
]
FAST_TRAIN = [
    "--n-way", "2", "--queries", "2", "--batch", "2",
    "--iterations", "2", "--eval-every", "2", "--eval-episodes", "2",
    "--learning-rate", "1e-3",
]


def synth(path, seed=1, classes=6, dim=8, per_class=12):
    rc = main(["synth", "--classes", str(classes),
               "--per-class", str(per_class),
               "--dim", str(dim), "--sep", "6", "--seed", str(seed),
               "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture()
def data_files(tmp_path):
    return {
        "train": synth(tmp_path / "train.emb", seed=1),
        "val": synth(tmp_path / "val.emb", seed=2, classes=4),
        "test": synth(tmp_path / "test.emb", seed=3, classes=4),
    }


def run_train(data_files, out_dir, extra=()):
    rc = main(["train",
               "--train", str(data_files["train"]),
               "--val", str(data_files["val"]),
               "--out-dir", str(out_dir),
               *FAST_MODEL, *FAST_TRAIN, "--seed", "5", *extra])
    assert rc == 0
    return out_dir


def file_in_the_way(tmp_path, where):
    """An existing file, and an --out-dir that is that file (``file``) or
    a directory under it (``under_file``)."""
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    return blocker, blocker if where == "file" else blocker / "sub"


class TestSynth:
    def test_writes_loadable_file(self, tmp_path):
        path = synth(tmp_path / "d.emb")
        ds = load_dataset(path, split="train")
        assert ds.dim == 8
        assert len(ds.classes) == 6
        assert len(ds) == 72

    def test_same_seed_byte_identical(self, tmp_path):
        a = synth(tmp_path / "a.emb", seed=9)
        b = synth(tmp_path / "b.emb", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = synth(tmp_path / "a.emb", seed=9)
        b = synth(tmp_path / "b.emb", seed=10)
        assert a.read_bytes() != b.read_bytes()

    def test_seed_flag_position_is_flexible(self, tmp_path):
        a = tmp_path / "a.emb"
        rc = main(["--seed", "4", "synth", "--classes", "2",
                   "--per-class", "3", "--dim", "2", "--out", str(a)])
        assert rc == 0
        b = tmp_path / "b.emb"
        rc = main(["synth", "--classes", "2", "--per-class", "3",
                   "--dim", "2", "--seed", "4", "--out", str(b)])
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_outputs_exist_and_parse(self, tmp_path, data_files):
        out = run_train(data_files, tmp_path / "run",
                        extra=["--test", str(data_files["test"])])
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) >= {"config", "best_iter", "test_acc", "test_ci"}
        assert 0.0 <= summary["test_acc"] <= 1.0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest=")
        assert lines[1] == "iter,loss,val_acc,val_ci"
        assert len(lines) == 3
        iteration, loss, acc, ci = lines[2].split(",")
        assert int(iteration) == 2
        assert np.isfinite(float(loss))
        assert 0.0 <= float(acc) <= 1.0
        assert float(ci) >= 0.0
        ck = load_checkpoint(out / "checkpoint.npz")
        assert ck.iteration == summary["best_iter"]

    def test_metrics_identical_across_reruns(self, tmp_path, data_files):
        a = run_train(data_files, tmp_path / "a")
        b = run_train(data_files, tmp_path / "b")
        assert (a / "metrics.csv").read_bytes() == \
               (b / "metrics.csv").read_bytes()
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        # output locations differ by design; every number must not
        sa["manifest"].pop("outputs")
        sb["manifest"].pop("outputs")
        assert sa == sb

    def test_dim_mismatch_is_data_error(self, tmp_path, data_files):
        wrong = synth(tmp_path / "wrong.emb", seed=4, dim=5)
        rc = main(["train", "--train", str(data_files["train"]),
                   "--val", str(wrong), *FAST_MODEL, *FAST_TRAIN,
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_missing_input_is_data_error(self, tmp_path, data_files):
        rc = main(["train", "--train", str(tmp_path / "absent.emb"),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_out_dir_blocked_by_file_is_data_error(self, tmp_path, data_files,
                                                   capsys, where):
        blocker, out = file_in_the_way(tmp_path, where)
        rc = main(["train", "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]), "--out-dir", str(out),
                   *FAST_MODEL, *FAST_TRAIN])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out) in err
        assert blocker.read_text() == "kept"


def test_results_do_not_depend_on_the_worker_count(tmp_path, capsys):
    # M = 80 episodes are one group each: every step and validation of
    # the run has two groups, which --workers 2 runs in two processes
    files = {split: synth(tmp_path / f"{split}.emb", seed=seed, classes=5,
                          per_class=16)
             for split, seed in (("train", 1), ("val", 2), ("test", 3))}
    runs, shown = [], []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        assert main(["train", "--train", str(files["train"]),
                     "--val", str(files["val"]), "--out-dir", str(out),
                     *FAST_MODEL, "--n-way", "5", "--k-shot", "1",
                     "--queries", "15", "--batch", "2", "--iterations", "3",
                     "--eval-every", "1", "--eval-episodes", "2",
                     "--seed", "5", "--workers", workers]) == 0
        runs.append(out)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                     "--data", str(files["test"]), "--episodes", "3",
                     "--workers", workers]) == 0
        shown.append(capsys.readouterr().out)
    one, two = runs
    assert (one / "metrics.csv").read_bytes() == \
        (two / "metrics.csv").read_bytes()
    a, b = (load_checkpoint(out / "checkpoint.npz") for out in runs)
    assert a.iteration == b.iteration and a.arrays.keys() == b.arrays.keys()
    for name in a.arrays:
        assert a.arrays[name].tobytes() == b.arrays[name].tobytes(), name
    assert shown[0] == shown[1] and shown[0].startswith("accuracy over 3 ")


def test_non_finite_loss_exits_3(tmp_path, data_files, monkeypatch, capsys):
    monkeypatch.setattr(losses, "total_loss",
                        nan_valued_loss(losses.total_loss))
    rc = main(["train", "--train", str(data_files["train"]),
               "--val", str(data_files["val"]),
               "--out-dir", str(tmp_path / "run"),
               *FAST_MODEL, *FAST_TRAIN, "--seed", "5", "--workers", "1"])
    assert rc == 3
    assert capsys.readouterr().err == \
        "numeric failure: non-finite loss nan at iteration 1\n"


class TestEval:
    def test_scores_checkpoint(self, tmp_path, data_files, capsys):
        out = run_train(data_files, tmp_path / "run")
        report = tmp_path / "eval.json"
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                   "--data", str(data_files["test"]),
                   "--episodes", "3", "--out", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["episodes"] == 3
        shown = capsys.readouterr().out
        assert "accuracy" in shown

    def test_missing_checkpoint_is_data_error(self, tmp_path, data_files):
        rc = main(["eval", "--checkpoint", str(tmp_path / "no.npz"),
                   "--data", str(data_files["test"])])
        assert rc == 2

    def test_dim_mismatch_is_data_error(self, tmp_path, data_files):
        out = run_train(data_files, tmp_path / "run")
        wrong = synth(tmp_path / "wrong.emb", seed=4, dim=5)
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                   "--data", str(wrong), "--episodes", "2"])
        assert rc == 2

    def test_version_1_checkpoint_is_data_error(self, tmp_path, data_files,
                                                capsys):
        path = run_train(data_files, tmp_path / "run") / "checkpoint.npz"
        with np.load(path) as raw:
            payload = {k: raw[k] for k in raw.files}
        meta = json.loads(bytes(payload["__meta__"]).decode())
        meta["version"] = 1
        payload["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                            dtype=np.uint8)
        np.savez(path, **payload)
        rc = main(["eval", "--checkpoint", str(path),
                   "--data", str(data_files["test"]), "--episodes", "2"])
        assert rc == 2
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["removed", "reshaped"])
    def test_damaged_parameter_is_data_error(self, tmp_path, data_files,
                                             capsys, damage):
        path = run_train(data_files, tmp_path / "run") / "checkpoint.npz"
        with np.load(path) as raw:
            payload = {k: raw[k] for k in raw.files}
        key = "param/layer0.vertex.w"
        if damage == "removed":
            del payload[key]
        else:
            payload[key] = payload[key][:-1]
        np.savez(path, **payload)
        rc = main(["eval", "--checkpoint", str(path),
                   "--data", str(data_files["test"]), "--episodes", "2"])
        assert rc == 2
        assert "parameter layer0.vertex.w" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["no_meta", "not_npz", "truncated",
                                        "meta_not_json", "npy_array"])
    def test_unreadable_checkpoint_is_data_error(self, tmp_path, data_files,
                                                 capsys, damage):
        path = run_train(data_files, tmp_path / "run") / "checkpoint.npz"
        with np.load(path) as raw:
            payload = {k: raw[k] for k in raw.files}
        if damage == "no_meta":
            del payload["__meta__"]
            np.savez(path, **payload)
        elif damage == "meta_not_json":
            payload["__meta__"] = np.frombuffer(b"{version: 2", dtype=np.uint8)
            np.savez(path, **payload)
        elif damage == "truncated":
            whole = path.read_bytes()
            path.write_bytes(whole[:len(whole) // 2])
        elif damage == "npy_array":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            path.write_text("iteration,loss\n1,0.5\n")
        rc = main(["eval", "--checkpoint", str(path),
                   "--data", str(data_files["test"]), "--episodes", "2"])
        assert rc == 2
        assert f"{path}: not a readable checkpoint" in capsys.readouterr().err


    @pytest.mark.parametrize("damage", ["directory", "not_utf8"])
    def test_unreadable_data_is_data_error(self, tmp_path, data_files,
                                           capsys, damage):
        out = run_train(data_files, tmp_path / "run")
        data = tmp_path / "data.emb"
        if damage == "directory":
            data.mkdir()
        else:
            data.write_bytes(b"HOSPEMB v1 dim=8 count=1\n\xff\xfe 1.0\n")
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.npz"),
                   "--data", str(data), "--episodes", "2"])
        assert rc == 2
        assert f"{data}: not a readable text file" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["iteration", "val_accuracy", "config",
                                        "unknown_config_key"])
    def test_checkpoint_meta_without_a_field_is_data_error(
            self, tmp_path, data_files, capsys, damage):
        path = run_train(data_files, tmp_path / "run") / "checkpoint.npz"
        with np.load(path) as raw:
            payload = {k: raw[k] for k in raw.files}
        meta = json.loads(bytes(payload["__meta__"]).decode())
        if damage == "unknown_config_key":
            meta["config"]["warmup"] = 10
        else:
            del meta[damage]
        payload["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                            dtype=np.uint8)
        np.savez(path, **payload)
        rc = main(["eval", "--checkpoint", str(path),
                   "--data", str(data_files["test"]), "--episodes", "2"])
        assert rc == 2
        assert (f"{path}: malformed checkpoint metadata"
                in capsys.readouterr().err)


class TestAblate:
    def test_layers_axis_writes_tables(self, tmp_path, data_files):
        out = tmp_path / "ab"
        rc = main(["ablate",
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--test", str(data_files["test"]),
                   "--axis", "layers", "--values", "1", "2",
                   "--out-dir", str(out),
                   *FAST_MODEL, *FAST_TRAIN, "--seed", "3"])
        assert rc == 0
        table = (out / "layers_table.txt").read_text()
        assert "# manifest=" in table
        rows = list((out / "layers_table.csv").read_text().splitlines())
        assert rows[1] == "axis,value,accuracy,ci,best_iter"
        values = [r.split(",")[1] for r in rows[2:]]
        assert values == ["1", "2"]

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_dim_mismatch_is_data_error(self, tmp_path, data_files, capsys,
                                        split):
        files = dict(data_files)
        files[split] = synth(tmp_path / "wrong.emb", seed=4, dim=5)
        out = tmp_path / "ab"
        rc = main(["ablate", "--train", str(files["train"]),
                   "--val", str(files["val"]), "--test", str(files["test"]),
                   "--axis", "layers", "--values", "1",
                   "--out-dir", str(out), *FAST_MODEL, *FAST_TRAIN])
        assert rc == 2
        assert "dimension mismatch" in capsys.readouterr().err
        assert not out.exists()   # refused before any training

    @pytest.mark.parametrize("axis, values", [
        ("layers", ["abc"]),
        ("structure_weight", ["x"]),
        ("layers", ["2", "0"]),
        ("variant", ["s", "q"]),
        ("label_fraction", ["0.5", "1.5"]),
    ])
    def test_bad_value_is_refused_before_any_run(self, tmp_path, data_files,
                                                 capsys, axis, values):
        out = tmp_path / "ab"
        rc = main(["ablate", "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--test", str(data_files["test"]),
                   "--axis", axis, "--values", *values,
                   "--out-dir", str(out), *FAST_MODEL, *FAST_TRAIN])
        assert rc == 1
        shown = capsys.readouterr()
        assert "config error" in shown.err
        assert f"{axis}=" not in shown.out   # no run reported
        assert not out.exists()

    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_out_dir_blocked_by_file_is_data_error(self, tmp_path, data_files,
                                                   capsys, where):
        blocker, out = file_in_the_way(tmp_path, where)
        rc = main(["ablate", "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--test", str(data_files["test"]),
                   "--axis", "layers", "--values", "1",
                   "--out-dir", str(out), *FAST_MODEL, *FAST_TRAIN])
        assert rc == 2
        shown = capsys.readouterr()
        assert shown.err.startswith("data error:") and str(out) in shown.err
        assert "layers=" not in shown.out   # refused before any run
        assert blocker.read_text() == "kept"

    def test_unknown_axis_is_usage_error(self, tmp_path, data_files):
        rc = main(["ablate",
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--test", str(data_files["test"]),
                   "--axis", "warmup", "--out-dir", str(tmp_path / "x")])
        assert rc == 1


class TestConfigFile:
    def test_config_sets_defaults_flags_override(self, tmp_path, data_files):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "variant": "rs",
            "iterations": 2,
            "eval_every": 2,
            "eval_episodes": 2,
            "n_way": 2,
            "queries": 2,
            "batch": 2,
            "layers": 2,
            "hidden_dim": 8,
            "encoder_dim": 8,
            "metric_hidden": 8,
            "seed": 5,
        }))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg_path),
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(out), "--layers", "1"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        model = summary["config"]["model"]
        assert model["channels"] == ["relative", "similar"]
        assert model["layers"] == 1   # flag beats config file
        assert summary["config"]["seed"] == 5

    def test_aggregation_and_metric_keys_reach_model(self, tmp_path,
                                                     data_files):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "iterations": 2,
            "eval_every": 2,
            "eval_episodes": 2,
            "n_way": 2,
            "queries": 2,
            "batch": 2,
            "layers": 1,
            "hidden_dim": 8,
            "encoder_dim": 8,
            "metric_hidden": 8,
            "metric_input": "absdiff",
            "aggregate_self": True,
        }))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg_path),
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(out)])
        assert rc == 0
        model = json.loads(
            (out / "summary.json").read_text())["config"]["model"]
        assert model["metric_input"] == "absdiff"
        assert model["aggregate_self"] is True

    def test_unknown_config_key_is_usage_error(self, tmp_path, data_files):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"warmup": 10}))
        rc = main(["train", "--config", str(cfg_path),
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1

    def test_missing_config_file_is_data_error(self, tmp_path, data_files):
        rc = main(["train", "--config", str(tmp_path / "no.json"),
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_config_directory_is_data_error(self, tmp_path, data_files,
                                            capsys):
        rc = main(["train", "--config", str(tmp_path),
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2
        assert f"config file {tmp_path}" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, data_files,
                                            capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_bytes(b'{"layers": "\xff"}')
        rc = main(["train", "--config", str(cfg_path),
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert f"config file {cfg_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("content, key", [
        ({"aggregate_self": "no"}, "aggregate_self"),
        ({"layers": 2.5}, "layers"),
        ({"layers": True}, "layers"),
        ({"learning_rate": "0.1"}, "learning_rate"),
        ({"eval_every": None}, "eval_every"),
        ({"variant": ["r"]}, "variant"),
        ({"channels": "rd"}, "channels"),
        ({"model": {"use_encoder": 0}}, "use_encoder"),
    ])
    def test_value_of_wrong_type_is_usage_error(self, tmp_path, data_files,
                                                capsys, content, key):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(content))
        rc = main(["train", "--config", str(cfg_path),
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert f"key {key!r}" in capsys.readouterr().err

    def test_non_object_model_is_usage_error(self, tmp_path, data_files):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"model": 3}))
        rc = main(["train", "--config", str(cfg_path),
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("key, value", [
        ("seed", 9), ("n_way", 3), ("workers", 2), ("iterations", 7),
    ])
    def test_model_object_takes_model_options_only(self, tmp_path, capsys,
                                                   key, value):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"model": {key: value}}))
        rc = main(TRAIN_ARGV + ["--config", str(cfg_path)])
        assert rc == 1
        assert f"key {key!r} in \"model\"" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        {"layers": 2, "model": {"layers": 4}},
        {"variant": "rd", "model": {"channels": ["relative"]}},
        {"batch": 2, "batch_episodes": 3},
    ])
    def test_option_set_twice_is_usage_error(self, tmp_path, capsys,
                                             content):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(content))
        rc = main(TRAIN_ARGV + ["--config", str(cfg_path)])
        assert rc == 1
        assert "both set" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"layers": 2, "layers": 4}', "layers"),
        ('{"model": {"hidden_dim": 8, "hidden_dim": 16}}', "hidden_dim"),
    ])
    def test_repeated_key_in_one_object_is_usage_error(self, tmp_path,
                                                       capsys, text, key):
        # raw text: json.dumps cannot write a repeated key
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text)
        rc = main(TRAIN_ARGV + ["--config", str(cfg_path)])
        assert rc == 1
        assert f"key {key!r} appears twice" in capsys.readouterr().err

    def test_abbreviated_config_flag_reads_the_file(self, tmp_path, capsys):
        # argparse accepts --conf for --config; the file must be read then
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"variant": "q"}))
        assert main(TRAIN_ARGV + ["--conf", str(path)]) == 1
        assert "unknown variant 'q'" in capsys.readouterr().err

    def test_ints_for_floats_and_null_target_accepted(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"learning_rate": 1,
                                        "target_accuracy": None}))
        cfg, _ = resolve(TRAIN_ARGV, cfg_path)
        assert cfg.learning_rate == 1.0
        assert cfg.target_accuracy is None


TRAIN_ARGV = ["train", "--train", "a", "--val", "b"]
ABLATE_ARGV = ["ablate", "--train", "a", "--val", "b", "--test", "c",
               "--axis", "layers"]

# every config-file key the parser accepts, each with a value that
# differs from the default and the flags that set the same value
CONFIG_KEY_FLAGS = {
    "seed": (7, ["--seed", "7"]),
    "workers": (2, ["--workers", "2"]),
    "n_way": (3, ["--n-way", "3"]),
    "k_shot": (2, ["--k-shot", "2"]),
    "n_query": (4, ["--queries", "4"]),
    "queries": (4, ["--queries", "4"]),
    "label_fraction": (0.5, ["--label-fraction", "0.5"]),
    "structure_weight": (0.01, ["--lambda", "0.01"]),
    "lambda": (0.01, ["--lambda", "0.01"]),
    "learning_rate": (0.002, ["--learning-rate", "0.002"]),
    "weight_decay": (0.0001, ["--weight-decay", "0.0001"]),
    "batch_episodes": (3, ["--batch", "3"]),
    "batch": (3, ["--batch", "3"]),
    "total_iterations": (7, ["--iterations", "7"]),
    "iterations": (7, ["--iterations", "7"]),
    "eval_every": (5, ["--eval-every", "5"]),
    "eval_episodes": (9, ["--eval-episodes", "9"]),
    "target_accuracy": (0.9, ["--target-accuracy", "0.9"]),
    "layers": (2, ["--layers", "2"]),
    "hidden_dim": (16, ["--hidden-dim", "16"]),
    "encoder_dim": (12, ["--encoder-dim", "12"]),
    "metric_hidden": (24, ["--metric-hidden", "24"]),
    "metric_input": ("absdiff", ["--metric-input", "absdiff"]),
    "aggregate_self": (True, ["--aggregate-self"]),
    "variant": ("rd", ["--variant", "rd"]),
    "precision": ("float32", ["--precision", "float32"]),
    "dtype": ("float32", ["--precision", "float32"]),
    "standardize_vertex": (True, ["--standardize-vertex"]),
    "use_encoder": (False, ["--no-encoder"]),
    "channels": (["relative", "dissimilar"], ["--variant", "rd"]),
}


def resolve(argv, config_path=None):
    """The run config and worker count main() would use for argv."""
    defaults = load_config_defaults(config_path) if config_path else None
    args = make_parser(defaults).parse_args(argv)
    return config_from_args(args, feature_dim=8), args.workers


class TestOptionSchema:
    @pytest.mark.parametrize("argv", [TRAIN_ARGV, ABLATE_ARGV],
                             ids=["train", "ablate"])
    def test_flag_defaults_are_the_dataclass_defaults(self, argv):
        args = make_parser().parse_args(argv)
        assert config_from_args(args, feature_dim=8) == \
            TrainConfig(model=ModelConfig(feature_dim=8))

    @pytest.mark.parametrize("key", sorted(CONFIG_KEY_FLAGS))
    def test_config_key_matches_its_flag(self, tmp_path, key):
        value, flags = CONFIG_KEY_FLAGS[key]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        by_file = resolve(TRAIN_ARGV, path)
        assert by_file == resolve(TRAIN_ARGV + flags)
        assert by_file != resolve(TRAIN_ARGV)

    def test_nested_model_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "seed": 3,
            "model": {"layers": 2, "channels": ["similar"],
                      "use_encoder": False},
        }))
        assert resolve(TRAIN_ARGV, path) == resolve(
            TRAIN_ARGV + ["--seed", "3", "--layers", "2", "--variant", "s",
                          "--no-encoder"])

    def test_no_config_key_added_or_removed(self):
        assert set(CONFIG_KEYS) == set(CONFIG_KEY_FLAGS)

    def test_every_config_field_is_an_option(self):
        # feature_dim comes from the data and seed has its own flag;
        # leaky_slope is fixed for runs (unit tests set it to make the
        # nets linear)
        model = [f.name for f in dataclasses.fields(ModelConfig)]
        assert sorted(model) == sorted(
            MODEL_OPTIONS + ("feature_dim", "leaky_slope"))
        run = [f.name for f in dataclasses.fields(TrainConfig)]
        assert sorted(run) == sorted(
            EPISODE_OPTIONS + TRAIN_OPTIONS + ("model", "seed"))

    @pytest.mark.parametrize("argv", [TRAIN_ARGV, ABLATE_ARGV],
                             ids=["train", "ablate"])
    def test_help_lists_no_removed_flag(self, capsys, argv):
        assert main([argv[0], "--help"]) == 0
        text = capsys.readouterr().out
        for flag in ("--metric-init", "--metric-bandwidth",
                     "--aggregate-normalize", "--readout-channel"):
            assert flag not in text

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_bool_flag_is_no_exactly_when_default_is_true(self, command):
        # a bool flag sets the value its default is not; if a default
        # flips, its flag must flip with it rather than silently switch
        # the option the other way
        configs = (ModelConfig, TrainConfig)
        kinds = {name: kind for cls in configs
                 for name, kind in typing.get_type_hints(cls).items()}
        defaults = {f.name: f.default for cls in configs
                    for f in dataclasses.fields(cls)}
        commands = next(a for a in make_parser()._actions
                        if a.dest == "command")
        actions = {a.dest: a for a in commands.choices[command]._actions}
        bools = [name for name in MODEL_OPTIONS + TRAIN_OPTIONS
                 + EPISODE_OPTIONS if kinds[name] is bool]
        assert "use_encoder" in bools and "aggregate_self" in bools
        for name in bools:
            action = actions[name]
            [flag] = action.option_strings
            assert flag.startswith("--no-") == defaults[name], flag
            assert action.default == defaults[name]
            assert action.const == (not defaults[name])

    def test_global_flags_before_the_command_beat_the_config(self,
                                                              tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 5, "workers": 3}))
        flags = ["--seed", "4", "--workers", "2"]
        for argv in (flags + TRAIN_ARGV, TRAIN_ARGV + flags):
            cfg, workers = resolve(argv, path)
            assert (cfg.seed, workers) == (4, 2)
        cfg, workers = resolve(TRAIN_ARGV, path)
        assert (cfg.seed, workers) == (5, 3)

    def test_unknown_channel_name_is_usage_error(self, tmp_path, data_files):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"channels": ["similar", "sim"]}))
        rc = main(["train", "--config", str(path),
                   "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--classses", "3"]) == 1

    def test_bad_variant_is_usage_error(self, tmp_path, data_files):
        rc = main(["train", "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]),
                   "--variant", "xyz", "--out-dir", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_bad_variant_names_the_allowed_spellings(self, tmp_path,
                                                     data_files, capsys,
                                                     where):
        extra = ["--variant", "xyz"]
        if where == "config":
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"variant": "xyz"}))
            extra = ["--config", str(path)]
        assert main(["train", "--train", str(data_files["train"]),
                     "--val", str(data_files["val"]),
                     "--out-dir", str(tmp_path / "x"), *extra]) == 1
        assert "letters from r/s/d" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_is_usage_error(self, tmp_path, data_files,
                                                  workers):
        rc = main(["train", "--train", str(data_files["train"]),
                   "--val", str(data_files["val"]), *FAST_MODEL, *FAST_TRAIN,
                   "--workers", workers, "--out-dir", str(tmp_path / "x")])
        assert rc == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out
