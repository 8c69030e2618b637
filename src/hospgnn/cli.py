"""Command-line harness: synthesize data, train, evaluate, sweep.

Every command is deterministic given --seed. Exit codes: 0 success,
1 usage or config problem, 2 data problem, 3 numeric failure.

Results carry provenance: each run resolves its full config plus input
file fingerprints into a manifest whose hash is embedded in every
output file, so any table can be regenerated from its manifest.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import typing
from pathlib import Path

from . import __version__
from .data import load_dataset, synth_clusters, write_dataset
from .errors import ConfigError, DataError, NumericError
from .graph import parse_variant
from .model import FIELD_CHOICES, ModelConfig
from .train import (
    ABLATION_AXES,
    DEFAULT_AXIS_VALUES,
    TrainConfig,
    apply_axis,
    evaluate,
    evaluate_test,
    load_checkpoint,
    run_ablation,
    save_checkpoint,
    train,
)

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3


def _file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(cfg: TrainConfig, inputs, outputs, extra=None):
    manifest = {
        "tool": f"hospgnn {__version__}",
        "config": cfg.to_dict(),
        "inputs": {name: _file_sha256(p) for name, p in inputs.items()},
    }
    if extra:
        manifest.update(extra)
    # the hash pins what determines the numbers (tool, config, input
    # contents); output locations are recorded but excluded, so the same
    # run into two directories stamps identical files
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    manifest["manifest_hash"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    manifest["outputs"] = {name: str(p) for name, p in outputs.items()}
    return manifest


# Every run option is a field of the config that owns it; the field
# gives the flag's type and default, and FIELD_CHOICES its choices.
EPISODE_OPTIONS = ("n_way", "k_shot", "n_query", "label_fraction")
MODEL_OPTIONS = (
    "layers", "hidden_dim", "encoder_dim", "use_encoder", "metric_hidden",
    "metric_input", "aggregate_self", "channels", "standardize_vertex",
    "dtype",
)
TRAIN_OPTIONS = (
    "structure_weight", "learning_rate", "weight_decay", "batch_episodes",
    "total_iterations", "eval_every", "eval_episodes", "target_accuracy",
)

# flag spellings that differ from the field name; a config file accepts
# either spelling. channels are given as --variant letters (or a
# "channels" list)
FLAG_NAMES = {
    "n_query": "queries",
    "structure_weight": "lambda",
    "batch_episodes": "batch",
    "total_iterations": "iterations",
    "dtype": "precision",
    "channels": "variant",
}

FLAG_HELP = {
    "n_query": "queries per class",
    "aggregate_self": "append each vertex's own features to its aggregate",
    "channels": "enabled edge channels: full, or letters from r/s/d",
    "structure_weight": "structure loss weight",
    "batch_episodes": "episodes per optimizer step",
    "target_accuracy": "stop once validation accuracy reaches this",
}

# config-file key to option name
CONFIG_KEYS = {
    key: name
    for name in ("seed", "workers") + EPISODE_OPTIONS + MODEL_OPTIONS
    + TRAIN_OPTIONS
    for key in (name, FLAG_NAMES.get(name, name))
}


def _variant(text):
    """--variant's type: the channel tuple ``parse_variant`` reads, its
    error shown as the flag's usage error."""
    try:
        return parse_variant(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _option_schema():
    """Each config field's type and default, by field name."""
    configs = (ModelConfig, TrainConfig)
    kinds = {name: kind for cls in configs
             for name, kind in typing.get_type_hints(cls).items()}
    defaults = {f.name: f.default for cls in configs
                for f in dataclasses.fields(cls)}
    return kinds, defaults


def _add_run_flags(p):
    kinds, defaults = _option_schema()
    for name in EPISODE_OPTIONS + MODEL_OPTIONS + TRAIN_OPTIONS:
        kind, default = kinds[name], defaults[name]
        spelling = FLAG_NAMES.get(name, name)
        if kind is bool and default:
            # a bool flag sets the value its default is not, so an
            # option on by default is switched off: --no-encoder
            spelling = "no_" + spelling.removeprefix("use_")
        flag = "--" + spelling.replace("_", "-")
        help_text = FLAG_HELP.get(name)
        choices = FIELD_CHOICES.get(name)
        # usage shows the flag's spelling, not the field name
        metavar = None if choices else spelling.upper()
        if kind is bool:
            p.add_argument(flag, dest=name, default=default, help=help_text,
                           action="store_false" if default else "store_true")
        else:
            p.add_argument(flag, dest=name, default=default, help=help_text,
                           type={str: None, tuple: _variant}.get(kind, kind),
                           choices=choices, metavar=metavar)


def _fits(value, kind):
    """Whether a JSON value has an option's type. JSON true and false
    load as bools, which Python counts as ints; an int fits a float."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def load_config_defaults(path):
    """Read a JSON config file into argparse default overrides.

    Flags given on the command line still win: these only replace the
    parser defaults. Each value must have its option's type, or be null
    where the default is None; a nested "model" object holds model
    options only, and no option may be set twice, under either spelling,
    in both places or as a repeated key of one object. A violation is a
    config error naming the key.
    """

    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(
                    f"config file {path}: key {key!r} appears twice in "
                    f"one object")
            seen.add(key)
        return dict(pairs)

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"),
                         object_pairs_hook=unique_keys)
    except OSError as exc:
        raise DataError(f"config file {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    model_part = raw.get("model", {})
    if not isinstance(model_part, dict):
        raise ConfigError(f"config file {path}: \"model\" must be an object")
    for key in model_part:
        if CONFIG_KEYS.get(key) not in MODEL_OPTIONS:
            raise ConfigError(f"config file {path}: key {key!r} in "
                              f"\"model\" is not a model option")
    entries = [(key, value) for key, value in raw.items() if key != "model"]
    entries += model_part.items()

    kinds, field_defaults = _option_schema()
    kinds["workers"] = int
    defaults = {}
    key_for = {}
    for key, value in entries:
        name = CONFIG_KEYS.get(key)
        if name is None:
            raise ConfigError(f"config file {path}: unknown key {key!r}")
        if name in key_for:
            raise ConfigError(f"config file {path}: keys {key_for[name]!r} "
                              f"and {key!r} both set {name}")
        key_for[name] = key
        kind = {"variant": str, "channels": list}.get(key, kinds[name])
        nullable = field_defaults.get(name, 0) is None
        if not (_fits(value, kind) or value is None and nullable):
            raise ConfigError(f"config file {path}: key {key!r} must be "
                              f"{kind.__name__}, got {value!r}")
        if key == "variant":
            value = parse_variant(value)
        elif key == "channels":
            value = tuple(value)
        defaults[name] = value
    return defaults


def make_parser(config_defaults=None):
    # a config file's seed and workers are the top parser's defaults, so
    # a global flag given before the subcommand still wins over them
    config_defaults = dict(config_defaults or {})
    top = {key: config_defaults.pop(key)
           for key in ("seed", "workers") if key in config_defaults}
    parser = argparse.ArgumentParser(
        prog="hospgnn",
        description="Few-shot episode-graph classifier with relative-metric "
                    "edge channels.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="processes that share the episodes of each "
                             "training step and evaluation (default: the "
                             "usable cores); results do not depend on it")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file of config keys; flags win over it")
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p):
        # global flags are accepted after the subcommand as well;
        # SUPPRESS keeps them from clobbering a value parsed before it
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        p.add_argument("--workers", type=int, default=argparse.SUPPRESS)
        p.add_argument("--config", type=Path, default=argparse.SUPPRESS)
        p.set_defaults(**config_defaults)
        return p

    p = sub.add_parser("synth", help="write a synthetic embedding dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sep", type=float, default=6.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--out", type=Path, required=True)
    finish(p)

    p = sub.add_parser("train", help="train on embedding files")
    p.add_argument("--train", type=Path, required=True, dest="train_path")
    p.add_argument("--val", type=Path, required=True, dest="val_path")
    p.add_argument("--test", type=Path, default=None, dest="test_path")
    _add_run_flags(p)
    p.add_argument("--out-dir", type=Path, default=Path("run"))
    finish(p)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--episodes", type=int, default=600)
    p.add_argument("--out", type=Path, default=None,
                   help="optional JSON report path")
    finish(p)

    p = sub.add_parser("ablate", help="sweep one axis, emit a results table")
    p.add_argument("--train", type=Path, required=True, dest="train_path")
    p.add_argument("--val", type=Path, required=True, dest="val_path")
    p.add_argument("--test", type=Path, required=True, dest="test_path")
    p.add_argument("--axis", required=True,
                   choices=ABLATION_AXES + ("loss",))
    p.add_argument("--values", nargs="*", default=None,
                   help="override the default value grid for the axis")
    _add_run_flags(p)
    p.add_argument("--out-dir", type=Path, default=Path("ablation"))
    finish(p)

    parser.set_defaults(**top)
    return parser


def config_from_args(args, feature_dim):
    """Materialize the resolved TrainConfig for this invocation."""
    opts = vars(args)
    return TrainConfig(
        model=ModelConfig(feature_dim=feature_dim,
                          **{name: opts[name] for name in MODEL_OPTIONS}),
        seed=args.seed,
        **{name: opts[name] for name in EPISODE_OPTIONS + TRAIN_OPTIONS},
    )


def write_csv(path, manifest_hash, header, rows):
    """A ``# manifest=`` line, the header, then one line per row, each
    float written as its ``repr`` so it reads back exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest={manifest_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v
                          for v in row] for row in rows)


def _make_out_dir(path):
    """Create the output directory ``path`` and its parents, keeping one
    that exists; a data error naming the path when it, or a parent,
    cannot be a directory (say, an existing file)."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"output directory {path}: {exc.strerror}") from None


def cmd_synth(args):
    ds = synth_clusters(
        args.classes, args.per_class, args.dim,
        sep=args.sep, noise_sigma=args.noise, seed=args.seed,
    )
    _make_out_dir(args.out.parent)
    write_dataset(ds, args.out)
    print(
        f"wrote {args.out}: {len(ds)} items, {args.classes} classes, "
        f"dim {args.dim}, sep {args.sep}, seed {args.seed}"
    )
    return 0


def _load_splits(args):
    """The train, validation and test splits (test None when no --test
    is given) and the run config. A data error unless every split has
    the training dimension, raised before any training starts."""
    ds_train = load_dataset(args.train_path, "train")
    ds_val = load_dataset(args.val_path, "validation")
    ds_test = load_dataset(args.test_path, "test") if args.test_path else None
    for ds in (ds_val, ds_test):
        if ds is not None and ds.dim != ds_train.dim:
            raise DataError(f"dimension mismatch: train dim {ds_train.dim}, "
                            f"{ds.split} dim {ds.dim}")
    return ds_train, ds_val, ds_test, config_from_args(args, ds_train.dim)


def cmd_train(args):
    ds_train, ds_val, ds_test, cfg = _load_splits(args)

    out = args.out_dir
    _make_out_dir(out)
    ckpt_path = out / "checkpoint.npz"
    metrics_path = out / "metrics.csv"
    summary_path = out / "summary.json"
    inputs = {"train": args.train_path, "val": args.val_path}
    if args.test_path:
        inputs["test"] = args.test_path
    manifest = build_manifest(
        cfg, inputs,
        {"checkpoint": ckpt_path, "metrics": metrics_path,
         "summary": summary_path},
    )

    def progress(row):
        print(
            f"iter {row.iteration:6d}  loss {row.loss:.4f}  "
            f"val {row.val_accuracy:.4f} ± {row.val_ci:.4f}"
        )

    best, metrics = train(ds_train, ds_val, cfg,
                          workers=args.workers, log=progress)
    save_checkpoint(best, ckpt_path)
    write_csv(metrics_path, manifest["manifest_hash"],
              ["iter", "loss", "val_acc", "val_ci"],
              map(dataclasses.astuple, metrics))

    if ds_test is not None:
        test_acc, test_ci = evaluate_test(ds_test, best, cfg, args.workers)
    else:
        # no test split given: report the best validation score instead
        test_acc, test_ci = best.val_accuracy, 0.0

    summary = {
        "config": cfg.to_dict(),
        "best_iter": best.iteration,
        "test_acc": test_acc,
        "test_ci": test_ci,
        "manifest": manifest,
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(
        f"best iteration {best.iteration}: val {best.val_accuracy:.4f}, "
        f"test {test_acc:.4f} ± {test_ci:.4f}"
    )
    print(f"outputs in {out}")
    return 0


def cmd_eval(args):
    ckpt = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data, "test")
    cfg = ckpt.config
    if ds.dim != cfg.model.feature_dim:
        raise DataError(
            f"dimension mismatch: checkpoint expects dim "
            f"{cfg.model.feature_dim}, dataset has dim {ds.dim}"
        )
    params = ckpt.restore()
    acc, ci = evaluate(ds, params, cfg, args.episodes,
                       seed=args.seed, workers=args.workers)
    print(f"accuracy over {args.episodes} episodes: {acc:.4f} ± {ci:.4f}")
    if args.out is not None:
        manifest = build_manifest(
            cfg,
            {"checkpoint": args.checkpoint, "data": args.data},
            {"report": args.out},
            extra={"episodes": args.episodes, "eval_seed": args.seed},
        )
        _make_out_dir(args.out.parent)
        args.out.write_text(json.dumps({
            "accuracy": acc,
            "ci": ci,
            "episodes": args.episodes,
            "manifest": manifest,
        }, indent=2, sort_keys=True))
    return 0


def _format_table(axis, rows):
    header = f"{axis:>16s}  {'accuracy':>9s}  {'ci':>7s}  {'best_iter':>9s}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.value:>16s}  {row.accuracy:9.4f}  {row.ci:7.4f}  "
            f"{row.best_iteration:9d}"
        )
    return "\n".join(lines)


def cmd_ablate(args):
    ds_train, ds_val, ds_test, cfg = _load_splits(args)

    axis = args.axis
    values = args.values
    if axis == "loss":
        # two rows: classification loss alone vs the full objective
        axis = "structure_weight"
        if values is None:
            values = [0.0, cfg.structure_weight]
    if values is None:
        values = list(DEFAULT_AXIS_VALUES[axis])
    # a bad value is refused before the out dir exists
    labels = [apply_axis(cfg, axis, value)[0] for value in values]

    out = args.out_dir
    _make_out_dir(out)
    table_path = out / f"{args.axis}_table.txt"
    csv_path = out / f"{args.axis}_table.csv"
    manifest = build_manifest(
        cfg,
        {"train": args.train_path, "val": args.val_path,
         "test": args.test_path},
        {"table": table_path, "csv": csv_path},
        extra={"axis": args.axis, "values": labels},
    )

    def progress(row):
        print(f"{row.axis}={row.value}: {row.accuracy:.4f} ± {row.ci:.4f}")

    rows = run_ablation(ds_train, ds_val, ds_test, cfg, axis, values,
                        workers=args.workers, log=progress)

    text = _format_table(args.axis, rows)
    table_path.write_text(f"# manifest={manifest['manifest_hash']}\n{text}\n")
    write_csv(csv_path, manifest["manifest_hash"],
              ["axis", "value", "accuracy", "ci", "best_iter"],
              map(dataclasses.astuple, rows))
    print(text)
    print(f"outputs in {out}")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        try:
            args = make_parser().parse_args(argv)
            if args.config is not None:
                # parse again with the file's values as the defaults
                defaults = load_config_defaults(args.config)
                args = make_parser(defaults).parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage problems; the contract says 1
            return 0 if exc.code == 0 else USAGE_EXIT
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (FileNotFoundError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
