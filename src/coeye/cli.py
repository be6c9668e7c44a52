"""Command-line front end: train, predict, lenses, inspect, transform, benchmark.

Exit codes: 0 success, 2 usage or data errors, 3 training errors, 4 series
shape mismatches. Human-readable output goes to stdout, diagnostics to
stderr, machine output to ``--out`` files; ``predict`` without ``--out``
writes its CSV alone to stdout and its accuracy to stderr. ``--data``
defaults to the COEYE_DATA_DIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import CoEyeConfig
from .data import Dataset, load_ucr
from .ensemble import eye_probabilities, load_model, predict_dataset, save_model, train, vote
from .errors import (
    CoEyeError,
    EmptyEnsemble,
    EmptyTrainingSet,
    FeatureMismatch,
    NoFeasibleLens,
    NoMinorityClass,
    SeriesLengthMismatch,
)
from .evaluate import BENCHMARK_MODES, find_split, run_benchmark
from .lenses import _rep_flag
from .symbolic import SAX_MODES, Lens, SymbolicWord, fit_lenses

# exit codes of the error types that do not exit with 2
_EXIT_CODES = {
    NoFeasibleLens: 3, NoMinorityClass: 3, EmptyTrainingSet: 3, EmptyEnsemble: 3,
    SeriesLengthMismatch: 4, FeatureMismatch: 4,
}


def _name_list(text) -> tuple[str, ...]:
    return tuple(str(text).replace(",", " ").split())


def _int_list(text) -> tuple[int, ...]:
    return tuple(map(int, _name_list(text)))


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    sax, sfa = CoEyeConfig.sax_alphas, CoEyeConfig.sfa_alphas
    p.add_argument("--seed", type=int, default=CoEyeConfig.seed, help="global random seed (default: %(default)s)")
    p.add_argument("--trees", type=int, default=CoEyeConfig.trees, help="trees per forest (default: %(default)s)")
    p.add_argument("--folds", type=int, default=CoEyeConfig.folds,
                   help="cross-validation folds (default: %(default)s)")
    p.add_argument("--sax-alphas", type=_int_list, default=sax,
                   help=f"comma list of SAX alphabet sizes (default: {min(sax)}..{max(sax)})")
    p.add_argument("--sfa-alphas", type=_int_list, default=sfa,
                   help=f"comma list of SFA alphabet sizes (default: {min(sfa)}..{max(sfa)})")
    p.add_argument("--sax-w", type=_int_list, default=CoEyeConfig.sax_word_lengths,
                   help="comma list of SAX word lengths (default: one uniform word of min(n, 128))")
    p.add_argument("--sfa-w", type=_int_list, default=CoEyeConfig.sfa_word_lengths,
                   help="comma list of SFA word lengths (default: 10..min(130, n) step 10)")
    p.add_argument("--sax-mode", choices=SAX_MODES, default=CoEyeConfig.sax_mode,
                   help="SAX binning mode (default: %(default)s)")
    p.add_argument("--smote", choices=("on", "off"), default="on" if CoEyeConfig.smote else "off",
                   help="oversample imbalanced training data (default: %(default)s)")
    p.add_argument("--threads", type=int, default=os.cpu_count(),
                   help="worker processes of the one pool per train, at least 1 and capped at "
                        "the core count (default: all cores)")


def _config_from_args(args) -> CoEyeConfig:
    return CoEyeConfig(
        seed=args.seed,
        trees=args.trees,
        folds=args.folds,
        sax_alphas=args.sax_alphas,
        sax_word_lengths=args.sax_w,
        sfa_alphas=args.sfa_alphas,
        sfa_word_lengths=args.sfa_w,
        sax_mode=args.sax_mode,
        smote=args.smote == "on",
        threads=args.threads,
    )


def _add_data_dir_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default=os.environ.get("COEYE_DATA_DIR"),
                   help="dataset directory (default: $COEYE_DATA_DIR)")


def _add_data_flags(p: argparse.ArgumentParser, dataset_required: bool = True) -> None:
    _add_data_dir_flag(p)
    p.add_argument("--dataset", required=dataset_required, help="dataset name, e.g. BeetleFly")


def _data_dir(args) -> str:
    if not args.data:
        raise ValueError("--data is required (or set COEYE_DATA_DIR)")
    return args.data


def _load_split(args, split: str) -> Dataset:
    return load_ucr(find_split(_data_dir(args), args.dataset, split))


def _check_out(out) -> None:
    """Raise unless ``--out``, if given, can be written as a file: it is no
    directory, and its directory exists. So no work is done in vain."""
    if out and os.path.isdir(out):
        raise IsADirectoryError(f"--out {out} is a directory")
    directory = os.path.dirname(out or "")
    if directory and not os.path.isdir(directory):
        raise FileNotFoundError(f"--out {out}: no directory {directory}")


def _resolve_input(args) -> tuple[np.ndarray, np.ndarray | None]:
    """(values matrix, labels or None) from --input or --data/--dataset."""
    if getattr(args, "input", None):
        return load_ucr(args.input, labeled=False).X, None
    if args.data and args.dataset:
        test = _load_split(args, "TEST")
        return test.X, test.y
    raise ValueError("provide --input FILE or --data/--dataset for the _TEST split")


def cmd_train(args) -> int:
    config = _config_from_args(args)
    train_set = _load_split(args, "TRAIN")
    model = train(train_set, config)
    save_model(model, args.out)
    report = model.smote_report
    print(f"dataset: {model.dataset_name}")
    print(f"sax lenses: {model.sax_count}")
    print(f"sfa lenses: {model.sfa_count}")
    print(f"smote percentage: {report.smote_percentage:.4f}")
    added = sum(report.added_counts.values())
    print(f"smote added: {added} synthetic series")
    print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    X, y_true = _resolve_input(args)
    preds = predict_dataset(model, X)
    has_truth = y_true is not None
    lines = ["index,predicted,confidence,round" + (",true,correct" if has_truth else "")]
    correct = 0
    for i, p in enumerate(preds):
        row = f"{i},{p.label},{p.confidence:.6f},{p.round}"
        if has_truth:
            ok = int(p.label == int(y_true[i]))
            correct += ok
            row += f",{int(y_true[i])},{ok}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if has_truth:
        print(f"accuracy: {correct / len(preds):.6f}", file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_lenses(args) -> int:
    train_set = _load_split(args, "TRAIN")
    # the lenses a trained model keeps, so this never drifts from `coeye train`
    lenses = [eye.lens for eye in train(train_set, _config_from_args(args)).eyes]
    print("representation,alpha,w,drop_dc,cv_accuracy")
    for lens in lenses:
        print(f"{lens.representation},{lens.alpha},{lens.w},{int(lens.drop_dc)},{lens.cv_accuracy:.6f}")
    return 0


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    X, _ = _resolve_input(args)
    if not 0 <= args.index < X.shape[0]:
        raise ValueError(f"--index {args.index} outside input with {X.shape[0]} series")
    per_eye = eye_probabilities(model, X[args.index])[0]
    pred = vote(per_eye, model.sax_count, seed=model.config.seed, class_labels=model.class_labels)
    print("eye_index,representation,alpha,w,class,probability")
    for j, eye in enumerate(model.eyes):
        for ci, label in enumerate(model.class_labels):
            print(f"{j},{eye.lens.representation},{eye.lens.alpha},{eye.lens.w},"
                  f"{int(label)},{per_eye[j, ci]:.6f}")
    print(f"vote sax_best: {pred.sax_label if pred.sax_label is not None else '-'}")
    print(f"vote sfa_best: {pred.sfa_label if pred.sfa_label is not None else '-'}")
    print(f"vote round: {pred.round}")
    print(f"final label: {pred.label} (confidence {pred.confidence:.6f})")
    return 0


def cmd_transform(args) -> int:
    train_set = _load_split(args, "TRAIN")
    if not 0 <= args.index < len(train_set):
        raise ValueError(f"--index {args.index} outside dataset with {len(train_set)} series")
    lens = Lens(_rep_flag(args.rep), args.alpha, args.w, args.drop_dc)
    ((_, symbols),) = fit_lenses(train_set.X, [lens], args.sax_mode)
    print(SymbolicWord(symbols[args.index], lens.alpha, lens.w).to_text())
    return 0


def cmd_benchmark(args) -> int:
    data_dir = _data_dir(args)
    names = []
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
    names.extend(args.datasets)
    if not names:
        raise ValueError("provide --datasets or --manifest")
    reports = run_benchmark(data_dir, names, args.modes, args.seeds, args.out, _config_from_args(args))
    ok = sum(1 for r in reports if r.status == "ok")
    print(f"benchmark rows written: {len(reports)} ({ok} ok) -> {args.out}")
    return 0 if ok > 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coeye",
        description="Multi-resolution symbolic time-series classification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on <dataset>_TRAIN and save it")
    _add_data_flags(p)
    p.add_argument("--out", required=True, help="output model file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify series with a saved model")
    p.add_argument("--model", required=True, help="model file from `coeye train`")
    p.add_argument("--input", default=None, help="label-free series file (one series per line)")
    _add_data_flags(p, dataset_required=False)
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("lenses", help="print the lenses a trained model keeps for a dataset")
    _add_data_flags(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_lenses)

    p = sub.add_parser("inspect", help="per-lens confidence table and vote trace for one series")
    p.add_argument("--model", required=True)
    p.add_argument("--input", default=None, help="label-free series file")
    _add_data_flags(p, dataset_required=False)
    p.add_argument("--index", type=int, default=0, help="series index within the input (default: 0)")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("transform", help="print the symbolic word of one training series")
    _add_data_flags(p)
    p.add_argument("--rep", choices=("sax", "sfa"), required=True)
    p.add_argument("--alpha", type=int, required=True, help="alphabet size (2..26)")
    p.add_argument("--w", type=int, required=True, help="word size")
    p.add_argument("--drop-dc", action="store_true", help="drop the DC coefficient (sfa only)")
    p.add_argument("--sax-mode", choices=SAX_MODES, default=CoEyeConfig.sax_mode)
    p.add_argument("--index", type=int, default=0, help="series index (default: 0)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("benchmark", help="train/test sweeps appended to a results CSV")
    _add_data_dir_flag(p)
    p.add_argument("--datasets", type=_name_list, default=(), help="comma list of dataset names")
    p.add_argument("--manifest", default=None, help="file with one dataset name per line")
    p.add_argument("--modes", type=_name_list, default=("coeye",),
                   help=f"comma list from: {', '.join(BENCHMARK_MODES)} (default: coeye)")
    p.add_argument("--seeds", type=_int_list, default=(CoEyeConfig.seed,),
                   help=f"comma list of seeds (default: {CoEyeConfig.seed})")
    p.add_argument("--out", required=True, help="results CSV, appended to")
    _add_config_flags(p)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # train, predict and benchmark write --out: check it before any split is loaded
        _check_out(getattr(args, "out", None))
        return args.func(args)
    except (CoEyeError, FileNotFoundError, IsADirectoryError, PermissionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)), 2)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
