"""Correctness checks of the benchmark's outputs, and a self-test showing each can fail.

Every check is computed apart from the program, or rests on a property the
method must have; none compares against a stored copy of earlier output.
A check returns nothing when it holds and raises CheckFailed when it does
not. ``selftest`` feeds each check one right and one deliberately wrong
input and confirms that only the wrong one is rejected.
"""

from __future__ import annotations

import csv
import os

import numpy as np


class CheckFailed(AssertionError):
    pass


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_ucr_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a label-first UCR split with the stdlib csv module."""
    with open(path, newline="", encoding="utf-8") as fh:
        delimiter = "\t" if "\t" in fh.readline() else ","
        fh.seek(0)
        rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    labels = np.array([int(float(row[0])) for row in rows], dtype=np.int64)
    values = np.array([[float(v) for v in row[1:]] for row in rows], dtype=np.float64)
    return values, labels


def check_parsed_file(path, X, y) -> None:
    """The file, parsed again with csv, holds exactly the (X, y) the program loaded."""
    values, labels = parse_ucr_file(path)
    _require(values.shape == np.shape(X), f"{path}: shape {values.shape} != {np.shape(X)}")
    _require(np.array_equal(labels, y), f"{path}: labels differ from the csv parse")
    _require(np.array_equal(values, X), f"{path}: values differ from the csv parse")


def majority_rate(y_test) -> float:
    """Accuracy of always answering the test split's most frequent class."""
    _, counts = np.unique(y_test, return_counts=True)
    return float(counts.max() / counts.sum())


def one_nn_accuracy(X_train, y_train, X_test, y_test) -> float:
    """1-nearest-neighbour accuracy under Euclidean distance on the raw rows."""
    d2 = (X_test**2).sum(1)[:, None] - 2.0 * X_test @ X_train.T + (X_train**2).sum(1)[None, :]
    return float(np.mean(np.asarray(y_train)[d2.argmin(axis=1)] == np.asarray(y_test)))


def check_beats_baseline(accuracy: float, baseline: float) -> None:
    _require(accuracy > baseline, f"accuracy {accuracy:.4f} does not beat the majority rate {baseline:.4f}")


def check_same_labels(expected, actual, what: str) -> None:
    expected, actual = np.asarray(expected), np.asarray(actual)
    _require(expected.shape == actual.shape, f"{what}: {actual.shape[0]} labels, expected {expected.shape[0]}")
    bad = np.nonzero(expected != actual)[0]
    _require(bad.size == 0, f"{what}: labels differ at rows {bad[:5].tolist()}")


def check_single_matches_batch(batch_labels, single: dict[int, int]) -> None:
    """Every row classified singly got the label batch prediction gave it."""
    for row, label in single.items():
        _require(int(batch_labels[row]) == int(label),
                 f"row {row}: classify says {label}, predict_dataset says {batch_labels[row]}")


def check_probability_rows(per_eye, tol: float = 1e-9) -> None:
    """Each eye's class-probability row is non-negative and sums to 1."""
    per_eye = np.asarray(per_eye)
    _require(np.all(per_eye >= 0.0), "negative class probability")
    worst = float(np.max(np.abs(per_eye.sum(axis=-1) - 1.0)))
    _require(worst <= tol, f"a probability row sums to 1 {worst:+.3g}")


def check_confidence_is_an_eye_probability(confidences, per_eye) -> None:
    """A prediction's confidence is one of its own eyes' probabilities, exactly."""
    for row, confidence in enumerate(confidences):
        _require(np.any(per_eye[row] == confidence),
                 f"row {row}: confidence {confidence!r} is no eye's probability")


def check_same_bytes(expected: bytes, actual: bytes, what: str) -> None:
    _require(len(expected) == len(actual), f"{what}: {len(actual)} bytes, expected {len(expected)}")
    if expected != actual:
        first = next(i for i, (a, b) in enumerate(zip(expected, actual)) if a != b)
        raise CheckFailed(f"{what}: bytes differ from offset {first}")


def check_cli_csv(path, labels) -> None:
    """The CSV ``coeye predict`` wrote has one row per test series, with these labels."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == len(labels), f"{path}: {len(rows)} rows for {len(labels)} series")
    for i, row in enumerate(rows):
        _require(int(row["index"]) == i, f"{path}: row {i} has index {row['index']}")
        _require(int(row["predicted"]) == int(labels[i]),
                 f"{path}: row {i} predicts {row['predicted']}, predict_dataset says {labels[i]}")


def reference_sfa(X, w: int, drop_dc: bool) -> np.ndarray:
    """First w/2 rfft coefficients of each z-normalised row, interleaved real/imag."""
    X = np.asarray(X, dtype=np.float64)
    z = (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1, keepdims=True)
    start = 1 if drop_dc else 0
    coeffs = np.fft.rfft(z, axis=1)[:, start : start + w // 2]
    out = np.empty((X.shape[0], w))
    out[:, 0::2], out[:, 1::2] = coeffs.real, coeffs.imag
    return out


def check_sfa_coefficients(actual, X, w: int, drop_dc: bool) -> None:
    """The program's SFA values equal the rfft reference; a kept DC pair is exactly zero."""
    actual = np.asarray(actual)
    expected = reference_sfa(X, w, drop_dc)
    _require(actual.shape == expected.shape, f"SFA values have shape {actual.shape}, expected {expected.shape}")
    if not drop_dc:
        _require(np.all(actual[:, :2] == 0.0), "kept DC pair is not exactly zero")
    scale = 1e-9 * np.sqrt(np.shape(X)[1])
    worst = float(np.max(np.abs(actual - expected)))
    _require(worst <= scale, f"SFA values differ from rfft by {worst:.3g} (w={w}, drop_dc={drop_dc})")


def check_smote_counts(report, y_train) -> None:
    """Each class gains the majority count minus its own count, counted here."""
    labels, counts = np.unique(y_train, return_counts=True)
    original = {int(l): int(c) for l, c in zip(labels, counts)}
    expected = {l: int(counts.max()) - c for l, c in original.items()}
    _require(dict(report.original_counts) == original,
             f"SMOTE original counts {report.original_counts} != {original}")
    _require(dict(report.added_counts) == expected, f"SMOTE added {report.added_counts}, expected {expected}")


def check_trace_accounts(total: float, self_times: dict) -> None:
    """Per-layer self times add up to the traced total."""
    gap = total - sum(self_times.values())
    _require(abs(gap) <= 1e-6 * max(total, 1.0), f"self times miss {gap:.6f} s of the traced total")


def selftest(scratch_dir) -> list[str]:
    """Run every check on a right and a wrong input; return the checks that misbehaved."""
    from coeye import Dataset, load_ucr, smote
    from coeye.symbolic import sfa_coefficients

    rng = np.random.default_rng(7)
    problems: list[str] = []

    def expect(name, good, bad):
        try:
            good()
        except CheckFailed as exc:
            problems.append(f"{name}: rejected the right input ({exc})")
        try:
            bad()
        except CheckFailed:
            pass
        else:
            problems.append(f"{name}: accepted the wrong input")

    os.makedirs(scratch_dir, exist_ok=True)
    path = os.path.join(scratch_dir, "Selftest_TRAIN.tsv")
    X = rng.normal(size=(4, 6))
    y = np.array([1, 2, 1, 2])
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(y, X):
            fh.write("\t".join([str(label)] + [repr(float(v)) for v in row]) + "\n")
    loaded = load_ucr(path)
    nudged = loaded.X.copy()
    nudged[2, 3] = np.nextafter(nudged[2, 3], np.inf)
    expect("parsed_file (changed value)", lambda: check_parsed_file(path, loaded.X, loaded.y),
           lambda: check_parsed_file(path, nudged, loaded.y))
    expect("parsed_file (flipped label)", lambda: check_parsed_file(path, loaded.X, loaded.y),
           lambda: check_parsed_file(path, loaded.X, 3 - loaded.y))

    expect("beats_baseline", lambda: check_beats_baseline(0.8, majority_rate([1, 1, 2, 2])),
           lambda: check_beats_baseline(0.5, majority_rate([1, 1, 2, 2])))

    labels = np.array([1, 2, 2, 1, 3])
    flipped = labels.copy()
    flipped[3] = 2
    expect("same_labels (flipped label)", lambda: check_same_labels(labels, labels.copy(), "labels"),
           lambda: check_same_labels(labels, flipped, "labels"))
    expect("single_matches_batch (flipped label)",
           lambda: check_single_matches_batch(labels, {0: 1, 3: 1}),
           lambda: check_single_matches_batch(labels, {0: 1, 3: 2}))

    per_eye = rng.dirichlet(np.ones(3), size=(4, 5))
    perturbed = per_eye.copy()
    perturbed[1, 2, 0] += 1e-6
    expect("probability_rows (perturbed row)", lambda: check_probability_rows(per_eye),
           lambda: check_probability_rows(perturbed))
    confidences = per_eye.max(axis=(1, 2))
    expect("confidence_is_an_eye_probability (perturbed)",
           lambda: check_confidence_is_an_eye_probability(confidences, per_eye),
           lambda: check_confidence_is_an_eye_probability(confidences + [0, 0, 1e-12, 0], per_eye))

    blob = bytes(range(200))
    changed = bytearray(blob)
    changed[117] ^= 1
    expect("same_bytes (changed byte)", lambda: check_same_bytes(blob, bytes(blob), "model"),
           lambda: check_same_bytes(blob, bytes(changed), "model"))

    csv_path = os.path.join(scratch_dir, "selftest_predict.csv")

    def write_csv(predicted):
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("index,predicted,confidence,round\n")
            for i, label in enumerate(predicted):
                fh.write(f"{i},{label},0.9,first\n")

    def cli_csv_with(predicted):
        write_csv(predicted)
        check_cli_csv(csv_path, labels)

    expect("cli_csv (flipped label)", lambda: cli_csv_with(labels), lambda: cli_csv_with(flipped))
    expect("cli_csv (missing row)", lambda: cli_csv_with(labels), lambda: cli_csv_with(labels[:-1]))

    series = rng.normal(size=(3, 64))
    for drop_dc in (False, True):
        actual = sfa_coefficients(series, 16, drop_dc)
        wrong = actual.copy()
        wrong[1, 5] += 1e-3
        expect(f"sfa_coefficients (perturbed, drop_dc={drop_dc})",
               lambda: check_sfa_coefficients(actual, series, 16, drop_dc),
               lambda: check_sfa_coefficients(wrong, series, 16, drop_dc))
    kept = sfa_coefficients(series, 16, False)
    noisy_dc = kept.copy()
    noisy_dc[0, 0] = 1e-15
    expect("sfa_coefficients (DC pair not zero)", lambda: check_sfa_coefficients(kept, series, 16, False),
           lambda: check_sfa_coefficients(noisy_dc, series, 16, False))

    y_imb = np.array([1] * 8 + [2] * 4 + [3] * 3)
    _, report = smote(Dataset(rng.normal(size=(15, 10)), y_imb), k=2, seed=1)
    y_off = y_imb.copy()
    y_off[0] = 2
    expect("smote_counts (wrong class counts)", lambda: check_smote_counts(report, y_imb),
           lambda: check_smote_counts(report, y_off))

    expect("trace_accounts (missing time)", lambda: check_trace_accounts(2.0, {"a": 1.5, "b": 0.5}),
           lambda: check_trace_accounts(2.0, {"a": 1.5, "b": 0.4}))
    return problems
