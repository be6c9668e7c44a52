import numpy as np
import pytest

from coeye import CoEyeConfig, Dataset, lenses, write_ucr


def synth_dataset(kind: str, seed: int = 0, n: int = 32, per_class: int = 10) -> Dataset:
    """Small separable fixtures: distinct frequency, shape, or scale per class."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    rows, labels = [], []
    if kind == "waves":
        recipes = [(1, 1.0), (2, 4.0)]
        for label, freq in recipes:
            for _ in range(per_class):
                phase = rng.uniform(0, 0.4)
                rows.append(np.sin(2 * np.pi * freq * (t / n) + phase) + rng.normal(0, 0.15, n))
                labels.append(label)
    elif kind == "trends":
        for label, slope in [(1, 1.0), (2, -1.0)]:
            for _ in range(per_class):
                rows.append(slope * (t / n) + rng.normal(0, 0.1, n))
                labels.append(label)
    elif kind == "bumps":
        for label, center in [(1, n // 4), (2, (3 * n) // 4)]:
            for _ in range(per_class):
                c = center + rng.integers(-2, 3)
                rows.append(np.exp(-0.5 * ((t - c) / (n / 10)) ** 2) + rng.normal(0, 0.08, n))
                labels.append(label)
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    return Dataset(np.asarray(rows), np.asarray(labels), name=kind)


def chosen_lenses(data, rep, config, pool=None, strategy="search"):
    """The lenses ``train``'s selection step keeps for representation ``rep`` (``SAX`` or ``SFA``) of ``data``."""
    return [lens for lens, _, _ in lenses._choose_lenses(data, rep, config, pool, strategy)]


SMALL_CONFIG = dict(
    trees=25,
    sax_alphas=(3, 4, 5),
    sfa_alphas=(3, 4, 5),
)


@pytest.fixture
def waves():
    return synth_dataset("waves", seed=11)


@pytest.fixture
def small_config():
    return CoEyeConfig(seed=42, **SMALL_CONFIG)


@pytest.fixture
def ucr_dir(tmp_path):
    """Directory with fixture datasets written in the flat-file layout."""
    for kind in ("waves", "trends"):
        write_ucr(synth_dataset(kind, seed=1), tmp_path / f"{kind}_TRAIN.tsv")
        write_ucr(synth_dataset(kind, seed=2), tmp_path / f"{kind}_TEST.tsv")
    return tmp_path
