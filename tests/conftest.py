"""Shared pytest set-up: criterion 8's trained models, once per session,
and a tracemalloc peak measurer."""

import tracemalloc

import pytest

from nsrecon.experiments import MODEL_KINDS, TrainConfig, train


@pytest.fixture(scope="session")
def criterion8_params():
    """Criterion 8's six models at TrainConfig defaults, trained once per
    session: (data seed, kind) -> parameters, data seed s trained from init
    seed s + 1.  Tests read them and must not modify them."""
    return {(seed, kind): train(TrainConfig(model_kind=kind, data_seed=seed,
                                            init_seed=seed + 1))[0]
            for seed in range(3) for kind in MODEL_KINDS}


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args): the peak in bytes of what Python's
    allocators held while fn(*args) ran, by tracemalloc."""
    def measure(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
