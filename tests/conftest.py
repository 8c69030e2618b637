# hospgnn first: importing it pins BLAS to one thread before numpy first
# loads. The timing criteria are single-core budgets, and one thread
# keeps reductions bit-stable.
from hospgnn import data, model

import pytest


@pytest.fixture(scope="session")
def desk_splits():
    """Small separable benchmark shared by unit tests."""
    return data.synth_benchmark(
        n_train=10, n_val=4, n_test=4, per_class=24, dim=8, sep=6.0, seed=101
    )


@pytest.fixture(scope="session")
def tiny_episode(desk_splits):
    train, _, _ = desk_splits
    return data.sample_episode(train, 2, 1, 1, 1.0, data.make_rng(17, 3))


@pytest.fixture()
def tiny_config():
    return model.ModelConfig(
        feature_dim=8, layers=2, hidden_dim=8,
        use_encoder=True, encoder_dim=8, metric_hidden=16,
    )


@pytest.fixture()
def tiny_params(tiny_config):
    return model.init_params(tiny_config, seed=5)

