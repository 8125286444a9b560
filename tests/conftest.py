import pytest


@pytest.fixture(scope="session", autouse=False)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # deterministic row order for equality assertions
    ctx.execution_options.preserve_order = True
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Small deterministic F1 corpus shared by pipeline tests."""
    from duckdb_raquet_ray.sources import tokens as tk

    d = tmp_path_factory.mktemp("corpus")
    tk.write_corpus(str(d), 4000, 4, row_group_rows=512)
    return str(d)


@pytest.fixture
def two_cpus():
    """Run a callable the way a stage that reserved two CPUs runs in its
    task (util._run_stage): util.fork_join's halves on two threads."""
    from duckdb_raquet_ray import util

    class _Call:
        def __init__(self, fn):
            self.fn = fn

        def __call__(self, batch):
            return self.fn()

    return lambda fn: util._run_stage(None, _Call, {"fn": fn}, 2)
