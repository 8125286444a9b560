"""Every package module must survive cloudpickle BY-VALUE serialization.

__ray_entry__ ships the library to Ray workers by value (the driver may
import it from a cwd where workers cannot `import duckdb_raquet_ray`).
Any unpicklable module-level object — a pyarrow Codec instance, an
lru_cache wrapper, an open handle — silently breaks EVERY driver query
in that mode while local imports (and this test suite) keep passing.
This guard registers the WHOLE package by value exactly like
__ray_entry__._bootstrap_by_value does (cross-module references only
fail under full registration) and pickles every module and function."""

import importlib
import pkgutil

import pyarrow as pa
import pytest

import duckdb_raquet_ray as pkg


def _module_names():
    names = [pkg.__name__]
    names += [i.name for i in pkgutil.walk_packages(pkg.__path__, prefix=pkg.__name__ + ".")]
    return names


@pytest.fixture(scope="module")
def registered_modules():
    from ray import cloudpickle as cp

    mods = [importlib.import_module(n) for n in _module_names()]
    for m in mods:
        cp.register_pickle_by_value(m)
    yield {m.__name__: m for m in mods}
    for m in mods:
        try:
            cp.unregister_pickle_by_value(m)
        except Exception:
            pass


@pytest.mark.parametrize("name", _module_names())
def test_module_pickles_by_value(registered_modules, name):
    from ray import cloudpickle as cp

    mod = registered_modules[name]
    cp.dumps(mod)
    # module-level functions must also serialize (they carry the globals
    # they reference, including sibling by-value modules)
    for attr, val in vars(mod).items():
        if callable(val) and getattr(val, "__module__", None) == name:
            cp.dumps(val)


def test_local_dict_pickles_empty(registered_modules):
    """Per-process module state (util.LocalDict) must NOT travel inside UDF
    pickles: the delete key memo, encode._KEYS, populated on the driver
    would bloat every task payload with the driver's key set (the same
    shape once crashed a query: a pickled buffer pool arrived read-only
    in the worker)."""
    from ray import cloudpickle as cp

    from duckdb_raquet_ray.pipelines import encode

    keys = [f"doc-{i}" for i in range(100_000)]
    encode._key_values(keys, pa.string())
    assert len(encode._KEYS) > 0
    blob = cp.dumps(encode)
    assert len(blob) < 256 * 1024, "the key memo leaked into the module pickle"
    restored = cp.loads(cp.dumps(encode._KEYS))
    assert restored == {} and type(restored) is type(encode._KEYS)
    # a function referencing the module state must stay small too
    assert len(cp.dumps(encode._key_values)) < 256 * 1024
    encode._KEYS.clear()


def test_syswebp_pickles_after_library_load(registered_modules):
    """A loaded ctypes CDLL handle is unpicklable; once the driver had
    called syswebp.available() the whole codecs package became unshippable
    (observed live: full-suite order loaded libwebp before the pickling
    tests and every codecs module failed cp.dumps). The cache must pickle
    back to its unloaded state and re-resolve per process."""
    from ray import cloudpickle as cp

    from duckdb_raquet_ray.codecs import syswebp

    loaded = syswebp.available()  # force the handle into module state
    for name in (
        "duckdb_raquet_ray.codecs.syswebp",
        "duckdb_raquet_ray.codecs.webpcodec",
        "duckdb_raquet_ray.codecs.imagecodec",
        "duckdb_raquet_ray",
    ):
        cp.dumps(registered_modules[name])
    cache = cp.loads(cp.dumps(syswebp._cache))
    assert cache.tried is False and cache.lib is None
    if loaded:
        assert syswebp._cache.lib is not None  # driver-side handle intact


def test_no_lazy_package_relative_imports():
    """Lazy `from .x import y` inside function bodies defers the import to
    call time ON THE WORKER, where by-value-shipped code cannot resolve the
    package — the failure only appears at runtime under a foreign-cwd
    driver, invisible to this test suite. Ban them statically."""
    import ast
    import pathlib

    root = pathlib.Path(pkg.__path__[0])
    offenders = []
    for path in root.rglob("*.py"):
        if path.name == "cli.py":  # driver-only entry point, never worker-shipped
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom) and sub.level > 0:
                    offenders.append(f"{path.relative_to(root)}:{sub.lineno}")
                if (
                    isinstance(sub, ast.ImportFrom)
                    and sub.module
                    and sub.module.startswith(pkg.__name__)
                ):
                    offenders.append(f"{path.relative_to(root)}:{sub.lineno}")
    assert not offenders, f"lazy package-relative imports in function bodies: {offenders}"
