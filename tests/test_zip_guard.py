"""Spark-free checks of the guard that skips re-reading unchanged zip archives.

``_skip_unchanged_zip_rereads`` wraps ``zipimport.zipimporter.invalidate_caches``
in the Spark Python workers, where ``importlib.invalidate_caches()`` runs at
the start of every task.
"""
import importlib
import sys
import zipfile
import zipimport

import pytest

from repro.dataflow.incremental import _skip_unchanged_zip_rereads

before_312 = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="zipimport re-reads lazily from 3.12 on"
)


@pytest.fixture
def guard(monkeypatch):
    """Install the guard for one test; the original method is restored after."""
    monkeypatch.setattr(
        zipimport.zipimporter, "invalidate_caches", zipimport.zipimporter.invalidate_caches
    )
    _skip_unchanged_zip_rereads()
    return zipimport.zipimporter.invalidate_caches


def write_zip(path, modules):
    with zipfile.ZipFile(path, "w") as z:
        for name in modules:
            z.writestr(f"{name}.py", f"NAME = {name!r}\n")
    return str(path)


@before_312
def test_unchanged_archive_is_not_reread(guard, tmp_path):
    importer = zipimport.zipimporter(write_zip(tmp_path / "m.zip", ["zg_one"]))
    importer.invalidate_caches()  # the first call after install reads
    files = importer._files
    importer.invalidate_caches()
    assert importer._files is files
    assert importer.find_spec("zg_one") is not None


@before_312
def test_rewritten_archive_is_reread(guard, tmp_path, monkeypatch):
    path = write_zip(tmp_path / "m.zip", ["zg_first"])
    monkeypatch.syspath_prepend(path)
    monkeypatch.delitem(sys.path_importer_cache, path, raising=False)
    for name in ("zg_first", "zg_second"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    importlib.import_module("zg_first")
    importlib.invalidate_caches()
    importlib.invalidate_caches()
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("zg_second")
    write_zip(path, ["zg_first", "zg_second"])
    importlib.invalidate_caches()
    assert importlib.import_module("zg_second").NAME == "zg_second"


@before_312
def test_installing_twice_wraps_once(guard):
    _skip_unchanged_zip_rereads()
    assert zipimport.zipimporter.invalidate_caches is guard


def test_no_op_from_python_312(monkeypatch):
    original = zipimport.zipimporter.invalidate_caches
    monkeypatch.setattr(zipimport.zipimporter, "invalidate_caches", original)
    monkeypatch.setattr(sys, "version_info", (3, 12, 0, "final", 0))
    _skip_unchanged_zip_rereads()
    assert zipimport.zipimporter.invalidate_caches is original
