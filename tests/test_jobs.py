"""The job front-end ``jobs/run.py`` compiles and runs at tiny scale."""
import importlib.util
import pathlib
import py_compile
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "jobs" / "run.py"


def run_job(*args, timeout=120):
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=ROOT / "jobs",
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("name", ["table2", "table3"])
def test_cheap_job_runs(name):
    out = run_job(name)
    assert out.returncode == 0, out.stderr[-2000:]
    assert "Table" in out.stdout


def test_fig5_job_small_scale():
    out = run_job("fig5", "--scale", "0.1", timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert "Q11" in out.stdout


def test_all_jobs_importable():
    """The job script compiles."""
    py_compile.compile(str(RUN), doraise=True)


def test_job_names_are_the_results_stems():
    spec = importlib.util.spec_from_file_location("run_job", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert set(run.TABLES) == {p.stem for p in (ROOT / "results").glob("*.txt")}


def test_unknown_job_name_fails_with_usage():
    out = run_job("table9")
    assert out.returncode != 0
    assert "usage:" in out.stderr and "invalid choice: 'table9'" in out.stderr
