"""Shared fixtures: solved surfaces are expensive, so build them once."""
from __future__ import annotations

import glob
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from fractsurf.config import parse_config_document
from fractsurf.fixtures import fixture_config
from fractsurf.ifs import solve_fixed_point
from fractsurf.pipeline import build_system


def live_children() -> set[int]:
    """Pids of this process's children that have not been reaped.

    Read from the kernel where it lists them (Linux), else the live
    ``multiprocessing`` children.
    """
    listings = glob.glob("/proc/self/task/*/children")
    if listings:
        return {int(pid) for listing in listings for pid in Path(listing).read_text().split()}
    # not imported means no multiprocessing child was ever started
    mp = sys.modules.get("multiprocessing")
    return {p.pid for p in mp.active_children()} if mp else set()


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    before = live_children()
    yield
    leaked = live_children() - before
    assert not leaked, f"the test left live child processes: {sorted(leaked)}"


def job_for(name: str):
    return build_system(parse_config_document(fixture_config(name)))


@pytest.fixture(scope="session")
def example2a_job():
    return job_for("example2a")


@pytest.fixture(scope="session")
def example2a_solved(example2a_job):
    """The example2a surface at its configured resolution, with solve timing."""
    cfg = example2a_job.config.solver
    t0 = time.perf_counter()
    surface = solve_fixed_point(example2a_job.system, cfg.resolution,
                                tol=cfg.tol, max_iter=cfg.max_iter)
    seconds = time.perf_counter() - t0
    return SimpleNamespace(surface=surface, seconds=seconds)


@pytest.fixture(scope="session")
def example2b_job():
    return job_for("example2b-sin")


@pytest.fixture(scope="session")
def example2b_solved(example2b_job):
    cfg = example2b_job.config.solver
    surface = solve_fixed_point(example2b_job.system, cfg.resolution,
                                tol=cfg.tol, max_iter=cfg.max_iter)
    return SimpleNamespace(surface=surface)


@pytest.fixture(scope="session")
def flat_job():
    return job_for("flat2x2")


@pytest.fixture(scope="session")
def bilinear_job():
    return job_for("bilinear2x2")


@pytest.fixture(scope="session")
def band_job():
    return job_for("band2x2")
