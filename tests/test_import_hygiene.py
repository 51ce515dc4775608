"""The import graph is the contract: an engine pays only for what it uses.

numpy is the array core's dependency (``network/arraysim.py``,
``traffic/mtstream.py``) and networkx the CDG prover's
(``analysis/cdg.py``, ``Topology.as_networkx``).  Everything users run
on the wheel — ``import repro``, the service, the CLI, a point, a
verified point, ``verify-results`` — must load neither, and a
numpy-less interpreter must run ``engine="auto"`` as the wheel run it
is.  The per-process fabric memo (``repro.topology.fabric``) sits on the
wheel's path too, so it is stdlib-only; its array half lives in
``arraysim``.  Each case needs a fresh interpreter, hence the
subprocesses.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]
SRC = str(Path(repro.__file__).resolve().parents[1])

WHEEL_LOADS_NEITHER = """
import contextlib, io, sys

import repro, repro.serve
import repro.experiments.cli as cli
from repro import SimConfig, run_point

olm = SimConfig(h=2, routing="olm")
run_point(olm, "uniform", 0.4, 60, 60)
run_point(olm, "uniform", 0.4, 60, 60, verify="full")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify-results", "results/tab1.json"]) == 0
import repro.topology.fabric as fabric
assert fabric.fabric_cache_info().misses == 1, "the wheel points share a fabric"
loaded = {"numpy", "networkx"} & sys.modules.keys()
assert not loaded, f"the wheel path loaded {sorted(loaded)}"

minimal = SimConfig(h=2, routing="minimal")
wheel = run_point(minimal, "uniform", 0.4, 60, 60)
auto = run_point(minimal.with_(engine="auto"), "uniform", 0.4, 60, 60)
assert "numpy" in sys.modules, "the array core did not engage"
assert "networkx" not in sys.modules
assert auto == wheel
"""

AUTO_WITHOUT_NUMPY_IS_THE_WHEEL = """
import sys

sys.modules["numpy"] = None  # ``import numpy`` raises ImportError

import repro
from repro import SimConfig, build_simulator, run_point

auto = SimConfig(h=2, routing="minimal", engine="auto")
sim = build_simulator(auto)
assert sim._core is None
assert type(sim.routers) is list and len(sim.routers) == sim.topo.num_routers
assert (run_point(auto, "uniform", 0.4, 60, 60)
        == run_point(auto.with_(engine="wheel"), "uniform", 0.4, 60, 60))
"""


@pytest.mark.parametrize("script", [
    pytest.param(WHEEL_LOADS_NEITHER, id="wheel-loads-neither"),
    pytest.param(AUTO_WITHOUT_NUMPY_IS_THE_WHEEL, id="auto-without-numpy"),
])
def test_in_a_fresh_interpreter(script):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
