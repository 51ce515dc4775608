"""The import graph is the contract: an engine pays only for what it uses.

numpy is the array core's dependency (``network/arraysim.py``,
``traffic/mtstream.py``) and networkx the CDG explorer's
(``analysis/cdg.py``, and ``topology.as_networkx(topo)``, which imports
it when called).  Everything users run
on the wheel — ``import repro``, the service, the CLI, a point, a
verified point, ``verify-results`` — must load neither, and a
numpy-less interpreter must run ``engine="auto"`` as the wheel run it
is.  So must an ``auto`` point the offered-load rule keeps on the wheel:
the rule and the undecided stand-in (``network/corechoice.py``) are
stdlib, and numpy loads with the first point the core wins.  The
per-process fabric memo (``repro.topology.fabric``) sits on the wheel's
path too, so it is stdlib-only; its array half lives in ``arraysim``.
``validate_topology`` and the route walker it shares with the engine
(``topology/route.py``) load no engine at all, nor does the CDG explorer.
Each case needs a fresh interpreter, hence the subprocesses.
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

"""

AUTO_LOADS_NUMPY_WITH_THE_FIRST_POINT_THE_CORE_WINS = """
import sys

import repro
import repro.topology.fabric as fabric
from repro import SimConfig, build_simulator, run_point

def both(h, load):
    minimal = SimConfig(h=h, routing="minimal")
    wheel = run_point(minimal, "uniform", load, 60, 60)
    assert run_point(minimal.with_(engine="auto"), "uniform", load, 60, 60) == wheel

# points the rule gives to the wheel: 3.6 and 6.4 offered flits a cycle
both(2, 0.4)
both(3, 0.15)
assert "numpy" not in sys.modules, "a point the wheel wins loaded numpy"
info = fabric.fabric_cache_info()
assert (info.misses, info.hits) == (2, 2), "auto and wheel share each fabric"

# an eligible simulator nobody stepped has not decided, and loaded nothing
sim = build_simulator(SimConfig(h=3, routing="minimal", engine="auto"))
assert sim.engine_path == "undecided" and "numpy" not in sys.modules

both(3, 0.6)  # 25.6: the first winning point loads it
assert "numpy" in sys.modules, "the array core did not engage"
assert "networkx" not in sys.modules
assert fabric.fabric_cache_info().misses == 2
"""

AUTO_WITHOUT_NUMPY_IS_THE_WHEEL = """
import sys

sys.modules["numpy"] = None  # ``import numpy`` raises ImportError

import repro
from repro import SimConfig, build_simulator, run_point

from repro.traffic.patterns import UniformRandom
from repro.traffic.processes import BernoulliTraffic

# a point the core would win (25.6 offered flits a cycle): the decision's
# import of ``arraysim`` fails and the point stays on the wheel
auto = SimConfig(h=3, routing="minimal", engine="auto")
sim = build_simulator(auto, BernoulliTraffic(UniformRandom(), 0.6))
sim.step()
assert (sim.engine_path, sim.engine_why) == ("wheel", "no numpy")
assert type(sim.routers) is list and len(sim.routers) == sim.topo.num_routers
assert (run_point(auto, "uniform", 0.6, 60, 60)
        == run_point(auto.with_(engine="wheel"), "uniform", 0.6, 60, 60))
"""

VALIDATOR_LOADS_NO_ENGINE = """
import importlib.util, sys, types

# the validator's own import graph: stand in for the ``repro`` package,
# whose ``__init__`` re-exports the engine
package = types.ModuleType("repro")
package.__path__ = importlib.util.find_spec("repro").submodule_search_locations
sys.modules["repro"] = package

from repro.topology import Dragonfly, validate_topology

validate_topology(Dragonfly(2))
loaded = {"numpy", "networkx", "repro.network", "repro.network.simulator"} & sys.modules.keys()
assert not loaded, f"the validator loaded {sorted(loaded)}"
"""

CDG_LOADS_NO_ENGINE = """
import importlib.util, sys, types

package = types.ModuleType("repro")  # stubbed as above
package.__path__ = importlib.util.find_spec("repro").submodule_search_locations
sys.modules["repro"] = package

import repro.analysis.cdg

loaded = {"numpy", "repro.network", "repro.network.simulator"} & sys.modules.keys()
assert not loaded, f"the CDG explorer loaded {sorted(loaded)}"
"""


@pytest.mark.parametrize("script", [
    pytest.param(WHEEL_LOADS_NEITHER, id="wheel-loads-neither"),
    pytest.param(AUTO_LOADS_NUMPY_WITH_THE_FIRST_POINT_THE_CORE_WINS,
                 id="auto-loads-numpy-with-the-first-winning-point"),
    pytest.param(AUTO_WITHOUT_NUMPY_IS_THE_WHEEL, id="auto-without-numpy"),
    pytest.param(VALIDATOR_LOADS_NO_ENGINE, id="validator-loads-no-engine"),
    pytest.param(CDG_LOADS_NO_ENGINE, id="cdg-loads-no-engine"),
])
def test_in_a_fresh_interpreter(script):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
