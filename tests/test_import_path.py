"""Importing dipc and running a di-sim, a dif-sim and a bounds experiment and
``log_likelihood`` load numpy, not scipy, and importing dipc loads no thread
pool.

The Poisson laws, their entropies and ln k! are computed with numpy and
``math`` alone, so a scipy import anywhere in the package fails here.  The
DI senders' threads are started with ``threading`` inside
``results.sender_map``, so ``concurrent.futures`` stays out of the import
and of set-up time.  So does ``numpy.random``: ``seeding`` loads it with its
first stream, as numpy itself would.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the concurrent modules after the import, then the scipy modules
# after each config's run and after a log_likelihood call.
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import dipc, dipc.cli, dipc.harness
random_at_import = sorted(m for m in sys.modules if m.startswith("numpy.random"))
def show(prefix):
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == prefix)))
show("concurrent")
for config in sys.argv[2:]:
    dipc.harness.run(dipc.harness.validate_config(json.loads(config)))
    show("scipy")
params = dipc.ChannelParams(memory=2, hit_probs=[0.6, 0.3, 0.1], dark_rate=0.1)
dipc.log_likelihood([0, 3, 20, 5000], [2.0, 4000.0], params)
show("scipy")
print(json.dumps(random_at_import))
"""

CHANNEL = {"memory": 2, "hit_probs": [0.6, 0.3, 0.1], "dark_rate": 0.1}
DI_SIM = {
    "kind": "di-sim",
    "channel": CHANNEL,
    "power": {"peak": 10.0, "average": 10.0},
    "n": 6,
    "trials": 20,
    "max_codewords": 3,
    "levels": [0.0, 5.0, 10.0],
}
DIF_SIM = {
    "kind": "dif-sim",
    "channel": CHANNEL,
    "power": {"peak": 5.0, "average": 5.0},
    "n": 30,
    "trials": 10,
    "hash_range": 4,
    "num_messages": 8,
    "inner_error_trials": 10,
}
BOUNDS = {
    "kind": "bounds",
    "channel": CHANNEL,
    "power": {"peak": 5.0, "average": 5.0},
    "kappa": 0.25,
    "n_grid": [64, 256],
}


@pytest.fixture(scope="module")
def loaded():
    """[concurrent modules after the import, scipy modules after the di-sim,
    dif-sim and bounds runs and after log_likelihood, numpy.random modules
    after the import]."""
    configs = [json.dumps(cfg) for cfg in (DI_SIM, DIF_SIM, BOUNDS)]
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC), *configs],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_di_sim_loads_no_scipy(loaded):
    assert loaded[1] == []


@pytest.mark.parametrize("step", [2, 3, 4], ids=["dif-sim", "bounds", "log_likelihood"])
def test_poisson_laws_load_no_scipy(loaded, step):
    assert loaded[step] == []


def test_import_loads_no_concurrent_futures(loaded):
    assert loaded[0] == []


def test_import_loads_no_numpy_random(loaded):
    # numpy loads numpy.random on first use; the first stream pays for it.
    assert loaded[5] == []
