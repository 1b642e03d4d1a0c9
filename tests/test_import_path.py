"""Importing dipc and running a di-sim experiment load numpy, not scipy,
and importing dipc loads no thread pool.

scipy is imported only where a Poisson special function is evaluated, so a
top-level scipy import anywhere in the package fails here.  The DI senders'
threads are started with ``threading`` inside ``results.sender_map``, so
``concurrent.futures`` stays out of the import and of set-up time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import dipc, dipc.cli, dipc.harness
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")))
dipc.harness.run(dipc.harness.validate_config(json.loads(sys.argv[2])))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

DI_SIM = {
    "kind": "di-sim",
    "channel": {"memory": 2, "hit_probs": [0.6, 0.3, 0.1], "dark_rate": 0.1},
    "power": {"peak": 10.0, "average": 10.0},
    "n": 6,
    "trials": 20,
    "max_codewords": 3,
    "levels": [0.0, 5.0, 10.0],
}


@pytest.fixture(scope="module")
def loaded():
    """(concurrent modules after the import, scipy modules after the run)."""
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC), json.dumps(DI_SIM)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_di_sim_loads_no_scipy(loaded):
    assert loaded[1] == []


def test_import_loads_no_concurrent_futures(loaded):
    assert loaded[0] == []
