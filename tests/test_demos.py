"""Each narrative demo runs to completion against the current API and prints
exactly the text it printed when its output was pinned."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout; the same on 1 and 2 CPUs
STDOUT_SHA256 = {
    "01_channel_basics": "e5d0b46be9594b76b5ca9083edf97b9f49a65839d9bf06401d1436a8f0c8d337",
    "02_distance_measures": "60a49a331b7024829941b8d4aa93d42b9846e63d90f12ac3decb1154a9869d4e",
    "03_di_codebook": "1a948f586d940a19eaa084f12e20612927c819223027f4000a2d6b0562422e92",
    "04_dif_feedback": "4cc7f13819445d3d859fa550ab7f2e9d33c35c7f45ce2f292f7edbe483524063",
    "05_capacity_bounds": "93b02a7a3c601d11ddba39ab64252a9f7b7ff413abc7122ff39e207a4b7e40ce",
}


def test_demos_found():
    assert [path.stem for path in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]
