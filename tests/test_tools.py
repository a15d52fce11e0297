import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_share_times_named_functions():
    # a function bound in several modules, a private one called from it, and
    # a method: each is counted, and apply_match's self time leaves out the
    # check it calls
    names = ["rewrite.apply_match", "rewrite._check_embedding", "diagram.DiagramBuilder.build"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_share.py"), "--width", "1", "--depth", "8",
         "--count", "3", "--repeat", "1", *names],
        capture_output=True, text=True, check=True).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[3:]}
    assert sorted(rows) == sorted(names)
    calls, incl, self_us = (float(x) for x in rows["rewrite.apply_match"][:3])
    assert calls > 0 and 0 < self_us < incl
    assert int(rows["rewrite._check_embedding"][0]) == calls
    assert int(rows["diagram.DiagramBuilder.build"][0]) >= calls
