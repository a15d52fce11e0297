import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SIZED = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(a):
    """A function docstring."""
    return max(a,
               len(os.sep))
'''


def test_src_size_counts_code_lines():
    # 12 physical lines; the import, the def and both lines of the call are code
    file_size = runpy.run_path(str(ROOT / "tools" / "src_size.py"))["file_size"]
    assert file_size(_SIZED) == (12, 4)


def test_src_size_totals_the_package():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_size.py"), str(ROOT / "src" / "zxcliff")],
        capture_output=True, text=True, check=True).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert "diagram.py" in rows
    totals = [int(x.replace(",", "")) for x in rows.pop("total")]
    assert totals == [sum(int(row[i]) for row in rows.values()) for i in (0, 1)]
    assert 0 < totals[1] < totals[0]


def test_src_size_compares_two_trees(tmp_path):
    # a file in both trees, one only in each: each row gives the code lines
    # in A and in B and B - A, a missing file counting 0; a checkout root
    # stands for its src/zxcliff
    a, b = tmp_path / "a", tmp_path / "b" / "src" / "zxcliff"
    a.mkdir()
    b.mkdir(parents=True)
    (a / "both.py").write_text(_SIZED)
    (b / "both.py").write_text(_SIZED + "x = 1\n")
    (a / "gone.py").write_text("y = 2\n")
    (b / "new.py").write_text("z = [\n    3]\n")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_size.py"), str(a), str(tmp_path / "b")],
        capture_output=True, text=True, check=True).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert rows == {"both.py": ["4", "5", "+1"], "gone.py": ["1", "0", "-1"],
                    "new.py": ["0", "2", "+2"], "total": ["5", "7", "+2"]}


def test_layer_share_times_named_functions():
    # a function bound in several modules, a private one called from it, and
    # a method: each is counted, and rewrite_first's self time leaves out the
    # rewrites it applies
    names = ["rewrite.rewrite_first", "rewrite._carried", "diagram.DiagramBuilder.build"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_share.py"), "--width", "1", "--depth", "8",
         "--count", "3", "--repeat", "1", *names],
        capture_output=True, text=True, check=True).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[3:]}
    assert sorted(rows) == sorted(names)
    calls, incl, self_us = (float(x) for x in rows["rewrite.rewrite_first"][:3])
    assert calls > 0 and 0 < self_us < incl
    applied = int(rows["rewrite._carried"][0])
    assert applied > 0 and int(rows["diagram.DiagramBuilder.build"][0]) >= applied


def test_layer_share_sees_what_generated_kernels_call():
    # the splice kernels bind `_respaced` and `_orders_splice` as they are
    # generated, so the tool must generate them again around its wrappers
    names = ["flow._respaced", "flow._orders_splice", "flow.stranded_after"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_share.py"), "--width", "4", "--depth", "40",
         "--count", "4", "--repeat", "1", *names],
        capture_output=True, text=True, check=True).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[3:]}
    assert int(rows["flow._respaced"][0]) > 0
    assert int(rows["flow._orders_splice"][0]) > 0
    assert int(rows["flow.stranded_after"][0]) > 0
