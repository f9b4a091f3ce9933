"""Checks against the independent oracle, ``perfbench/oracle.py``: its
independence, and every row of the six figure datasets."""

import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import oracle
from qps import figure_dataset
from qps.scenarios import FIGURE_NAMES

from .support import imported_modules

#: The oracle's layout for each figure; fig6 sweeps the ground layout's
#: half length, one layout per row.
LAYOUTS = {
    "fig4": lambda grid: oracle.ground(),
    "fig5": lambda grid: oracle.ground(),
    "fig6": lambda grid: oracle.ground(grid.coords["a_m"]),
    "fig8": lambda grid: oracle.leo(),
    "fig9": lambda grid: oracle.leo(),
    "fig10": lambda grid: oracle.leo(),
}


def test_oracle_never_imports_qps():
    # Only the standard library and numpy, and no relative import that
    # could reach the package through a sibling module.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    names = imported_modules(Path(oracle.__file__))
    assert [n for n in names if n.split(".")[0] not in allowed] == []


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_figure_rows_match_oracle(name):
    """Each row's ``r_xyz_m`` and condition number agree with the oracle to
    ``2e-5 + 2e-8 cond`` relative, and the degeneracy flag is set where the
    oracle's condition number is at least 1e9 and clear where it is at
    most 1e7.

    The oracle differentiates by central differences with steps of 1e-5 of
    the distance to the nearest endpoint. On the satellite layout the
    delays round at about eps times 1e7 m while the Jacobian's entries are
    about 3e-3, so its Jacobian errs by up to about 1e-8 relative, and the
    inverse multiplies that by the condition number. The worst row at the
    time of writing (fig8) sits at a quarter of the tolerance. At singular
    points the package's condition number exceeds its limit of 1e12 and
    the oracle's is infinite.
    """
    grid = figure_dataset(name)
    n = len(grid.r_xyz_m)
    xyz = np.column_stack(
        [grid.coords.get(f"{c}_m", np.full(n, grid.fixed.get(c, np.nan))) for c in "xyz"]
    )
    layout = LAYOUTS[name](grid)
    cond = layout.condition(xyz)
    flagged = grid.degenerate

    assert not flagged[cond <= 1e7].any(), np.flatnonzero(flagged & (cond <= 1e7))
    assert flagged[cond >= 1e9].all(), np.flatnonzero(~flagged & (cond >= 1e9))
    rows = ~flagged
    r_xyz = layout.r_xyz(xyz[rows], oracle.SIGMA_S_M)
    tol = 2e-5 + 2e-8 * cond[rows]
    for column, expected in ((grid.r_xyz_m[rows], r_xyz), (grid.condition_number[rows], cond[rows])):
        rel = np.abs(column - expected) / expected
        assert (rel <= tol).all(), np.flatnonzero(rows)[np.argmax(rel / tol)]
