"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Each workload's check first has to accept real outputs of the package on
a small input, and then reject each deliberately wrong copy of them: an
``r_xyz`` scaled by 1.01, a flipped degenerate flag, a dropped row, a
shifted solve, a candidate list without the true user, and so on. Exits
0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

WORK = HERE / "out" / "selftest"
failures: list[str] = []


def expect(name: str, errors: list[str], needle: str | None) -> None:
    """``needle`` None: the check must pass; else an error must contain it."""
    if needle is None:
        ok = not errors
    else:
        ok = any(needle in e for e in errors)
    print(f"{'ok ' if ok else 'BAD'} {name}" + ("" if ok else f": {errors[:3]}"))
    if not ok:
        failures.append(name)


def run_ops(ops) -> None:
    for run, keep in ops:
        keep(run())


def rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    rows = edit(header, rows)
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")


def maps() -> None:
    if WORK.exists():
        shutil.rmtree(WORK)
    work = wl.Maps(0, WORK)
    reqs = work.requests(0)
    twin = next(r for r in reqs if r.partner is not None and r.fmt == "csv")
    picked = [twin.partner, twin]
    picked.append(next(r for r in reqs if r.argv[0] == "line" and r.fmt == "json"))
    picked.append(next(r for r in reqs if r.argv[0] == "sweep-a"))
    picked += [r for r in reqs if r.anchor in ("fig4", "fig8", "fig10")]
    run_ops((lambda r=r: wl.qps.cli.main(r.argv), lambda rc, r=r: work._keep(r, rc)) for r in picked)
    expect("maps: real outputs pass", work.check(), None)

    def tampered(name, req, edit, needle):
        backup = req.path.read_bytes()
        edit(req.path)
        expect(name, work.check(), needle)
        req.path.write_bytes(backup)

    def scale_r(factor):
        def edit(path):
            def rows(header, rows):
                i = header.index("r_xyz_m")
                for r in rows:
                    r[i] = repr(float(r[i]) * factor)
                return rows

            rewrite_csv(path, rows)

        return edit

    base = twin.partner
    tampered("maps: r_xyz x 1.01 rejected", base, scale_r(1.01), "off the oracle")
    tampered("maps: r_xyz x (1 + 1e-9) breaks linearity", twin, scale_r(1.0 + 1e-9), "is not 3.0 x")
    tampered("maps: dropped row rejected", base, lambda p: rewrite_csv(p, lambda h, rows: rows[:-1]), "rows, expected")

    def shift_coords(path):
        def rows(header, rows):
            for r in rows:
                r[0] = repr(float(r[0]) * (1.0 + 1e-9))
            return rows

        rewrite_csv(path, rows)

    tampered("maps: shifted grid rejected", base, shift_coords, "requested grid")

    fig4 = next(r for r in picked if r.anchor == "fig4")

    def unflag(path):
        def rows(header, rows):
            d, r_col = header.index("degenerate"), header.index("r_xyz_m")
            for r in rows:
                if r[d] == "1":
                    r[d], r[r_col] = "0", "1.0"
            return rows

        rewrite_csv(path, rows)

    tampered("maps: degenerate flag cleared rejected", fig4, unflag, "rows not flagged degenerate")

    line = next(r for r in picked if r.argv[0] == "line")

    def flag(path):
        text = path.read_text().replace('"degenerate": [\n    false', '"degenerate": [\n    true', 1)
        path.write_text(text)

    tampered("maps: degenerate flag set rejected", line, flag, "rows flagged degenerate at oracle")

    tables = {r.anchor: wl.read_map(r.path, r.fmt) for r in picked if r.anchor}
    for anchor, factor, needle in (("fig4", 1.03, "at the anchor"), ("fig8", 1.06, "at the anchor"), ("fig10", 1.0, "reaches 1 cm")):
        coords, r, deg, cond = tables[anchor]
        r = r * factor
        if anchor == "fig10":
            r = r.copy()
            r[0] = 0.011
        errors: list[str] = []
        wl.check_anchor(next(q for q in picked if q.anchor == anchor), (coords, r, deg, cond), errors)
        expect(f"maps: {anchor} anchor off rejected", errors, needle)
    work.close()


def montecarlo() -> None:
    work = wl.MonteCarlo(0, WORK)
    for k in range(200):
        run_ops(work.round(k))
    expect("montecarlo: real outputs pass", work.check(), None)
    saved = [array("d", s) for s in work.solved]

    def edited(i, change):
        """Check again with user ``i``'s rows (delays, position) changed."""
        rows = np.frombuffer(saved[i]).reshape(-1, 6).copy()
        change(rows)
        work.solved = [array("d", s) for s in saved]
        work.solved[i] = array("d", rows.ravel())
        return work.check()

    layout, _, u, _ = work.users[0]

    def shift(rows):
        rows[5, 3:] += 10.0 * layout.position_sigmas(u, wl.SIGMA_S)

    expect("montecarlo: shifted solve rejected", edited(0, shift), "oracle delay residual")
    for i in (0, len(work.users) - 1):
        u = work.users[i][2]

        def widen(rows, u=u):
            rows[:, 3:] = u + 1.5 * (rows[:, 3:] - u)

        expect(f"montecarlo: widened spread (user {i}) rejected", edited(i, widen), "sample sigma")


def tracking() -> None:
    work = wl.Tracking(0, WORK)
    for k in range(15):
        run_ops(work.round(k))
    expect("tracking: real outputs pass", work.check(), None)
    saved = work.table().copy()
    fitted, sigma, position, r_xyz = slice(10, 13), slice(13, 16), slice(16, 19), 19

    def edited(change):
        """Check again with the recorded fixes changed."""
        rec = saved.copy()
        change(rec)
        work.fixes = array("d", rec.ravel())
        return work.check()

    def offsets_by(k):
        def change(rec):
            rec[:, fitted] += k * rec[:, sigma]

        return change

    def halve_sigmas(rec):
        rec[:, sigma] *= 0.5

    def move_fixes(rec):
        rec[:, position] += 1.0 + 10.0 * (rec[:, position] - rec[:, 1:4])

    def scale_r(rec):
        rec[:, r_xyz] *= 1.01

    expect("tracking: offsets 6 sigma off rejected", edited(offsets_by(6.0)), "beyond 5 sigma")
    expect("tracking: offsets biased by 0.5 sigma rejected", edited(offsets_by(0.5)), "biased")
    expect("tracking: halved sigmas rejected", edited(halve_sigmas), "Cramer-Rao")
    expect("tracking: fixes far from truth rejected", edited(move_fixes), "propagated sigma")
    expect("tracking: point_error x 1.01 rejected", edited(scale_r), "point_error results off the oracle")


def acquisition() -> None:
    work = wl.Acquisition(0, WORK)
    ops = list(work.round(0))
    run_ops(ops[:2])
    expect("acquisition: real outputs pass", work.check(), None)
    work.results = [
        (u, [c for c in cands if np.linalg.norm(c - u) > 1e-6 * max(1.0, np.linalg.norm(u))])
        for u, cands in work.results
    ]
    expect("acquisition: list without the true user rejected", work.check(), "none of")


def main() -> int:
    for part in (tracking, montecarlo, acquisition, maps):
        part()
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
