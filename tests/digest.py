"""Output digests over fixed seeded inputs, to check that a change keeps
every output bit.

    PYTHONPATH=src python -m tests.digest

prints one SHA-256 per output family. Two checkouts that print the same
line for a family give bit-identical outputs for it: every float, every
exception type and every message. RuntimeWarnings are raised as errors, as
in the test suite. Nothing is asserted, and pytest does not collect this
module.
"""

import dataclasses
import hashlib
import warnings

import numpy as np

from qps import (
    SPEED_OF_LIGHT,
    DelayTriple,
    HomConfig,
    LeoConfig,
    Point3,
    TerrestrialConfig,
    build_leo,
    build_terrestrial,
    estimate_balance,
    figure_dataset,
    forward_delays,
    point_error,
    simulate_dip_scan,
    solve_all,
    solve_position,
)
from qps.geometry import delays_at, jacobian_at
from qps.scenarios import FIGURE_NAMES

from .support import outcome, random_instance

GROUND = build_terrestrial(TerrestrialConfig(2.0))
LEO = build_leo(LeoConfig(7.36e6, 2.0e4))
DIP = HomConfig(alpha1=0.8, alpha2=0.8, eta_v_sq=15625.0, delta_omega=1e12)


def _random_users(n: int = 400):
    """``n`` random (constellation, user, delays) triples."""
    rng = np.random.default_rng(2500)
    for _ in range(n):
        constellation, user = random_instance(rng)
        yield rng, constellation, user, DelayTriple.from_array(forward_delays(constellation, user))


def solve_position_family():
    for rng, constellation, user, delays in _random_users():
        near = Point3.from_array(user.as_array() + rng.normal(size=3))
        cold = Point3.from_array(rng.uniform(-20.0, 20.0, 3))
        yield outcome(solve_position, constellation, delays, near)
        yield outcome(solve_position, constellation, delays, cold)


def solve_all_family():
    for _, constellation, _, delays in _random_users():
        try:
            found = solve_all(constellation, delays)
        except Exception as exc:
            yield type(exc), str(exc)
        else:
            yield tuple(outcome(lambda: res) for res in found)


def far_field_family():
    user = Point3(3e4, -2e4, 1e4)
    delays = DelayTriple.from_array(forward_delays(GROUND, user))
    yield outcome(solve_position, GROUND, delays, Point3(3.1e4, -2.1e4, 1.05e4))


def _point_error(*args):
    return dataclasses.astuple(point_error(*args))


def point_error_family():
    rng = np.random.default_rng(2501)
    cases = [(GROUND, 100.0), (LEO, 1e7)]
    for constellation, scale in cases:
        for xyz in rng.normal(size=(300, 3)) * scale:
            yield outcome(_point_error, constellation, Point3.from_array(xyz), 1e-6)
        for endpoint in (*constellation.endpoints_a, *constellation.endpoints_b):
            yield outcome(_point_error, constellation, Point3.from_array(endpoint), 1e-6)
    for _, constellation, user, _ in _random_users(100):
        yield outcome(_point_error, constellation, user, (1e-6, 2e-6, 3e-6))


def _stacks():
    rng = np.random.default_rng(2502)
    for constellation, scale in ((GROUND, 100.0), (LEO, 1e7)):
        xyz = rng.normal(size=(50, 3)) * scale * 10.0 ** rng.uniform(-3, 3, (50, 1))
        yield constellation, xyz
        yield constellation, np.vstack((xyz[:5], constellation.endpoints_b[1]))
    for _, constellation, user, _ in _random_users(20):
        yield constellation, user.as_array() + rng.normal(size=(10, 3))


def stacks_family():
    for constellation, xyz in _stacks():
        yield outcome(delays_at, constellation, xyz)
        yield outcome(jacobian_at, constellation, xyz)


def _dip_scan_args():
    """(positional, keyword) arguments of 1000 seeded ``simulate_dip_scan``
    calls: 21-81 points over 1.5-6 dip widths, 3 to 10^4 counts a point,
    every other scan noise-free."""
    rng = np.random.default_rng(2503)
    width = SPEED_OF_LIGHT / DIP.delta_omega
    for seed in range(1000):
        true = float(rng.uniform(-1.0, 1.0)) * width
        halfwidths = float(rng.uniform(1.5, 6.0))
        points = (21, 41, 81)[seed % 3]
        grid = true + np.linspace(-halfwidths * width, halfwidths * width, points)
        grid += float(rng.uniform(-0.5, 0.5)) * width
        t_int = 10.0 ** float(rng.uniform(-3.5, 0.0))
        yield (DIP, true, grid, t_int, seed), {"noise": seed % 2 == 1}


def _dip_scan(*args, **kwargs):
    scan = simulate_dip_scan(*args, **kwargs)
    return scan.offsets_m.tobytes(), scan.rates_hz.tobytes(), scan.integration_time_s, scan.rng_seed


def dip_scan_family():
    for args, kwargs in _dip_scan_args():
        yield outcome(_dip_scan, *args, **kwargs)
    grid = np.linspace(-1e-3, 1e-3, 5)
    for t_int in (1e6, 1e14):  # up to 1e18 counts a point
        yield outcome(_dip_scan, DIP, 0.0, grid, t_int, 7)
    for bad in (
        (DIP, 0.0, grid[::-1], 1.0, 7),
        (DIP, 0.0, [], 1.0, 7),
        (DIP, 0.0, grid.reshape(1, 5), 1.0, 7),
        (DIP, 0.0, grid, 0.0, 7),
        (DIP, float("nan"), grid, 1.0, 7),
    ):
        yield outcome(_dip_scan, *bad)


def estimate_balance_family():
    for args, kwargs in _dip_scan_args():
        scan = simulate_dip_scan(*args, **kwargs)
        for fit_bandwidth in (True, False):
            yield outcome(estimate_balance, scan, DIP, fit_bandwidth)


def _figure_family(name):
    def family():
        yield figure_dataset(name).to_csv().encode()

    return family


FAMILIES = {
    "solve_position": solve_position_family,
    "solve_all": solve_all_family,
    "far_field": far_field_family,
    "point_error": point_error_family,
    "stacks": stacks_family,
    "dip_scan": dip_scan_family,
    "estimate_balance": estimate_balance_family,
    **{name: _figure_family(name) for name in FIGURE_NAMES},
}


def main() -> None:
    warnings.simplefilter("error", RuntimeWarning)
    for name, family in FAMILIES.items():
        digest = hashlib.sha256()
        count = 0
        for item in family():
            digest.update(item if isinstance(item, bytes) else repr(item).encode())
            count += 1
        print(f"{name:<17} {digest.hexdigest()}  {count} items")


if __name__ == "__main__":
    main()
