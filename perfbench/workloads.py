"""Seeded operation lists for the three benchmark workloads.

Each workload is a fixed-length list of operations; the seed draws only the
physical parameters.  Brackets have a fixed width with a seeded offset, so
the number of bisection steps, and with it the cost of a pass, does not
depend on the seed, and no bisection midpoint lands exactly on the
reference energy.

This module imports nothing from the package: the list is plain data that
the worker executes and the oracles check.
"""
import random

WORKLOADS = ("dirac-confined", "antiparticle-airy", "closed-form-cli")

# grid points of every shooting solve: small enough that the pure-Python
# kernel finishes a pass in a few seconds, large enough that every check
# below holds with a wide margin
POINTS = 1000
# bracket width around the preserved level; below a quarter of the gap to
# the next level for lam >= 0.1 and |kappa0| <= 3
PRESERVED_WIDTH = 1e-4
# bracket half-width of a shift study; the largest shift (mu = 6e-6) is
# below 4e-6 and the nearest same-kappa level is at least 6e-5 away
STUDY_HALFWIDTH = 1e-5
# bracket width around each Airy level, below half of the level spacing
AIRY_WIDTH = 0.2
LADDER_STATES = 3
# the three CLI calls that should fail with exit code 2 (domain error)
VALIDATION_ARGV = (
    ["energy", "--lambda", "0.5", "--n", "1", "--kappa", "1"],
    ["energy", "--lambda", "nan", "--n", "1", "--kappa", "-1"],
    ["shift", "--lambda", "0.3", "--mu", "nan", "--kappa0", "-1"],
)
# the non-reference states with n <= 3 for kappa0 = -1
SHIFT_STATES = ((2, -2), (2, -1), (2, 1), (3, -3), (3, -2), (3, -1), (3, 1),
                (3, 2))


def _g(x):
    return float(f"{x:.6g}")  # short, exactly reproducible CLI arguments


def _dirac_confined(rng):
    ops = []
    for kappa0 in (-1, -2, -3):
        ops.append({"kind": "preserved", "kappa0": kappa0,
                    "lam": rng.uniform(0.1, 0.5),
                    "mu": 10.0 ** rng.uniform(-6.0, -4.0),
                    "offset": rng.uniform(0.2, 0.8)})
    n, kappa = rng.choice(SHIFT_STATES)
    mu0 = rng.uniform(1e-6, 3e-6)
    ops.append({"kind": "shift-study", "n": n, "kappa": kappa, "kappa0": -1,
                "lam": rng.uniform(0.05, 0.1), "mu": [2.0 * mu0, mu0]})
    return ops


def _antiparticle_airy(rng):
    ops = []
    for lo, hi in ((0.1, 0.25), (0.3, 0.5)):
        ops.append({"kind": "airy-ladder", "mu": rng.uniform(lo, hi),
                    "offsets": [rng.uniform(0.3, 0.7)
                                for _ in range(LADDER_STATES)]})
    # two core strengths, lam and 2 lam, so that this operation costs three
    # solves like a ladder
    mu, lam = rng.uniform(0.3, 0.5), rng.uniform(0.02, 0.03)
    ops.append({"kind": "repulsive-core", "mu": mu, "lam": [lam, 2.0 * lam],
                "offset": rng.uniform(0.3, 0.7)})
    return ops


def _cli(kind, argv, fmt, **params):
    return {"kind": kind, "argv": argv + ["--format", fmt], **params}


def _closed_form_cli(rng):
    ops = []
    for i in range(8):
        n = rng.randint(1, 5)
        kappa = rng.choice([k for k in range(-n, n) if k != 0])
        lam = _g(rng.uniform(0.05, 0.9))
        ops.append(_cli("cli-energy", ["energy", "--lambda", str(lam),
                                       "--n", str(n), "--kappa", str(kappa)],
                        ("csv", "json")[i % 2], n=n, kappa=kappa, lam=lam))
    for i in range(4):
        kappa0 = rng.choice((-1, -2, -3))
        n_max = rng.randint(-kappa0, 4)
        lam = _g(rng.uniform(0.05, 0.5))
        mu = _g(10.0 ** rng.uniform(-6.0, -3.0))
        ops.append(_cli("cli-shift", ["shift", "--lambda", str(lam),
                                      "--mu", str(mu), "--kappa0", str(kappa0),
                                      "--n-max", str(n_max)],
                        ("csv", "json")[i % 2], kappa0=kappa0, n_max=n_max,
                        lam=lam, mu=mu))
    n_max = rng.randint(46, 50)
    ops.append(_cli("cli-scan", ["scan", "--n-max", str(n_max),
                                 "--N-max", "10"], "csv", n_max=n_max))
    for i in range(3):
        kappa0 = rng.choice((-1, -2, -3))
        lam = _g(rng.uniform(0.1, 0.5))
        mu = _g(10.0 ** rng.uniform(-5.0, -3.0))
        ops.append(_cli("cli-ansatz", ["ansatz", "--lambda", str(lam),
                                       "--mu", str(mu),
                                       "--kappa0", str(kappa0)],
                        ("csv", "json")[i % 2], kappa0=kappa0, lam=lam, mu=mu))
    # one wall of each steepness per pass: the cost of a bag case grows with M
    for i, wall_power in enumerate((20, 50, 100)):
        kappa0 = rng.choice((-1, -2))
        lam = _g(rng.uniform(0.3, 0.5))
        wall = {"A": _g(rng.uniform(0.5, 2.0)), "r0": _g(rng.uniform(8.0, 12.0)),
                "M": wall_power}
        ops.append(_cli("cli-bag", ["solve", "--family", "bag",
                                    "--lambda", str(lam),
                                    "--kappa0", str(kappa0),
                                    "--A", str(wall["A"]),
                                    "--r0", str(wall["r0"]),
                                    "--M", str(wall["M"])],
                        ("csv", "json")[i % 2], kappa0=kappa0, lam=lam,
                        **wall))
    for argv in VALIDATION_ARGV:
        ops.append(_cli("cli-invalid", list(argv), "csv"))
    return ops


_BUILDERS = {
    "dirac-confined": _dirac_confined,
    "antiparticle-airy": _antiparticle_airy,
    "closed-form-cli": _closed_form_cli,
}


def build(workload, seed):
    """The operation list of one pass; equal seeds give equal lists."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))
