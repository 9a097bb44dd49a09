"""The benchmark's three workloads, each a fixed list of real ``fhnx`` CLI
commands whose parameters are drawn from the workload seed.

The program sees only the ``--param`` overrides built here.  Every draw
comes from a range that keeps each family on the code branch it takes at
the README defaults (D = 1.03, eps = 0.3, beta = 2):

* NonClassicalExp: imaginary k, i.e. 6 beta + 2 eps beta**2 > 9, with
  c1 = c2 so that u stays real;
* JacobiSnSteady: beta > 6/5 and its modulus m in [0, 1] (drawn directly);
* TanhFrontPlus, FixedPointPlus, FixedPointCardanoA: beta > 1;
* every explicit (rk4) run below the CFL bound, which needs D < 1.44 on
  the coarsest refinement level and D < 1.8 on the README grid.

The ranges are narrow on purpose: work per command depends on the
parameters only through AGM chain lengths, bisected band edges and CSV
number widths, so runs with different seeds do the same work.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("exact-check", "simulate-rk4", "simulate-implicit")

# Placeholder in an argv that the worker replaces with a fresh output
# directory for each pass.
OUT = "{out}"

# Upper bounds on the max Linf error of u (and v) against the exact family:
# at least 3x the largest value seen over seeds 0..49, or a roundoff
# allowance where the run is exact.  Orders of the convergence study must
# lie within ORDER_TOL of 2.
SIM_ERROR_BOUND = {
    "readme": 2.5e-4,
    "refine": 4.0e-3,
    "rk4-periodic": 1.0e-12,
    "implicit-dirichlet": 7.0e-4,
    "implicit-periodic": 2.0e-11,
}
ORDER_TOL = 0.2


def draw(seed: int) -> dict:
    """Model constants and family constants for one seed."""
    rng = random.Random(seed)
    beta = rng.uniform(1.6, 2.4)
    p = {
        "d": rng.uniform(0.8, 1.3),
        "epsilon": rng.uniform(0.2, 0.4),
        "beta": beta,
        "c_exp": rng.uniform(0.8, 1.2),
        "sn_c1": rng.uniform(0.1, 0.5),
        "sn_modulus": rng.uniform(0.3, 0.6),
        "x0": rng.uniform(-0.5, 0.5),
    }
    p = {k: round(v, 6) for k, v in p.items()}
    # modulus m = c2 sqrt(beta / (5 beta - 6))
    p["sn_c2"] = round(p["sn_modulus"] * math.sqrt((5.0 * p["beta"] - 6.0) / p["beta"]), 6)
    p["seed"] = seed
    return p


def _params(p: dict) -> list[str]:
    return [
        "--param", f"params.d={p['d']!r}",
        "--param", f"params.epsilon={p['epsilon']!r}",
        "--param", f"params.beta={p['beta']!r}",
        "--param", f"run.seed={p['seed']}",
    ]


def _family(tag: str, p: dict) -> list[str]:
    consts = {
        "NonClassicalExp": {"c1": p["c_exp"], "c2": p["c_exp"]},
        "JacobiSnSteady": {"c1": p["sn_c1"], "c2": p["sn_c2"]},
        "TanhFrontPlus": {"x0": p["x0"]},
    }.get(tag, {})
    argv = ["--param", f"family.tag={tag}"]
    for key, value in consts.items():
        argv += ["--param", f"family.{key}={value!r}"]
    return argv


def _grid(nx: int, nt: int, t_max: float | None = None) -> list[str]:
    argv = ["--param", f"grid.nx={nx}", "--param", f"grid.nt={nt}"]
    if t_max is not None:
        argv += ["--param", f"grid.t_max={t_max!r}"]
    return argv


def _op(op_id: str, argv: list[str], check: str, **expect) -> dict:
    return {"id": op_id, "argv": argv, "check": check, "expect": expect}


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one pass: id, argv, check kind and expectations."""
    p = draw(seed)
    common = _params(p)
    if workload == "exact-check":
        ops = [
            _op(f"verify-{tag}",
                ["verify", "--json", *_family(tag, p), *_grid(801, 401), *common],
                "verify", family=tag)
            for tag in ("NonClassicalExp", "JacobiSnSteady", "TanhFrontPlus", "FixedPointCardanoA")
        ]
        ops.append(_op("stability",
                       ["stability", "--json", "--param", "stability.n=20001", *common],
                       "stability", params=p))
        ops.append(_op("constraints",
                       ["constraints", "--json", *_family("NonClassicalExp", p),
                        "--param", "ansatz.n=20001", "--param", "ansatz.k_sweep=20000", *common],
                       "constraints"))
        return ops
    if workload == "simulate-rk4":
        exp = _family("NonClassicalExp", p)
        return [
            # the README example, plus the seeded parameters and --json
            _op("readme",
                ["simulate", "--param", "grid.t_max=0.5", "--param", "grid.nt=2001",
                 "--param", "grid.nx=101", "--out", OUT, "--json", *exp, *common],
                "simulate", family="NonClassicalExp", params=p,
                bound=SIM_ERROR_BOUND["readme"], files=True),
            _op("refine",
                ["simulate", "--json", "--refinements", "2", *exp, *_grid(26, 101, 0.5), *common],
                "simulate", family="NonClassicalExp", params=p,
                bound=SIM_ERROR_BOUND["refine"], levels=[26, 51, 101]),
            _op("rk4-periodic",
                ["simulate", "--json", "--param", "sim.bc=periodic",
                 *_family("FixedPointPlus", p), *_grid(101, 2001, 0.5), *common],
                "simulate", family="FixedPointPlus", params=p,
                bound=SIM_ERROR_BOUND["rk4-periodic"]),
        ]
    if workload == "simulate-implicit":
        return [
            _op("implicit-dirichlet",
                ["simulate", "--json", "--scheme", "semi-implicit",
                 *_family("NonClassicalExp", p), *_grid(1601, 1001, 0.5), *common],
                "simulate", family="NonClassicalExp", params=p,
                bound=SIM_ERROR_BOUND["implicit-dirichlet"]),
            _op("implicit-periodic",
                ["simulate", "--json", "--scheme", "semi-implicit", "--param", "sim.bc=periodic",
                 *_family("FixedPointPlus", p), *_grid(1601, 1001, 0.5), *common],
                "simulate", family="FixedPointPlus", params=p,
                bound=SIM_ERROR_BOUND["implicit-periodic"]),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
