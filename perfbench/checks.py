"""Correctness checks for each operation (one CLI command) of a workload.

The oracles share no code with the program under test where that is
possible: fixed points, Jacobians and stability labels come from the
model's formulas and ``numpy.linalg.eigvals``; exact solutions of the
simulated families are re-implemented here from their closed forms;
``frames.bin`` is parsed from its documented layout.  ``verify`` and
``constraints`` are judged by their exit code and ``"pass"`` flag, plus
independent checks on what they echo back.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import ORDER_TOL

OUTPUT_FILES = ("trajectory.csv", "errors.csv", "frames.bin")


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def classify_eigs(m) -> str:
    """Stability label of a 2x2 Jacobian from numpy.linalg.eigvals."""
    ev = np.linalg.eigvals(np.asarray(m, dtype=float))
    scale = max(1.0, float(np.max(np.abs(ev))))
    tol = 1e-9 * scale
    if np.any(np.abs(ev.real) <= tol) or abs(ev[0] - ev[1]) <= tol:
        return "center/degenerate"
    if ev.real.min() < 0.0 < ev.real.max():
        return "saddle"
    kind = "spiral" if np.any(np.abs(ev.imag) > tol) else "node"
    return ("stable " if ev.real.max() < 0.0 else "unstable ") + kind


def exact_solution(family: str, p: dict, t, x):
    """(u, v) of the simulated families, from their closed forms."""
    D, eps, beta = p["d"], p["epsilon"], p["beta"]
    if family == "NonClassicalExp":
        # c1 = c2 = c and k**2 < 0: u = 2c exp(-eps beta t/3) cos(|k| x)
        k2 = (9.0 - 6.0 * beta - 2.0 * eps * beta**2) / (6.0 * beta * D)
        _require(k2 < 0.0, "oracle covers imaginary k only")
        u = 2.0 * p["c_exp"] * np.exp(-eps * beta * t / 3.0) * np.cos(math.sqrt(-k2) * x)
        return u, 1.5 * u / beta - u**3 / 3.0
    if family == "FixedPointPlus":
        u = math.sqrt(3.0 * (beta - 1.0) / beta) * np.ones(np.broadcast(t, x).shape)
        return u, u / beta
    raise CheckFailed(f"no exact-solution oracle for {family}")


def read_frames_file(path: Path):
    """(ts, xs, us, vs) from frames.bin: "FHN1", <u4 nx, <u4 nt, xs, then
    per frame t, u[nx], v[nx], all little-endian float64."""
    raw = path.read_bytes()
    _require(raw[:4] == b"FHN1", "frames.bin magic")
    nx, nt = np.frombuffer(raw, dtype="<u4", count=2, offset=4)
    body = np.frombuffer(raw, dtype="<f8", offset=12)
    _require(body.size == nx + nt * (1 + 2 * nx), "frames.bin size")
    xs = body[:nx]
    frames = body[nx:].reshape(nt, 1 + 2 * nx)
    return frames[:, 0], xs, frames[:, 1:1 + nx], frames[:, 1 + nx:]


def _read_csv(path: Path, header: list[str]) -> np.ndarray:
    with open(path, newline="") as fh:
        text = fh.read()
    _require(text.endswith("\r\n"), f"{path.name} rows end with CRLF")
    rows = list(csv.reader(text.splitlines()))
    _require(rows[0] == header, f"{path.name} header")
    try:
        return np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def check_output_files(out_dir: Path, op: dict, reported_max_u: float) -> None:
    """trajectory.csv holds exactly the floats of frames.bin, which
    ``fhnx.simulate.read_frames`` also returns and which track the exact
    solution within the op's bound; errors.csv matches the JSON."""
    from fhnx.simulate import read_frames

    ts, xs, us, vs = read_frames_file(out_dir / "frames.bin")
    _require(all(np.array_equal(a, b) for a, b in
                 zip((ts, xs, us, vs), read_frames(out_dir / "frames.bin"))),
             "read_frames returns the documented frames.bin layout")
    traj = _read_csv(out_dir / "trajectory.csv", ["t", "x", "u", "v"])
    nt, nx = us.shape
    _require(traj.shape == (nt * nx, 4), "trajectory.csv row count")
    _require(np.array_equal(traj[:, 0].reshape(nt, nx), np.repeat(ts[:, None], nx, axis=1))
             and np.array_equal(traj[:, 1].reshape(nt, nx), np.tile(xs, (nt, 1)))
             and np.array_equal(traj[:, 2].reshape(nt, nx), us)
             and np.array_equal(traj[:, 3].reshape(nt, nx), vs),
             "trajectory.csv parses back to the floats of frames.bin")
    ue, ve = exact_solution(op["expect"]["family"], op["expect"]["params"], ts[:, None], xs[None, :])
    bound = op["expect"]["bound"]
    _require(np.max(np.abs(us - ue)) <= bound and np.max(np.abs(vs - ve)) <= bound,
             "frames.bin within the error bound of the exact solution")
    errors = _read_csv(out_dir / "errors.csv", ["t", "linf_u", "l2_u", "linf_v", "l2_v"])
    _require(errors.shape == (nt, 5) and np.array_equal(errors[:, 0], ts),
             "errors.csv has one row per frame")
    _require(float(np.max(errors[:, 1])) == reported_max_u, "errors.csv max linf_u matches the JSON")


def _payload(record: dict, command: str) -> dict:
    _require(record["error"] is None, f"crashed: {record['error']}")
    _require(record["rc"] == 0, f"exit code {record['rc']}: {record['stderr'].strip()[-300:]}")
    try:
        payload = json.loads(record["stdout"])
    except json.JSONDecodeError:
        raise CheckFailed("stdout is not one JSON document") from None
    _require(payload.get("command") == command, "JSON command field")
    return payload


def check_verify(op: dict, record: dict) -> None:
    payload = _payload(record, "verify")
    _require(payload.get("pass") is True, "verify reports pass")
    result = payload["result"]
    _require(result["family"] == op["expect"]["family"], "verified family")
    grid = payload["config"]["grid"]
    for rep in result["reports"].values():
        _require(rep["sample_count"] == grid["nx"] * grid["nt"], "residual sample count")


def check_constraints(op: dict, record: dict) -> None:
    payload = _payload(record, "constraints")
    _require(payload.get("pass") is True, "constraints reports pass")
    p = payload["config"]["params"]
    k2 = (9.0 - 6.0 * p["beta"] - 2.0 * p["epsilon"] * p["beta"] ** 2) / (6.0 * p["beta"] * p["d"])
    wn = payload["result"]["wavenumber"]
    _require(abs(wn["k_squared"] - k2) <= 1e-12 * max(1.0, abs(k2)), "k**2 closed form")
    _require(wn["imaginary"] is True and abs(wn["k_im"] ** 2 + k2) <= 1e-12, "imaginary k")


def check_stability(op: dict, record: dict) -> None:
    payload = _payload(record, "stability")
    p = op["expect"]["params"]
    eps, beta = p["epsilon"], p["beta"]
    amp = math.sqrt(3.0 * (beta - 1.0) / beta)
    points = payload["result"]["points"]
    _require([pt["u_star"] for pt in points] == sorted(pt["u_star"] for pt in points)
             and len(points) == 3, "three fixed points, sorted")
    for pt, u_star in zip(points, (-amp, 0.0, amp)):
        _require(abs(pt["u_star"] - u_star) <= 1e-9 * max(1.0, amp), "fixed point location")
        expected = np.array([[1.0 - u_star**2, -1.0], [eps, -eps * beta]])
        _require(np.allclose(pt["jacobian"], expected, rtol=1e-12, atol=1e-12), "Jacobian entries")
        _require(pt["classification"] == classify_eigs(pt["jacobian"]),
                 f"label {pt['classification']!r} disagrees with eigvals")


def check_simulate(op: dict, record: dict) -> None:
    payload = _payload(record, "simulate")
    result, expect = payload["result"], op["expect"]
    _require(result["family"] == expect["family"], "simulated family")
    eu, ev = result["max_error_linf_u"], result["max_error_linf_v"]
    _require(math.isfinite(eu) and math.isfinite(ev), "finite errors")
    _require(eu <= expect["bound"] and ev <= expect["bound"],
             f"max Linf error u {eu:.3e}, v {ev:.3e} above {expect['bound']:.1e}")
    if "levels" in expect:
        conv = result.get("convergence")
        _require(conv is not None and [lv["nx"] for lv in conv["levels"]] == expect["levels"],
                 "convergence levels")
        _require(all(abs(o - 2.0) <= ORDER_TOL for o in conv["orders"]),
                 f"convergence orders {conv['orders']} outside 2 +/- {ORDER_TOL}")
    if expect.get("files"):
        check_output_files(Path(record["out_dir"]), op, eu)


CHECKS = {
    "verify": check_verify,
    "constraints": check_constraints,
    "stability": check_stability,
    "simulate": check_simulate,
}


def tally(ops: list[dict], records: list[dict]) -> tuple[int, list[dict], dict]:
    """Check every record; returns (attempted, failures, output digests).

    A record whose output bytes and stdout equal an already checked one's
    gets that verdict, since equal bytes cannot be judged differently.
    """
    by_id = {op["id"]: op for op in ops}
    failures, digests, verdicts = [], {}, {}
    for rec in records:
        op = by_id[rec["id"]]
        key = None
        if rec.get("digests"):
            digests.setdefault(op["id"], rec["digests"])
            key = (op["id"], rec["stdout"], tuple(sorted(rec["digests"].items())))
        try:
            if key in verdicts:
                reason = verdicts[key]
            else:
                CHECKS[op["check"]](op, rec)
                reason = None
        except CheckFailed as exc:
            reason = str(exc)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if key is not None:
            verdicts[key] = reason
        if reason is not None:
            failures.append({"id": rec["id"], "pass": rec["pass"], "reason": reason})
    return len(records), failures, digests
