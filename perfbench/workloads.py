"""The three workloads: their timed operations and the accuracy gate on each.

An operation is one call into isturm's public API.  Its result is checked
after the timed window, against the forward oracle (piecewise-constant
sigma) or against the ground truth the seed drew; an operation that raises,
exits non-zero or misses a tolerance below counts as failed.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import isturm
import isturm.cli
import isturm.forward
import isturm.verify

import oracle
import problems

PI = math.pi
N_X_FORWARD = 1024

# Accuracy gates, set from the worst value measured at seeds 0-9 (README.md
# lists both).  Forward errors sit at rounding level and a correct reordering
# of the arithmetic can double them, so their gates have about 100x headroom;
# the inverse errors are truncation errors that repeat exactly for a seed, so
# theirs have about 1.5x.  The step inversion's sigma error scales with the
# step height h, so its gate is per unit of h.
GATES = {
    "eig_err": 2e-12,
    "alpha_err": 1e-11,
    "invert_sigma_l2_err_per_h": 0.094,
    "invert_r_coeff_err": 5.5e-3,
    "regular_sigma_l2_err": 1e-2,
    "regular_r_coeff_err": 5e-2,
    "regular_q_err": 0.1,
}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], dict]   # {"ok": bool, "why": str, **figures}


def _gate(figures: dict, limits: dict) -> dict:
    bad = [f"{k}={figures[k]:.3g} > {lim:.3g}" for k, lim in limits.items()
           if not figures[k] <= lim]
    return {"ok": not bad, "why": "; ".join(bad), **figures}


def _forward_op(name, prob, orc, K):
    def call():
        return isturm.forward.forward_spectral_data(prob, K, N_X_FORWARD)

    def check(sd):
        got = oracle.check_spectral_data(orc, sd.lam, sd.alpha, K)
        if not got["ok"]:
            return got
        return _gate({"eig_err": got["eig_err"], "alpha_err": got["alpha_err"]},
                     {"eig_err": GATES["eig_err"], "alpha_err": GATES["alpha_err"]})
    return Op(name, call, check)


def _coeff_err(coeffs, target) -> float:
    n = max(len(coeffs), len(target))
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    a[:len(coeffs)] = coeffs
    b[:len(target)] = target
    return float(np.max(np.abs(a - b)))


def _l2(x, values, truth) -> float:
    return float(np.sqrt(np.trapezoid(np.abs(values - truth) ** 2, x)))


def _step_sigma(p):
    return [(0.0, 0.0), (p["xj"], p["h"])]


def prepare(workload: str, p: dict, workdir) -> list[Op]:
    """Build the inputs (untimed) and return the workload's operations."""
    if workload == "forward":
        complex_r2, robin, poly_bc = problems.build(workload, p)
        c = complex(p["c_re"], p["c_im"])
        return [
            _forward_op("complex-K40", complex_r2,
                        oracle.PiecewiseProblem([(0.0, 0.0)], [1.0], [c]), 40),
            _forward_op("step-K160", robin,
                        oracle.PiecewiseProblem(_step_sigma(p), [1.0], [1.0]), 160),
            _forward_op("step-M1-K60", poly_bc,
                        oracle.PiecewiseProblem(_step_sigma(p), [p["a"], 1.0], [1.0]), 60),
        ]
    if workload == "invert-K60":
        return [_invert_op(p, workdir)]
    if workload == "regular-roundtrip":
        return [_regular_op(p)]
    raise ValueError(f"unknown workload {workload!r}")


def write_invert_input(p: dict, path) -> None:
    """Spectral data of the seed's step problem, from the oracle."""
    lams, alphas = oracle.real_spectrum(
        oracle.PiecewiseProblem(_step_sigma(p), [1.0], [1.0]), 60)
    sd = isturm.SpectralData.from_flat(lams, alphas, m1=0, case="M1=M2")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(isturm.spectral_data_to_json(sd), fh)


def _invert_op(p: dict, workdir) -> Op:
    sd_path = workdir / "spectral_data.json"
    write_invert_input(p, sd_path)
    serial = itertools.count()

    def call():
        n = next(serial)
        out, diag = workdir / f"reconstruction-{n}.json", workdir / f"diag-{n}.json"
        rc = isturm.cli.main(["invert", "--config", str(sd_path), "--K", "60", "--nx", "512",
                              "--out", str(out), "--diag", str(diag)])
        return rc, out, diag

    def check(result):
        rc, out, diag = result
        if rc != 0:
            return {"ok": False, "why": f"cli exit code {rc}"}
        with open(out, encoding="utf-8") as fh:
            rec = json.load(fh)
        with open(diag, encoding="utf-8") as fh:
            dg = json.load(fh)
        sig = np.array([complex(*v) for v in rec["sigma"]["values"]])
        x = np.linspace(0.0, PI, rec["sigma"]["grid_points"])
        truth = np.where(x > p["xj"], p["h"], 0.0)
        r1 = [complex(*c) for c in rec["r1"]]
        r2 = [complex(*c) for c in rec["r2"]]
        figures = {
            "sigma_l2_err": _l2(x, sig, truth),
            "r_coeff_err": max(_coeff_err(r1, [1.0]), _coeff_err(r2, [1.0])),
        }
        res = _gate(figures, {"sigma_l2_err": GATES["invert_sigma_l2_err_per_h"] * p["h"],
                              "r_coeff_err": GATES["invert_r_coeff_err"]})
        res["diagnostics"] = dg
        return res
    return Op("cli-invert-K60", call, check)


def _regular_op(p: dict) -> Op:
    (full,) = problems.build("regular-roundtrip", p)
    coeffs = problems.regular_sigma_coeffs(p)

    def call():
        return isturm.verify.regular_roundtrip(full, K=40, n_x_forward=N_X_FORWARD,
                                              n_x_inverse=257)

    def check(rep):
        x = np.asarray(rep["x_grid"], dtype=float)
        n = len(x)
        inner = slice(int(0.05 * n), int(0.95 * n))
        q_true = p["q0"] + p["q1"] * x
        sig_true = np.polyval(coeffs[::-1], x)
        figures = {
            "sigma_l2_err": _l2(x, np.asarray(rep["sigma_values"]), sig_true),
            "r_coeff_err": max(_coeff_err(rep["result"].r1.coeffs, full.inner.r1.coeffs),
                               _coeff_err(rep["result"].r2.coeffs, full.inner.r2.coeffs)),
            "q_err": float(np.max(np.abs(np.real(rep["q_values"][inner]) - q_true[inner]))),
        }
        res = _gate(figures, {"sigma_l2_err": GATES["regular_sigma_l2_err"],
                              "r_coeff_err": GATES["regular_r_coeff_err"],
                              "q_err": GATES["regular_q_err"]})
        res["bN2_err"] = abs(rep["bN2_estimate"] - 1.0)
        res["diagnostics"] = rep["diagnostics"]
        return res
    return Op("regular-roundtrip-K40", call, check)
