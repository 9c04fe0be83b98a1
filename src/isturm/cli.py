"""Command-line surface: forward data generation, inversion, round trips and
model data emission.  All file output is canonical JSON (sorted keys, fixed
float formatting, complex numbers as [re, im] pairs) written atomically."""
from __future__ import annotations

import argparse
import contextlib
import math
import sys

from ._util import cplx, read_json, write_json_atomic
from .errors import (AmbiguousOffset, CountMismatch, FitResidualTooLarge,
                     IsturmError, MalformedInput, Singular)
from .forward import forward_spectral_data
from .model import ModelData
from .problem import problem_from_json
from .reconstruct import invert_spectral_data
from .refine import invert_regular
from .spectral import spectral_data_from_json, spectral_data_to_json
from .verify import regular_roundtrip, roundtrip

# Exit code of a failed command: the first row whose type matches the error.
_EXIT_CODES = (
    (CountMismatch, 2),
    ((MalformedInput, OSError), 3),
    (AmbiguousOffset, 4),
    (Singular, 5),
    (FitResidualTooLarge, 6),
    (IsturmError, 1),
)

DEFAULT_TOL = {"sigma_l2": 0.1, "r1": 5e-3, "r2": 5e-3}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors raise MalformedInput instead of
    exiting with argparse's own code."""

    def error(self, message):
        raise MalformedInput(f"{self.prog}: {message}")


def _int_at_least(low):
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value
    return convert


def _tolerances(cfg) -> dict:
    """DEFAULT_TOL updated by the config's optional 'tolerances' object."""
    tol = cfg.get("tolerances", {})
    if not (isinstance(tol, dict) and set(tol) <= set(DEFAULT_TOL)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) and v >= 0 for v in tol.values())):
        raise MalformedInput(f"tolerances must map keys among {sorted(DEFAULT_TOL)} "
                             f"to finite non-negative numbers, not {tol!r}")
    return {**DEFAULT_TOL, **tol}


def _reconstruction_json(res) -> dict:
    return {
        "sigma": {
            "grid_points": len(res.x_grid),
            "values": [cplx(v) for v in res.sigma],
        },
        "r1": res.r1.to_json(),
        "r2": res.r2.to_json(),
        "diagnostics": {k: (cplx(v) if isinstance(v, complex) else v)
                        for k, v in res.diagnostics.items()},
    }


def cmd_forward(args) -> int:
    full = problem_from_json(read_json(args.config))
    sd = forward_spectral_data(full.inner, args.K, args.nx)
    write_json_atomic(args.out, spectral_data_to_json(sd))
    print(f"wrote {args.out}: K={sd.K}, M1={sd.m1}, case={sd.case}")
    return 0


def cmd_invert(args) -> int:
    sd = spectral_data_from_json(read_json(args.config))
    invert = invert_regular if args.regular else invert_spectral_data
    out = invert(sd, K=args.K, n_x=args.nx)
    payload = _reconstruction_json(out)
    if args.regular:
        payload["q"] = [cplx(v) for v in out.q]
        payload["r2_check"] = out.r2_check.to_json()
        payload["sigma_pi"] = cplx(out.sigma_pi)
    write_json_atomic(args.out, payload)
    if args.diag:
        write_json_atomic(args.diag, payload["diagnostics"])
    print(f"wrote {args.out}: M1={out.m1}, N={out.N}, "
          f"r1 fit {out.diagnostics['r1_fit_residual']:.2e}, "
          f"r2 fit {out.diagnostics['r2_fit_residual']:.2e}")
    return 0


def cmd_roundtrip(args) -> int:
    cfg = read_json(args.config)
    full = problem_from_json(cfg)
    tol = _tolerances(cfg)
    run = regular_roundtrip if args.regular else roundtrip
    rep = run(full, args.K, n_x_forward=args.nx, n_x_inverse=min(args.nx, 512))
    checks = (("sigma L2 error", "sigma_l2_error", "sigma_l2"),
              ("r1 coeff error", "r1_coeff_error", "r1"),
              ("r2 coeff error", "r2_coeff_error", "r2"))
    ok = all(rep[key] <= tol[t] for _, key, t in checks)
    for label, key, t in checks:
        print(f"{label} : {rep[key]:.3e} (tol {tol[t]:g})")
    print(f"forward {rep['t_forward']:.1f}s, invert {rep['t_invert']:.1f}s")
    if args.out:
        keys = ["K", "t_forward", "t_invert"] + [key for _, key, _ in checks]
        write_json_atomic(args.out, {**{k: rep[k] for k in keys}, "pass": ok})
    return 0 if ok else 1


def cmd_model(args) -> int:
    sd = ModelData(args.M1).spectral_data(args.K)
    write_json_atomic(args.out, spectral_data_to_json(sd))
    print(f"wrote {args.out}: model data M1={args.M1}, K={args.K}")
    return 0


# Every flag a command may take; each command lists the ones it reads.
_FLAGS = {
    "--config": dict(required=True, help="input JSON path"),
    "--M1": dict(type=_int_at_least(0), default=0, help="model degree index"),
    "--K": dict(type=_int_at_least(1), default=40, help="truncation size"),
    "--nx": dict(type=_int_at_least(33), default=1024, help="grid size"),
    "--regular": dict(action="store_true",
                      help="defect-corrected inversion for a regular potential"),
    "--diag": dict(default=None,
                   help="diagnostics JSON path; on failure it records the error"),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="isturm",
                description="forward/inverse solver for the "
                            "polynomial-condition eigenproblem")
    sub = p.add_subparsers(dest="command", required=True)
    commands = (
        ("forward", cmd_forward, "problem.json -> spectral_data.json",
         "spectral_data.json", ("--config", "--K", "--nx")),
        ("invert", cmd_invert, "spectral_data.json -> reconstruction.json",
         "reconstruction.json", ("--config", "--K", "--nx", "--regular", "--diag")),
        ("roundtrip", cmd_roundtrip, "forward + invert + compare",
         None, ("--config", "--K", "--nx", "--regular")),
        ("model", cmd_model, "emit model spectral data",
         "spectral_data.json", ("--M1", "--K")),
    )
    for name, func, help_text, out, flags in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.add_argument("--out", default=out, help="output JSON path")
    return p


def main(argv=None) -> int:
    """Run one command; any failure prints one 'error:' line and returns the
    exit code from _EXIT_CODES, and is recorded in --diag when that is given."""
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (IsturmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "diag", None):
            with contextlib.suppress(OSError):
                write_json_atomic(args.diag, {"error": str(exc)})
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
