"""Command-line surface: forward data generation, inversion, round trips and
model data emission.  All file output is canonical JSON (sorted keys, fixed
float formatting, complex numbers as [re, im] pairs) written atomically."""
from __future__ import annotations

import argparse
import dataclasses
import sys

from ._util import cplx, read_json, write_json_atomic
from .errors import (AmbiguousOffset, CountMismatch, FitResidualTooLarge,
                     IsturmError, MalformedInput, Singular)
from .forward import forward_spectral_data
from .model import ModelData
from .problem import problem_from_json
from .reconstruct import invert_spectral_data
from .regular import check_r2_shift
from .spectral import spectral_data_from_json, spectral_data_to_json
from .verify import roundtrip

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_COUNT_MISMATCH = 2
EXIT_IO = 3
EXIT_AMBIGUOUS = 4
EXIT_SINGULAR = 5
EXIT_FIT = 6

DEFAULT_TOL = {"sigma_l2": 0.1, "r1": 5e-3, "r2": 5e-3}


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
    try:
        cfg = read_json(args.config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    full = problem_from_json(cfg)
    try:
        sd = forward_spectral_data(full.inner, args.K, args.nx)
    except CountMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COUNT_MISMATCH
    try:
        write_json_atomic(args.out, spectral_data_to_json(sd))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}: K={sd.K}, M1={sd.m1}, case={sd.case}")
    return EXIT_OK


def cmd_invert(args) -> int:
    diag_payload = {}
    try:
        sd = spectral_data_from_json(read_json(args.config))
    except (OSError, MalformedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    N = None if args.N in (None, "auto") else int(args.N)
    try:
        if args.regular:
            from .refine import invert_refined, rebuild_sigma_tail, recover_q
            ref = invert_refined(sd, K=args.K, n_x=args.nx, N=N, passes=1)
            res = ref.base
            q, _ = recover_q(ref.sigma, ref.x_grid, res.K)
            sigma_fixed, sig_pi = rebuild_sigma_tail(ref.sigma, q, ref.x_grid, res.K)
            out = dataclasses.replace(ref, sigma=sigma_fixed)
        else:
            res = out = invert_spectral_data(sd, K=args.K, n_x=args.nx, N=N)
    except AmbiguousOffset as exc:
        diag_payload["error"] = str(exc)
        code = EXIT_AMBIGUOUS
    except Singular as exc:
        diag_payload["error"] = str(exc)
        code = EXIT_SINGULAR
    except FitResidualTooLarge as exc:
        diag_payload["error"] = str(exc)
        code = EXIT_FIT
    except MalformedInput as exc:
        diag_payload["error"] = str(exc)
        code = EXIT_IO
    else:
        payload = _reconstruction_json(out)
        if args.regular:
            payload["q"] = [cplx(v) for v in q]
            payload["r2_check"] = check_r2_shift(out.r2, out.r1, sig_pi).to_json()
            payload["sigma_pi"] = cplx(sig_pi)
        try:
            write_json_atomic(args.out, payload)
            if args.diag:
                write_json_atomic(args.diag, payload["diagnostics"])
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {args.out}: M1={res.m1}, N={res.N}, "
              f"r1 fit {out.diagnostics['r1_fit_residual']:.2e}, "
              f"r2 fit {out.diagnostics['r2_fit_residual']:.2e}")
        return EXIT_OK
    if args.diag:
        try:
            write_json_atomic(args.diag, diag_payload)
        except OSError:
            pass
    print(f"error: {diag_payload['error']}", file=sys.stderr)
    return code


def cmd_roundtrip(args) -> int:
    try:
        cfg = read_json(args.config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    full = problem_from_json(cfg)
    tol = dict(DEFAULT_TOL)
    tol.update(cfg.get("tolerances", {}))
    try:
        if args.regular:
            from .verify import regular_roundtrip
            rep = regular_roundtrip(full, args.K, n_x_forward=args.nx,
                                    n_x_inverse=min(args.nx, 512))
        else:
            rep = roundtrip(full, args.K, n_x_forward=args.nx,
                            n_x_inverse=min(args.nx, 512))
    except CountMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COUNT_MISMATCH
    ok = (rep["sigma_l2_error"] <= tol["sigma_l2"]
          and rep["r1_coeff_error"] <= tol["r1"]
          and rep["r2_coeff_error"] <= tol["r2"])
    lines = [
        f"sigma L2 error : {rep['sigma_l2_error']:.3e} (tol {tol['sigma_l2']:g})",
        f"r1 coeff error : {rep['r1_coeff_error']:.3e} (tol {tol['r1']:g})",
        f"r2 coeff error : {rep['r2_coeff_error']:.3e} (tol {tol['r2']:g})",
        f"forward {rep['t_forward']:.1f}s, invert {rep['t_invert']:.1f}s",
    ]
    print("\n".join(lines))
    if args.out:
        payload = {
            "K": rep["K"],
            "sigma_l2_error": rep["sigma_l2_error"],
            "r1_coeff_error": rep["r1_coeff_error"],
            "r2_coeff_error": rep["r2_coeff_error"],
            "t_forward": rep["t_forward"],
            "t_invert": rep["t_invert"],
            "pass": bool(ok),
        }
        try:
            write_json_atomic(args.out, payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if ok else EXIT_FAIL


def cmd_model(args) -> int:
    md = ModelData(args.M1)
    sd = md.spectral_data(args.K)
    try:
        write_json_atomic(args.out, spectral_data_to_json(sd))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}: model data M1={args.M1}, K={args.K}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="isturm",
                                description="forward/inverse solver for the "
                                            "polynomial-condition eigenproblem")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=False, help="input JSON path")
        sp.add_argument("--K", type=int, default=40, help="truncation size")
        sp.add_argument("--nx", type=int, default=1024, help="grid size")
        sp.add_argument("--N", default="auto", help="contour index or 'auto'")
        sp.add_argument("--regular", action="store_true",
                        help="classical-potential transfer on output")
        sp.add_argument("--out", default=None, help="output JSON path")
        sp.add_argument("--diag", default=None, help="diagnostics JSON path")

    sp = sub.add_parser("forward", help="problem.json -> spectral_data.json")
    common(sp)
    sp.set_defaults(func=cmd_forward, out_default="spectral_data.json")

    sp = sub.add_parser("invert", help="spectral_data.json -> reconstruction.json")
    common(sp)
    sp.set_defaults(func=cmd_invert, out_default="reconstruction.json")

    sp = sub.add_parser("roundtrip", help="forward + invert + compare")
    common(sp)
    sp.set_defaults(func=cmd_roundtrip, out_default=None)

    sp = sub.add_parser("model", help="emit model spectral data")
    common(sp)
    sp.add_argument("--M1", type=int, default=0)
    sp.set_defaults(func=cmd_model, out_default="spectral_data.json")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is None:
        args.out = getattr(args, "out_default", None)
    if args.command in ("forward", "invert", "roundtrip") and not args.config:
        print("error: --config is required", file=sys.stderr)
        return EXIT_IO
    try:
        return args.func(args)
    except IsturmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
