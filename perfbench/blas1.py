"""Single-threaded BLAS baseline: time solve_on_grid on one spectral-data file.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/blas1.py SRC_DIR SPECTRAL_DATA.json K N_X

Prints the seconds spent in solve_on_grid (the MainEquationContext is built
before the clock starts, as invert_spectral_data builds it before the call).
"""
import json
import sys
import time


def main(src, sd_path, K, n_x) -> float:
    sys.path.insert(0, src)
    import isturm

    with open(sd_path, encoding="utf-8") as fh:
        sd = isturm.spectral_data_from_json(json.load(fh)).truncated(K)
    md = isturm.ModelData(sd.m1)
    ctx = isturm.MainEquationContext(sd, md, K)
    t0 = time.perf_counter()
    isturm.solve_on_grid(sd, md, K, n_x=n_x, ctx=ctx)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(main(sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])))
