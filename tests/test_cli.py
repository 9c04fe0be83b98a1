import json

import numpy as np
import pytest

from isturm import Polynomial, ProblemL, SigmaZero, problem_to_json
from isturm._util import write_json_atomic
from isturm.cli import main
from isturm.spectral import spectral_data_from_json

PI = np.pi


def _write_problem(path, r1, r2, sigma=None):
    prob = ProblemL(sigma or SigmaZero(), Polynomial(r1), Polynomial(r2))
    write_json_atomic(path, problem_to_json(prob))
    return path


def test_forward_model_problem(tmp_path):
    cfg = _write_problem(tmp_path / "problem.json", [0, 1], [0])
    out = tmp_path / "sd.json"
    code = main(["forward", "--config", str(cfg), "--K", "5", "--nx", "512",
                 "--out", str(out)])
    assert code == 0
    sd = spectral_data_from_json(json.loads(out.read_text()))
    np.testing.assert_allclose(sd.lam, [0, 0, 1, 4, 9], atol=1e-8)
    np.testing.assert_allclose(sd.alpha, [1 / PI, 0, 2 / PI, 2 / PI, 2 / PI],
                               atol=1e-8)


def test_forward_neumann(tmp_path):
    cfg = _write_problem(tmp_path / "problem.json", [1], [0])
    out = tmp_path / "sd.json"
    assert main(["forward", "--config", str(cfg), "--K", "3", "--nx", "512",
                 "--out", str(out)]) == 0
    sd = spectral_data_from_json(json.loads(out.read_text()))
    np.testing.assert_allclose(sd.lam, [0, 1, 4], atol=1e-9)


def test_forward_deterministic_bytes(tmp_path):
    cfg = _write_problem(tmp_path / "problem.json", [1], [1])
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["forward", "--config", str(cfg), "--K", "4", "--nx", "512",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # and the eigenvalues agree with the bisection oracle
    from scipy.optimize import brentq
    f = lambda r: np.cos(r * PI) - r * np.sin(r * PI)
    sd = spectral_data_from_json(json.loads(out1.read_text()))
    want = [brentq(f, 1e-9, 0.5, xtol=1e-14) ** 2,
            brentq(f, 1 + 1e-9, 1.5, xtol=1e-14) ** 2]
    np.testing.assert_allclose(sd.lam[:2].real, want, atol=1e-8)


def test_invert_model_data(tmp_path):
    sd_path = tmp_path / "sd.json"
    assert main(["model", "--M1", "1", "--K", "25", "--out", str(sd_path)]) == 0
    out = tmp_path / "rec.json"
    code = main(["invert", "--config", str(sd_path), "--K", "25", "--nx", "129",
                 "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    sig = np.array([v[0] + 1j * v[1] for v in rec["sigma"]["values"]])
    assert np.max(np.abs(sig)) < 1e-10
    r1 = [complex(a, b) for a, b in rec["r1"]]
    np.testing.assert_allclose(r1, [0, 1], atol=1e-10)
    r2 = [complex(a, b) for a, b in rec["r2"]]
    assert np.max(np.abs(r2)) < 1e-10


def test_invert_deterministic(tmp_path):
    sd_path = tmp_path / "sd.json"
    main(["model", "--M1", "0", "--K", "15", "--out", str(sd_path)])
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["invert", "--config", str(sd_path), "--K", "15",
                     "--nx", "65", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_roundtrip_model_problem(tmp_path):
    cfg = _write_problem(tmp_path / "problem.json", [0, 1], [0])
    data = json.loads(cfg.read_text())
    data["tolerances"] = {"sigma_l2": 1e-6, "r1": 1e-6, "r2": 1e-6}
    write_json_atomic(cfg, data)
    out = tmp_path / "report.json"
    code = main(["roundtrip", "--config", str(cfg), "--K", "12", "--nx", "512",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert rep["sigma_l2_error"] < 1e-6


def test_missing_config_is_io_error(tmp_path):
    assert main(["forward", "--config", str(tmp_path / "nope.json")]) == 3


@pytest.mark.parametrize("case", ["no-multiplicity", "alpha-length", "K-splits-cluster"])
def test_malformed_spectral_data_exit_code(tmp_path, capsys, case):
    # the model data opens with a triple zero, then a simple pole at 1
    sd_path = tmp_path / "sd.json"
    assert main(["model", "--M1", "2", "--K", "10", "--out", str(sd_path)]) == 0
    data = json.loads(sd_path.read_text())
    K = "10"
    if case == "no-multiplicity":
        del data["eigs"][1]["multiplicity"]
    elif case == "alpha-length":
        data["eigs"][1]["alpha"].append([0.0, 0.0])
    else:
        K = "2"
    write_json_atomic(sd_path, data)
    capsys.readouterr()
    code = main(["invert", "--config", str(sd_path), "--K", K, "--nx", "65",
                 "--out", str(tmp_path / "rec.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


def test_ambiguous_offset_exit_code(tmp_path):
    # synthetic data with rho_n = n - 1.25: offset fraction falls in the gray zone
    rho = np.arange(1, 31) - 1.25
    eigs = [{"lambda": [float(r * r), 0.0], "multiplicity": 1,
             "alpha": [[2 / PI, 0.0]]} for r in rho]
    sd_path = tmp_path / "sd.json"
    write_json_atomic(sd_path, {"M1": -1, "case": "M1=M2", "eigs": eigs})
    code = main(["invert", "--config", str(sd_path), "--K", "30", "--nx", "65",
                 "--out", str(tmp_path / "rec.json"),
                 "--diag", str(tmp_path / "diag.json")])
    assert code == 4
    diag = json.loads((tmp_path / "diag.json").read_text())
    assert "error" in diag


def test_package_exports_are_the_public_api():
    # __all__ names the public functions and classes, not the submodules
    import types

    import isturm
    assert len(set(isturm.__all__)) == len(isturm.__all__)
    for name in isturm.__all__:
        assert not isinstance(getattr(isturm, name), types.ModuleType), name
    public = {name for name, value in vars(isturm).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(isturm.__all__)
