import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from isturm import (ModelData, Polynomial, ProblemL, SigmaGridSamples, SigmaPolynomialInX,
                    SigmaStep, SigmaZero, find_eigenvalues, integrate_solution,
                    problem_from_json, problem_to_json)
from isturm import cli
from isturm._util import write_json_atomic
from isturm.cli import main
from isturm.errors import (AmbiguousOffset, CountMismatch, FitResidualTooLarge,
                           MalformedInput, Singular, UnsupportedCase)
from isturm.spectral import spectral_data_from_json, spectral_data_to_json

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


def _invert_json(sd_path, out, *extra):
    assert main(["invert", "--config", str(sd_path), "--out", str(out), *extra]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("r1", [[1], [0.8, 1]], ids=["M1=0", "M1=1"])
def test_real_data_gives_exactly_real_boundary_polynomials(tmp_path, r1):
    # CLI-forwarded data of a real step problem at K = 60 is real, so both the
    # plain and the defect-corrected inversion write r1, r2 and r2_check with
    # imaginary parts exactly 0, as alpha has them
    cfg = _write_problem(tmp_path / "problem.json", r1, [1], SigmaStep(1.0, 0.45 * PI))
    sd_path = tmp_path / "sd.json"
    assert main(["forward", "--config", str(cfg), "--K", "60", "--nx", "1024",
                 "--out", str(sd_path)]) == 0
    plain = _invert_json(sd_path, tmp_path / "rec.json", "--K", "60", "--nx", "129")
    regular = _invert_json(sd_path, tmp_path / "reg.json", "--regular", "--K", "40",
                           "--nx", "129")
    for rec, keys in ((plain, ("r1", "r2")), (regular, ("r1", "r2", "r2_check"))):
        for key in keys:
            assert [im for _, im in rec[key]] == [0.0] * len(rec[key]), key
    np.testing.assert_allclose([re for re, _ in plain["r1"]], r1, atol=1e-3)


def test_complex_data_keeps_complex_r2(tmp_path):
    cfg = _write_problem(tmp_path / "problem.json", [1], [1], SigmaStep(1.0 + 0.3j, 0.45 * PI))
    sd_path = tmp_path / "sd.json"
    assert main(["forward", "--config", str(cfg), "--K", "20", "--nx", "1024",
                 "--out", str(sd_path)]) == 0
    rec = _invert_json(sd_path, tmp_path / "rec.json", "--K", "20", "--nx", "65")
    assert abs(rec["r2"][0][1]) > 1e-4


def test_missing_config_is_io_error(tmp_path):
    assert main(["forward", "--config", str(tmp_path / "nope.json")]) == 3


@pytest.mark.parametrize("case", ["no-multiplicity", "alpha-length", "K-splits-cluster",
                                  "no-eigs", "lambda-one-element", "alpha-bare-number",
                                  "M1-string", "multiplicity-zero",
                                  "multiplicity-negative", "K-exceeds-data",
                                  "lambda-nan", "alpha-inf", "duplicate-lambda",
                                  "duplicate-adjacent", "M1-infinite",
                                  "multiplicity-infinite", "M1-fractional",
                                  "multiplicity-fractional", "multiplicity-four",
                                  "M1-three", "case-bogus", "case-list",
                                  "M1-absent-short", "lambda-bool", "multiplicity-bool",
                                  "M1-bool", "alpha-empty"])
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
    elif case == "no-eigs":
        del data["eigs"]
    elif case == "lambda-one-element":
        data["eigs"][1]["lambda"] = [1.0]
    elif case == "alpha-bare-number":
        data["eigs"][1]["alpha"] = [0.5]
    elif case == "M1-string":
        data["M1"] = "x"
    elif case == "multiplicity-zero":
        data["eigs"][1]["multiplicity"] = 0
        data["eigs"][1]["alpha"] = []
    elif case == "multiplicity-negative":
        data["eigs"][1]["multiplicity"] = -1
        data["eigs"][1]["alpha"] = []
    elif case == "K-exceeds-data":
        K = "20"
    elif case == "lambda-nan":
        data["eigs"][1]["lambda"] = [float("nan"), 0.0]
    elif case == "alpha-inf":
        data["eigs"][1]["alpha"] = [[float("inf"), 0.0]]
    elif case == "duplicate-lambda":
        data["eigs"][5]["lambda"] = data["eigs"][2]["lambda"]
    elif case == "duplicate-adjacent":
        data["eigs"][3]["lambda"] = data["eigs"][2]["lambda"]
    elif case == "M1-infinite":
        data["M1"] = float("inf")
    elif case == "multiplicity-infinite":
        data["eigs"][1]["multiplicity"] = float("inf")
    elif case == "M1-fractional":
        data["M1"] = 0.7
    elif case == "multiplicity-fractional":
        data["eigs"][1]["multiplicity"] = 1.9
    elif case == "multiplicity-four":  # above the cap of 3
        data["eigs"][1]["multiplicity"] = 4
        data["eigs"][1]["alpha"] = [[0.5, 0.0]] * 4
    elif case == "M1-three":
        data["M1"] = 3
    elif case == "case-bogus":
        data["case"] = "bogus"
    elif case == "case-list":
        data["case"] = ["x"]
    elif case == "M1-absent-short":  # M1 must then be detected, from >= 20 records
        data["M1"] = -1
    elif case == "lambda-bool":  # true is not the number 1
        data["eigs"][1]["lambda"] = [True, 0.0]
    elif case == "multiplicity-bool":
        data["eigs"][1]["multiplicity"] = True
    elif case == "M1-bool":
        data["M1"] = False
    elif case == "alpha-empty":  # no coefficient is not m zero coefficients
        data["eigs"][0]["alpha"] = []
    else:
        K = "2"
    sd_path.write_text(json.dumps(data))  # plain json: it writes NaN and Infinity
    capsys.readouterr()
    code = main(["invert", "--config", str(sd_path), "--K", K, "--nx", "65",
                 "--out", str(tmp_path / "rec.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["forward", "roundtrip", "invert"])
@pytest.mark.parametrize("case", ["no-height", "unknown-kind", "not-json"])
def test_malformed_problem_exit_code(tmp_path, capsys, command, case):
    cfg = tmp_path / "problem.json"
    if case == "not-json":
        cfg.write_text("{not json")
    else:
        _write_problem(cfg, [1], [1], sigma=SigmaStep(1.0, PI / 2))
        data = json.loads(cfg.read_text())
        if case == "no-height":
            del data["sigma"]["height"]
        else:
            data["sigma"]["kind"] = "wavelet"
        write_json_atomic(cfg, data)
    capsys.readouterr()
    code = main([command, "--config", str(cfg), "--K", "5", "--nx", "65",
                 "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command, case", [
    ("forward", "r2-nan"), ("forward", "height-inf"), ("roundtrip", "r2-nan"),
    ("roundtrip", "tolerances-string"), ("roundtrip", "tolerance-string"),
    ("roundtrip", "tolerance-unknown-key"), ("roundtrip", "tolerance-negative"),
    ("roundtrip", "tolerance-nan"), ("forward", "jump-huge"), ("forward", "jump-string"),
    ("forward", "jump-bool"), ("forward", "height-bool")])
def test_malformed_config_values_exit_code(tmp_path, capsys, command, case):
    cfg = _write_problem(tmp_path / "problem.json", [1], [1], sigma=SigmaStep(1.0, PI / 2))
    data = json.loads(cfg.read_text())
    if case == "r2-nan":
        data["r2"] = [[float("nan"), 0.0]]
    elif case == "height-inf":
        data["sigma"]["height"] = [float("inf"), 0.0]
    elif case == "jump-huge":
        data["sigma"]["jump"] = 10 ** 400  # a JSON integer beyond the float range
    elif case == "jump-string":
        data["sigma"]["jump"] = "1.5"
    elif case == "jump-bool":
        data["sigma"]["jump"] = True
    elif case == "height-bool":
        data["sigma"]["height"] = [True, 0.0]
    else:
        data["tolerances"] = {"tolerances-string": "x",
                              "tolerance-string": {"r1": "a"},
                              "tolerance-unknown-key": {"sigma": 0.1},
                              "tolerance-negative": {"r2": -1.0},
                              "tolerance-nan": {"sigma_l2": float("nan")}}[case]
    cfg.write_text(json.dumps(data))
    capsys.readouterr()
    code = main([command, "--config", str(cfg), "--K", "5", "--nx", "65",
                 "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("height", [1e308, -1e308, 1e308j])
def test_huge_step_height_exit_code(tmp_path, capsys, height):
    # the eigenvalue search would integrate where the solutions overflow: one
    # typed error before any scan, as a height of -300 already gets
    cfg = _write_problem(tmp_path / "problem.json", [1], [1], sigma=SigmaStep(height, PI / 2))
    capsys.readouterr()
    code = main(["forward", "--config", str(cfg), "--K", "5", "--nx", "65",
                 "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_huge_poly_sigma_exit_code(tmp_path, capsys):
    # the overflowing sigma evaluation prints no warning before the error line
    cfg = _write_problem(tmp_path / "problem.json", [1], [1],
                         sigma=SigmaPolynomialInX([0, 1e308, 1e308]))
    capsys.readouterr()
    code = main(["forward", "--config", str(cfg), "--K", "5", "--nx", "65",
                 "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# Values a mutation puts in place of a key's or a list entry's value.
_BAD_VALUES = st.sampled_from(["x", None, {}, [], True, False, float("nan"), 1e308, -1e308,
                               10 ** 400, -(10 ** 400), 0, -1, 1.9, [1.0], [[]], [None, 0.0]])
_VALID_DOCS = {
    "spectral": [spectral_data_to_json(ModelData(2).spectral_data(10)),
                 spectral_data_to_json(ModelData(0).spectral_data(4))],
    "problem": [problem_to_json(ProblemL(sigma, Polynomial([1, 1]), Polynomial([0.5j])))
                for sigma in (SigmaZero(), SigmaStep(1.0, 1.5), SigmaPolynomialInX([0, 1]),
                              SigmaGridSamples([0.0, 1.0, 0.5]))],
}
_LOADERS = {"spectral": spectral_data_from_json, "problem": problem_from_json}


def _paths(doc, prefix=()):
    """Key/index path of every value nested in doc."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for key, value in items:
        out += [prefix + (key,)] + _paths(value, prefix + (key,))
    return out


@st.composite
def _mutated(draw, docs):
    """A valid document with one to three of its values dropped or replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(doc)
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for k in parents:
            parent = parent[k]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(_BAD_VALUES))
    return doc


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_loaders_take_mutated_documents(kind, data):
    # a mutated document loads or is malformed input; no other error escapes
    doc = data.draw(st.one_of(_mutated(_VALID_DOCS[kind]), _BAD_VALUES))
    try:
        _LOADERS[kind](doc)
    except MalformedInput:
        pass


@pytest.mark.parametrize("command, extra", [
    ("forward", ["--K", "abc"]), ("forward", ["--N", "3"]), (None, []),
    ("forward", ["--K", "0"]), ("forward", ["--K", "1"]), ("invert", ["--K", "0"]),
    ("invert", ["--nx", "2"]), ("invert", ["--N", "x"]), ("invert", ["--N", "0"]),
    ("invert", ["--N", "3"]), ("invert", ["--K", "1"]),
    ("model", ["--M1", "-1"]), ("model", ["--K", "0"]), ("model", ["--nx", "65"]),
    ("model", ["--M1", "3"]), ("model", ["--M1", "1", "--K", "1"])],
    ids=["K-abc", "forward-N", "no-command", "forward-K0", "forward-K1", "invert-K0",
         "invert-nx2", "invert-N-x", "invert-N0", "invert-N-unknown", "invert-K1",
         "model-M1-negative", "model-K0", "model-nx", "model-M1-3", "model-K-splits-cluster"])
def test_bad_arguments_exit_code(tmp_path, capsys, command, extra):
    # every other argument is valid, so the one under test decides the code
    configs = {"forward": _write_problem(tmp_path / "problem.json", [1], [1]),
               "invert": tmp_path / "sd.json"}
    assert main(["model", "--K", "10", "--out", str(configs["invert"])]) == 0
    out = str(tmp_path / "out.json")
    if command is None:
        argv = []
    elif command == "model":
        argv = ["model", "--K", "5", "--out", out] + extra
    else:
        argv = [command, "--config", str(configs[command]), "--K", "10", "--nx", "65",
                "--out", out] + extra
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


def test_out_path_that_is_a_directory_leaves_no_temp_file(tmp_path, capsys):
    # the rename onto a directory fails after the temporary file is written;
    # write_json_atomic removes it before the error reaches the exit-code table
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main(["model", "--K", "5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert not any(out.iterdir())


def test_library_range_checks_are_malformed_input():
    with pytest.raises(MalformedInput):
        ModelData(-1)
    with pytest.raises(MalformedInput):
        integrate_solution(SigmaZero(), 1.0, (1.0, 0.0), n_x=32)
    with pytest.raises(MalformedInput):
        find_eigenvalues(ProblemL(SigmaZero(), Polynomial([0, 1]), Polynomial([0])), 2)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("command, target", [
    ("forward", "forward_spectral_data"), ("invert", "invert_spectral_data"),
    ("roundtrip", "roundtrip"), ("model", "ModelData")])
def test_exit_code_table(tmp_path, capsys, monkeypatch, command, target):
    # every command maps a failure of its library call through the one table
    problem = _write_problem(tmp_path / "problem.json", [1], [1])
    configs = {"forward": problem, "roundtrip": problem, "invert": tmp_path / "sd.json"}
    assert main(["model", "--K", "10", "--out", str(configs["invert"])]) == 0
    argv = [command, "--K", "10", "--out", str(tmp_path / "out.json")]
    if command in configs:
        argv += ["--config", str(configs[command])]
    diag = tmp_path / "diag.json"
    if command == "invert":
        argv += ["--diag", str(diag)]
    for exc, code in [(CountMismatch("count"), 2), (MalformedInput("schema"), 3),
                      (OSError("disk"), 3), (AmbiguousOffset("offset"), 4),
                      (Singular("singular"), 5), (FitResidualTooLarge("fit"), 6),
                      (UnsupportedCase("case"), 1)]:
        monkeypatch.setattr(cli, target, _raise(exc))
        capsys.readouterr()
        assert main(argv) == code, exc
        assert capsys.readouterr().err == f"error: {exc}\n"
        if command == "invert":
            assert json.loads(diag.read_text()) == {"error": str(exc)}
            diag.unlink()


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


def test_case_m1_below_m2_end_to_end(tmp_path, capsys):
    # sigma = 0, r1 = 1, r2 = lam + 0.7: deg r1 = deg r2 - 1, whose forward
    # problem is solved and whose reconstruction is not implemented
    def delta(lam):  # -rho sin(rho pi) + (lam + 0.7) cos(rho pi), real for real lam
        if lam < 0:
            s = np.sqrt(-lam)
            return s * np.sinh(s * PI) + (lam + 0.7) * np.cosh(s * PI)
        rho = np.sqrt(lam)
        return -rho * np.sin(rho * PI) + (lam + 0.7) * np.cos(rho * PI)

    grid = np.concatenate([np.linspace(-20.0, 0.0, 400), np.linspace(0.0, 12.0, 2000)[1:] ** 2])
    vals = np.array([delta(g) for g in grid])
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[:12]
    want = np.array([brentq(delta, grid[i], grid[i + 1], xtol=1e-15) for i in flips])
    cfg = _write_problem(tmp_path / "problem.json", [1], [0.7, 1])
    sd_path = tmp_path / "sd.json"
    assert main(["forward", "--config", str(cfg), "--K", "12", "--out", str(sd_path)]) == 0
    sd = spectral_data_from_json(json.loads(sd_path.read_text()))
    assert sd.case == "M1=M2-1"
    assert np.max(np.abs(sd.lam - want) / np.maximum(1.0, np.abs(want))) < 1e-12
    capsys.readouterr()
    code = main(["invert", "--config", str(sd_path), "--K", "12", "--out",
                 str(tmp_path / "rec.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "deg(r1) >= deg(r2)" in err


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
