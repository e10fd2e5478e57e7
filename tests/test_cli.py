"""Command-line surface: subcommands, JSON I/O, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torsionlab.cli import main
from torsionlab.polycore import RatPoly
from torsionlab.scenes import moment_curve_scene


@pytest.fixture()
def scene_file(tmp_path):
    from fractions import Fraction

    from torsionlab.scenes import Box

    scene = moment_curve_scene(2)
    small = Box((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 4)))
    unit = Box((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    scene.e1 = [small]
    scene.e2 = [small]
    scene.f1 = [(0, [unit])]
    scene.f2 = [(0, [unit])]
    scene.samples = 4000
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene.to_json_dict()))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out, parse_constant=_reject_constant) if out.strip() else None)


class TestSubcommands:
    def test_fields(self, capsys):
        code, out = run(["fields", "--scene", "builtin:moment2"], capsys)
        assert code == 0
        assert out["nonzero_words"] == [[1], [2], [1, 2], [2, 1]]
        assert out["certified_step"] == 2

    def test_torsion(self, capsys):
        code, out = run(
            ["torsion", "--scene", "builtin:moment2", "--beta", "0,1,0"], capsys)
        assert code == 0
        assert out["b"] == [2, 2]
        assert out["p"] == ["3/2", "3/2"]
        assert out["rho_exponent"] == "1/3"
        assert out["J_beta"]["terms"] == [
            {"exp": [0, 0, 0], "num": "-2", "den": "1"}]

    def test_polytope_moment2(self, capsys):
        code, out = run(["polytope", "--scene", "builtin:moment2"], capsys)
        assert code == 0
        assert out["generators"] == [[2, 2]]
        assert out["minimal"] == [[2, 2]]

    def test_polytope_moment3(self, capsys):
        code, out = run(["polytope", "--scene", "builtin:moment3"], capsys)
        assert code == 0
        assert out["extreme"] == [[3, 4], [4, 3]]

    def test_malcev(self, capsys):
        code, out = run(
            ["malcev", "--scene", "builtin:moment2", "--x0", "0,0,0"], capsys)
        assert code == 0
        assert out["dim"] == 3 and out["step"] == 2
        assert out["covering_jacobian_at_0"] not in ("0", None)

    def test_ccball_sample(self, capsys):
        code, out = run(
            ["ccball", "--scene", "builtin:moment2", "--samples", "500",
             "--seed", "3"], capsys)
        assert code == 0
        assert out["jac_range"] == [2.0, 2.0]

    def test_verify_rwt(self, scene_file, capsys):
        code, out = run(
            ["verify", "rwt", "--scene", scene_file, "--seed", "1"], capsys)
        assert code == 0
        assert out["verdict"] == "ok"
        assert out["ratio"] > 0

    def test_verify_counterexample(self, capsys):
        code, out = run(["verify", "counterexample2d", "--k", "2"], capsys)
        assert code == 0
        assert out["strictly_increasing"] is True
        assert out["growth_factor"] >= 3

    def test_polyalg_extract(self, capsys):
        code, out = run(
            ["polyalg", "extract", "--coeffs", "1,0,1", "--k", "1"], capsys)
        assert code == 0
        assert out["kind"] == "pair" and out["holds"]

    def test_cover_without_eligible_points_reports_null(self, capsys):
        # delta above 1 leaves no eligible grid point
        code, out = run(["ccball", "--scene", "builtin:moment2", "--check", "cover",
                         "--delta", "2", "--grid", "2"], capsys)
        assert code == 0
        assert out["count"] == 0 and out["covered_fraction"] is None

    def test_cover_uses_c(self, capsys):
        base = ["ccball", "--scene", "builtin:moment2", "--check", "cover",
                "--grid", "2", "--rho", "8"]
        code, narrow = run(base + ["--c", "0.125"], capsys)
        assert code == 0
        code, wide = run(base + ["--c", "0.5"], capsys)
        assert code == 0
        assert (narrow["radius_small"], narrow["radius_inflated"]) == (0.125, 1.0)
        assert (wide["radius_small"], wide["radius_inflated"]) == (2.0, 4.0)

    def test_occupancy_sample_reports_null_stderr(self, tmp_path, capsys):
        # Psi's Jacobian -2 t_2 changes sign on the box, which forces occupancy counting
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"center": [0, 0, 0], "words": [[1], [2], [1]],
                                    "alpha": [1, 1]}))
        code, out = run(["ccball", "--scene", "builtin:moment2", "--spec", str(spec),
                         "--samples", "200"], capsys)
        assert code == 0
        assert out["method"] == "occupancy" and out["volume_stderr"] is None
        assert out["volume_estimate"] > 0

    def test_degenerate_sample_reports_zero_volume(self, tmp_path, capsys):
        # a repeated word makes the Jacobian vanish exactly: the image has measure zero
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"center": [0, 0, 0], "words": [[1], [1], [2]],
                                    "alpha": [1, 1]}))
        code, out = run(["ccball", "--scene", "builtin:moment2", "--spec", str(spec),
                         "--samples", "200"], capsys)
        assert code == 0
        assert (out["method"], out["volume_estimate"], out["volume_stderr"]) == (
            "degenerate", 0.0, 0.0)

    def test_polyalg_refine(self, capsys):
        code, out = run(
            ["polyalg", "refine", "--set", "[[0, 1]]"], capsys)
        assert code == 0
        assert out["J"] == ["0", "1/4"]


class TestContracts:
    def test_missing_file_exit_2(self, capsys):
        code = main(["verify", "rwt", "--scene", "/nonexistent/x.json"])
        assert code == 2

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["verify", "rwt", "--scene", str(bad)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_missing_beta_exit_2(self, tmp_path, capsys):
        scene = moment_curve_scene(2)
        scene.beta = None
        p = tmp_path / "nobeta.json"
        p.write_text(json.dumps(scene.to_json_dict()))
        code = main(["torsion", "--scene", str(p)])
        assert code == 2

    def test_non_nilpotent_exit_3(self, tmp_path, capsys):
        # pi2 = x2 - gamma with fields that never certify at the tiny cap:
        # use a high-degree curve with cap 2 so nonzero words reach the cap
        scene = moment_curve_scene(3)
        scene.cap = 2
        p = tmp_path / "cap.json"
        p.write_text(json.dumps(scene.to_json_dict()))
        code = main(["fields", "--scene", str(p), "--cap", "2"])
        assert code == 3

    @pytest.mark.parametrize("command", [
        ["polytope"], ["malcev"],
        ["ccball", "--check", "cover"], ["ccball", "--check", "sample"],
        ["ccball", "--check", "doubling"],
    ])
    @pytest.mark.parametrize("d, cap", [(3, 2), (4, 3)])
    def test_truncated_word_table_exit_3(self, tmp_path, capsys, command, d, cap):
        # a cap below the nilpotency step truncates the word table; lambda
        # classes read off it would silently miss words
        scene = moment_curve_scene(d)
        scene.cap = cap
        p = tmp_path / "cap.json"
        p.write_text(json.dumps(scene.to_json_dict()))
        code = main([*command, "--scene", str(p)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"inconclusive: nonzero bracket words of length {cap} at cap {cap}\n"

    def test_no_lambda_classes(self, tmp_path, capsys):
        # gamma(t) = (t, 2t) is a line, so no word tuple has a nonzero lambda;
        # the checks that need a class exit 2 and cover counts no balls
        from torsionlab.scenes import Scene, curve_maps

        pi1, pi2 = curve_maps([[0, 1], [0, 2]])
        p = tmp_path / "line.json"
        p.write_text(json.dumps(Scene(pi1=pi1, pi2=pi2, cap=4).to_json_dict()))
        code, report = run(["polytope", "--scene", str(p)], capsys)
        assert (code, report["classes"]) == (0, [])
        for check, advice in (
                ("sample", "supply --spec"),
                ("doubling", "the doubling check takes its ball words from one")):
            assert main(["ccball", "--check", check, "--scene", str(p)]) == 2
            assert capsys.readouterr().err == \
                f"error: no nonzero lambda classes; {advice}\n"
        code, report = run(["ccball", "--check", "cover", "--scene", str(p)], capsys)
        assert (code, report["count"]) == (0, 0)

    def test_polytope_moment5(self, capsys):
        # 32 words in dimension 6, but only 6 groups of proportional
        # coordinate rows: one group subset and 1024 word choices
        code, report = run(["polytope", "--scene", "builtin:moment5"], capsys)
        assert code == 0
        assert [c["deg"] for c in report["classes"]] == \
            [[5 + i, 11 - i] for i in range(7)]
        assert report["extreme"] == [[5, 11], [11, 5]]

    def test_polytope_over_tuple_budget_exit_3(self, monkeypatch, capsys):
        import functools

        from torsionlab import polytope

        monkeypatch.setattr(polytope, "lambda_table", functools.partial(
            polytope.lambda_table, tuple_budget=1000))
        code = main(["polytope", "--scene", "builtin:moment5"])
        assert code == 3
        assert capsys.readouterr().err == ("inconclusive: 1025 group subsets and "
                                           "word choices exceed budget 1000\n")

    @pytest.mark.parametrize("inequality", ["rwt", "strong", "scales"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_samples_below_one_exit_2(self, scene_file, inequality,
                                             samples, capsys):
        code = main(["verify", inequality, "--scene", scene_file,
                     "--samples", samples])
        assert code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_counterexample_k_below_one_exit_2(self, k, capsys):
        code = main(["verify", "counterexample2d", "--k", k])
        assert code == 2
        assert capsys.readouterr().err == f"error: --k must be at least 1, got {k}\n"

    def test_counterexample_k_beyond_float_range_exit_2(self, capsys):
        code = main(["verify", "counterexample2d", "--k", str(10**400)])
        assert code == 2
        assert capsys.readouterr().err == ("error: --k must be at most 1.79769e+308, "
                                           "got a 401-digit integer\n")
        code, out = run(["verify", "counterexample2d", "--k", str(10**30)], capsys)
        assert (code, out["k"]) == (0, 10**30)

    def test_counterexample_large_k_stays_finite(self, capsys):
        code, out = run(["verify", "counterexample2d", "--k", "2000"], capsys)
        assert code == 0
        assert out["rows"] and out["verdict"] == "unbounded-growth"
        for row in out["rows"]:
            assert all(math.isfinite(row[f]) and row[f] > 0
                       for f in ("B", "norm_f2", "ratio"))

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_polyalg_sublevel_samples_below_one_exit_2(self, tmp_path, samples,
                                                       capsys):
        p = tmp_path / "t.json"
        p.write_text(json.dumps(RatPoly.variable(1, 0).to_json_dict()))
        code = main(["polyalg", "sublevel", "--poly", str(p), "--samples", samples])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: --samples must be at least 1, got {samples}\n"

    def test_verify_samples_default_from_scene(self, scene_file, capsys):
        code, report = run(["verify", "strong", "--scene", scene_file], capsys)
        assert code == 0 and report["samples"] == 4000
        code, report = run(["verify", "strong", "--scene", scene_file,
                            "--samples", "1"], capsys)
        assert code == 0 and report["samples"] == 1

    def test_scene_samples_below_one_exit_2(self, scene_file, tmp_path, capsys):
        data = json.loads(Path(scene_file).read_text())
        data["samples"] = 0
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(data))
        code = main(["verify", "strong", "--scene", str(p)])
        assert code == 2
        assert "samples" in capsys.readouterr().err

    def test_scene_negative_beta_exit_2(self, scene_file, tmp_path, capsys):
        data = json.loads(Path(scene_file).read_text())
        data["beta"] = [-1, 0, 0]
        p = tmp_path / "negative.json"
        p.write_text(json.dumps(data))
        code = main(["torsion", "--scene", str(p)])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, path", [
        ("beta", [0, 1.5, 0], "beta[1]"),
        ("beta", [0, True, 0], "beta[1]"),
        ("cap", 2.7, "cap"),
        ("samples", 3.9, "samples"),
        ("seed", "x", "seed"),
        ("f1", [{"k": 0.5, "boxes": [{"lo": ["0", "0"], "hi": ["1", "1"]}]}],
         "f1[0].k"),
    ])
    def test_scene_integer_field_is_named(self, scene_file, tmp_path, key,
                                          value, path, capsys):
        data = json.loads(Path(scene_file).read_text())
        data[key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        code = main(["torsion", "--scene", str(p)])
        assert code == 2
        assert f"{path}: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, path", [
        ("beta", "010", "beta"),
        ("alpha", [True, "1"], "alpha[0]"),
        ("domain", {"lo": [False, 0, 0], "hi": [1, 1, 1]}, "domain.lo[0]"),
        ("domain", {"lo": "000", "hi": [1, 1, 1]}, "domain.lo"),
    ])
    def test_scene_misshapen_field_is_named(self, scene_file, tmp_path, key,
                                            value, path, capsys):
        data = json.loads(Path(scene_file).read_text())
        data[key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        code = main(["torsion", "--scene", str(p)])
        assert code == 2
        assert f"{path}: expected" in capsys.readouterr().err

    @staticmethod
    def _map_args(tmp_path, data):
        paths = []
        for key in ("pi1", "pi2"):
            paths += [f"--{key}", str(tmp_path / f"{key}.json")]
            Path(paths[-1]).write_text(json.dumps(data[key]))
        return paths

    def test_map_files_match_scene_file(self, tmp_path, capsys):
        data = moment_curve_scene(2).to_json_dict()
        p = tmp_path / "maps.json"
        p.write_text(json.dumps({"pi1": data["pi1"], "pi2": data["pi2"]}))
        _, want = run(["fields", "--scene", str(p)], capsys)
        assert run(["fields", *self._map_args(tmp_path, data)], capsys) == (0, want)

    @pytest.mark.parametrize("source, pi1", [
        ("--pi1", moment_curve_scene(3).to_json_dict()["pi1"]),  # 4 variables, not 3
        ("--pi1", {"components": "x"}),
        ("--scene", {"components": "x"}),
    ], ids=["map-dimension", "map-components", "scene-components"])
    def test_bad_pi1_is_named(self, scene_file, tmp_path, source, pi1, capsys):
        data = json.loads(Path(scene_file).read_text())
        data["pi1"] = pi1
        if source == "--scene":
            p = tmp_path / "bad.json"
            p.write_text(json.dumps(data))
            args = ["--scene", str(p)]
        else:
            args = self._map_args(tmp_path, data)
        code = main(["fields", *args])
        assert code == 2
        assert "scene error: pi1" in capsys.readouterr().err

    @pytest.mark.parametrize("bands", ["3", "a:b", "-6:2:1", "2:-6"])
    def test_verify_bad_bands_exit_2(self, scene_file, bands, capsys):
        code = main(["verify", "scales", "--scene", scene_file, f"--bands={bands}"])
        assert code == 2
        assert "--bands" in capsys.readouterr().err

    def test_verify_scales_band_table(self, scene_file, capsys):
        code, report = run(["verify", "scales", "--scene", scene_file,
                            "--bands=-1:1"], capsys)
        assert code == 0
        assert [row["m"] for row in report["bands"]] == [-1, 0, 1]

    def test_byte_identical_reports(self, scene_file, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = main(["verify", "rwt", "--scene", scene_file, "--seed", "1",
                         "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("extra", [[], ["--reversed"]])
    def test_torsion_report_does_not_depend_on_cap(self, tmp_path, extra):
        # psi flows letters only, so a cap below the nilpotency step (which
        # sends the Jacobian through the Bareiss fallback) changes nothing
        scene = moment_curve_scene(3)
        scene.cap = 2
        path = tmp_path / "cap2.json"
        path.write_text(json.dumps(scene.to_json_dict()))
        outs = []
        for src in (str(path), "builtin:moment3"):
            out = tmp_path / f"report{len(outs)}.json"
            assert main(["torsion", "--scene", src, *extra, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("args, field", [
        (["--check", "cover", "--rho", "-1"], "rho"),
        (["--check", "doubling", "--rho", "-1"], "rho"),
        (["--check", "cover", "--grid", "0"], "grid"),
    ])
    def test_bad_ccball_radius_or_grid_exit_2(self, args, field, capsys):
        code = main(["ccball", "--scene", "builtin:moment2", *args])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("args, option", [
        (["polyalg", "extract"], "--coeffs"),
        (["polyalg", "monomialize"], "--poly"),
        (["polyalg", "sublevel"], "--poly"),
        (["polyalg", "refine"], "--set"),
        (["ccball", "--scene", "builtin:moment2", "--check", "doubling",
          "--samples", "0"], "samples"),
        (["ccball", "--scene", "builtin:moment2", "--check", "cover",
          "--delta", "nan"], "delta"),
        (["ccball", "--scene", "builtin:moment2", "--check", "cover",
          "--delta", "-1"], "delta"),
        (["ccball", "--scene", "builtin:moment2", "--check", "doubling",
          "--delta", "inf"], "delta"),
        (["ccball", "--scene", "builtin:moment2", "--check", "doubling",
          "--c", "nan"], "c must"),
        (["torsion", "--scene", "builtin:moment2", "--beta", "a"], "--beta"),
        (["torsion", "--scene", "builtin:moment2", "--beta=-1,0,0"], "--beta"),
        (["torsion", "--scene", "builtin:moment2", "--beta", "0,,1"], "--beta"),
        # --eps is checked before --poly is read; the last two lie in (0, 1)
        # but round to 0 and 1 at denominator 10^6
        *((["polyalg", "monomialize", "--poly", "unread.json", "--eps", eps], "--eps")
          for eps in ("nan", "inf", "abc", "1/0", "-0.5", "1", "0.0000001", "0.9999999")),
        # 2.0 ** (band + 1) overflows a float beyond band 1022
        (["verify", "rwt", "--scene", "builtin:moment2", "--band", "1023"], "--band must"),
        (["verify", "strong", "--scene", "builtin:moment2", f"--band=-{10**400}"],
         "--band must"),
        (["verify", "scales", "--scene", "builtin:moment2", "--bands=0:1023"], "--bands"),
        (["malcev", "--scene", "builtin:moment2", "--x0", "0,0"], "--x0"),
        (["ccball", "--scene", "builtin:moment2", "--check", "doubling", "--x1", "0,0"],
         "--x1"),
        (["ccball", "--scene", "builtin:moment2", "--check", "doubling",
          "--x2", "0,0,0,0"], "--x2"),
        (["polyalg", "refine", "--set", "[[0]]"], "--set"),
        (["polyalg", "refine", "--set", "[[0, 1], 2]"], "--set"),
        (["polyalg", "refine", "--set", "abc"], "--set"),
        *((["ccball", "--scene", "builtin:moment2", "--check", check, "--samples", "0"],
           "--samples must be at least 1, got 0") for check in ("sample", "cover")),
        (["polyalg", "refine", "--set", "[]"], "--set"),
        (["polyalg", "refine", "--set", "[[0, 1]]", "--c", "x"], "--c"),
        # 100000 ** 3 candidate centers would need petabytes; rejected unallocated
        (["ccball", "--scene", "builtin:moment2", "--check", "cover", "--grid", "100000"],
         "grid"),
        # --cap 0 is not the scene's cap
        (["fields", "--scene", "builtin:moment2", "--cap", "0"], "--cap"),
        (["fields", "--scene", "builtin:moment2", "--cap=-3"], "--cap"),
        # moment2 lives in three dimensions
        (["torsion", "--scene", "builtin:moment2", "--beta", "0,1"], "--beta"),
        (["verify", "strong", "--scene", "builtin:moment2", "--beta", "0,1"], "--beta"),
        (["polyalg", "extract", "--coeffs", "1,0,1", "--k=-1"], "--k"),
        (["polyalg", "extract", "--coeffs", "1,-2,1"], "--coeffs"),
    ])
    def test_missing_or_bad_option_is_named(self, args, option, capsys):
        code = main(args)
        assert code == 2
        assert option in capsys.readouterr().err


def test_main_is_reusable_in_one_process(scene_file, tmp_path):
    # one parser serves every call: no option value may leak into a later job
    import torsionlab

    poly = tmp_path / "t.json"
    poly.write_text(json.dumps(RatPoly.variable(1, 0).to_json_dict()))
    jobs = [
        ["ccball", "--scene", "builtin:moment2", "--samples", "300", "--seed", "5"],
        ["ccball", "--scene", "builtin:moment2", "--samples", "300"],
        ["fields", "--scene", "builtin:moment2", "--cap", "4"],
        ["fields", "--scene", "builtin:moment2"],
        ["verify", "strong", "--scene", scene_file, "--samples", "500", "--seed", "3"],
        ["verify", "strong", "--scene", scene_file],
        ["polyalg", "sublevel", "--poly", str(poly), "--samples", "256"],
        ["polyalg", "refine", "--set", "[[0, 1]]"],
    ]
    rounds = []
    for r in range(2):
        outs = []
        for k, argv in enumerate(jobs):
            out = tmp_path / f"round{r}-{k}.json"
            assert main([*argv, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        rounds.append(outs)
    assert rounds[0] == rounds[1]
    assert rounds[0][0] != rounds[0][1]
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for k, argv in enumerate(jobs):
        out = tmp_path / f"fresh-{k}.json"
        proc = subprocess.run([sys.executable, "-m", "torsionlab.cli", *argv,
                               "--out", str(out)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == rounds[0][k], argv
