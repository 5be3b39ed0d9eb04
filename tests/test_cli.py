import json

import pytest

from fltzlab import checks, skeleton, zlin
from fltzlab.cli import VERIFY_SUITES, main
from fltzlab.fans import fan_from_json, fan_to_json, standard_fan


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(fan_to_json(standard_fan("Pn", n=2)))
    return str(path)


@pytest.fixture
def mu3_file(tmp_path):
    path = tmp_path / "mu3.json"
    path.write_text(json.dumps(
        {"rank": 1, "max_cones": [[[1]]], "beta": [[3]]}))
    return str(path)


@pytest.fixture
def mu4_file(tmp_path):
    path = tmp_path / "mu4.json"
    path.write_text(json.dumps(
        {"rank": 1, "max_cones": [[[1]]], "beta": [[4]]}))
    return str(path)


class TestFanInfo:
    def test_p2_report(self, p2_file, capsys):
        assert main(["fan-info", p2_file]) == 0
        out = capsys.readouterr().out
        assert "7 cones" in out
        assert "smooth: yes" in out
        assert "3 of dim 0, 3 of dim 1, 1 of dim 2" in out

    def test_torus_fan(self, tmp_path, capsys):
        path = tmp_path / "torus.json"
        path.write_text(json.dumps({"rank": 2, "max_cones": []}))
        assert main(["fan-info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 cones" in out

    def test_overlap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"rank": 2, "max_cones": [[[1, 0], [0, 1]], [[1, 1], [1, -1]]]}))
        assert main(["fan-info", str(path)]) == 2

    @pytest.mark.parametrize("data,message", [
        ({"rank": 2, "max_cones": 5}, "'max_cones' must be a list"),
        ({"rank": "x", "max_cones": []}, "'rank' must be an integer"),
        ({"rank": 2.5, "max_cones": []}, "'rank' must be an integer"),
        ({"rank": 2, "max_cones": [[[0.5, 1], [0, 1]]]}, "entry 0.5"),
        ({"rank": 1, "max_cones": [[[1]]], "beta": [[1, 2], [3]]},
         "'beta' must be a rectangular list"),
        ({"rank": 1, "max_cones": [[[1]]], "beta": 5},
         "'beta' must be a rectangular list"),
        ({"rank": 1, "max_cones": [[[1]]], "beta": [[0.5]]},
         "'beta' must be a rectangular list"),
        ({"rank": 1, "max_cones": [[[1]]], "beta": [[True]]},
         "'beta' must be a rectangular list"),
    ])
    def test_schema_errors_exit_2(self, data, message, capsys):
        assert main(["fan-info", json.dumps(data)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"rank": 2\n "max_cones": []}')
        assert main(["fan-info", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_json_report_round_trips(self, p2_file, capsys):
        assert main(["fan-info", p2_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_cones"] == 7

    def test_inline_fan(self, capsys):
        inline = json.dumps({"rank": 1, "max_cones": [[[1]], [[-1]]]})
        assert main(["fan-info", inline]) == 0
        assert "3 cones" in capsys.readouterr().out

    def test_negative_bound_rejected(self):
        assert main(["hom", "--side", "coh", "--pn", "1",
                     "--from", "0", "--to", "1", "--bound", "-1"]) == 2


class TestSkeletonCmd:
    def test_mu3_json(self, mu3_file, capsys):
        assert main(["skeleton", mu3_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["components"]) == 4
        chars = sorted(c["character"][0] for c in data["components"]
                       if c["fiber_cone"])
        assert chars == ["0", "1/3", "2/3"]

    def test_mu3_svg(self, mu3_file, tmp_path):
        out = tmp_path / "mu3.svg"
        assert main(["skeleton", mu3_file, "--svg", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_p2_svg_has_chambers(self, p2_file, tmp_path):
        out = tmp_path / "p2.svg"
        assert main(["skeleton", p2_file, "--svg", str(out)]) == 0
        text = out.read_text()
        assert text.count("<text") == 14  # 7 chambers, two lines each

    def test_p1_json(self, tmp_path, capsys):
        path = tmp_path / "p1.json"
        path.write_text(fan_to_json(standard_fan("Pn", n=1)))
        assert main(["skeleton", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["components"]) == 3

    def test_rank_zero(self, capsys):
        # the one component of the point: zero cone, zero character
        point = json.dumps({"rank": 0, "max_cones": []})
        assert main(["skeleton", point]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "rank": 0,
            "components": [{"fiber_cone": [], "character": [], "base_dim": 0}]}

    def test_zlin_error_exits_2(self, monkeypatch, p2_file, capsys):
        def planted(obj):
            raise zlin.ZlinError("planted lattice failure")

        monkeypatch.setattr(skeleton, "fltz_components", planted)
        assert main(["skeleton", p2_file]) == 2
        assert capsys.readouterr().err == "error: planted lattice failure\n"


class TestHomCmd:
    def test_coherent_p2(self, capsys):
        assert main(["hom", "--side", "coh", "--pn", "2",
                     "--from", "0", "--to", "1"]) == 0
        assert "dim = 3" in capsys.readouterr().out

    def test_coherent_p6(self, capsys):
        assert main(["hom", "--side", "coh", "--pn", "6",
                     "--from", "0", "--to", "3"]) == 0
        assert "dim = 84" in capsys.readouterr().out

    def test_constructible_p2(self, capsys):
        assert main(["hom", "--side", "con", "--pn", "2",
                     "--from", "1", "--to", "2"]) == 0
        assert "dim = 3" in capsys.readouterr().out

    def test_constructible_side_needs_pn(self, capsys):
        assert main(["hom", "--side", "con", "--from", "1", "--to", "2"]) == 2
        captured = capsys.readouterr()
        assert "--side con needs --pn N" in captured.err
        assert captured.out == ""

    def test_stacky_cosets(self, mu4_file, capsys):
        assert main(["hom", "--side", "coh", "--stack", mu4_file,
                     "--from", "1", "--to", "3", "--bound", "8"]) == 0
        out = capsys.readouterr().out
        # coset (3-1)/4 + Z: weights 2 and 6 within the bound
        rows = {line.split()[0]: line.split()[1]
                for line in out.splitlines()[2:]}
        assert rows["2"] == "1" and rows["6"] == "1"
        assert rows["0"] == "0" and rows["4"] == "0"

    @pytest.mark.parametrize("src,dst", [(-1, 3), (4, 3), (0, -4), (1, 4)])
    def test_character_index_out_of_range(self, mu4_file, src, dst, capsys):
        assert main(["hom", "--side", "coh", "--stack", mu4_file,
                     "--from", str(src), "--to", str(dst)]) == 2
        captured = capsys.readouterr()
        assert "character index out of range" in captured.err
        assert captured.out == ""

    def test_sides_agree(self, capsys):
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            main(["hom", "--side", "con", "--pn", "2",
                  "--from", str(i), "--to", str(j)])
            con = capsys.readouterr().out
            main(["hom", "--side", "coh", "--pn", "2",
                  "--from", str(i - 1), "--to", str(j - 1)])
            coh = capsys.readouterr().out
            dim_con = con.split("dim = ")[1].split()[0]
            dim_coh = coh.split("dim = ")[1].split()[0]
            assert dim_con == dim_coh


class TestVerifyCmd:
    @pytest.mark.parametrize("what,n", [
        ("ccc", 1), ("ccc", 2), ("ccc", 5), ("chambers", 3), ("kappa", 4),
        ("monodromy", 2), ("generation", 2),
    ])
    def test_suites_pass(self, what, n, capsys):
        assert main(["verify", "--what", what, "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "all checks passed" in out

    @pytest.mark.parametrize("n", [4, 5])
    def test_ccc_above_three_ends_with_the_gram_line(self, n, capsys):
        # the Euler Gram record runs at every n and follows the 23
        # cohomology records; the (n + 1)^2 rep homs follow it up to n = 4
        assert main(["verify", "--what", "ccc", "--n", str(n)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rep_homs = (n + 1) ** 2 if n <= 4 else 0
        assert len(lines) == 23 + 1 + rep_homs + 1
        assert lines[23] == f"[PASS] P{n} euler Gram matches coherent Gram"
        assert all(line.startswith(f"[PASS] P{n} rep hom gen")
                   for line in lines[24:-1])
        assert lines[-1] == "all checks passed"

    def test_monodromy_names_what_it_compares(self, capsys):
        # the record once claimed "composite = direct on all translation
        # pairs", which no longer described the comparison
        assert main(["verify", "--what", "monodromy", "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "[PASS] transport on {-4..4}^2 equals the loop-by-loop column "
            "sum", "all checks passed"]

    @pytest.mark.parametrize("what", list(VERIFY_SUITES))
    def test_n_below_one_rejected(self, what, capsys):
        for n in ("0", "-2"):
            assert main(["verify", "--what", what, "--n", n]) == 2
            captured = capsys.readouterr()
            assert "--n must be at least 1" in captured.err
            assert captured.out == ""

    def test_failure_is_reported(self, monkeypatch, capsys):
        def planted(n):
            yield checks.Check("planted mismatch", False, "1 vs 2")
            yield checks.Check("planted match", True, "hidden on pass")

        monkeypatch.setattr(checks, "chambers", planted)
        monkeypatch.setattr(checks, "strata", lambda n: iter(()))
        assert main(["verify", "--what", "chambers", "--n", "2"]) == 1
        assert capsys.readouterr().out == (
            "[FAIL] planted mismatch: 1 vs 2\n"
            "[PASS] planted match\n"
            "verification FAILED\n")


class TestQuiverCmd:
    def test_twisted_dot(self, capsys):
        assert main(["quiver", "--n", "2", "--pic", "L,M"]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 9
        assert 'label="L^-1 M"' in out  # the comparison-picture twist

    def test_p1_dot(self, capsys):
        assert main(["quiver", "--n", "1", "--pic", "L"]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 2
        assert '"S,0+\\nL"' in out  # the translated outer lift carries L

    @pytest.mark.parametrize("pic,message", [
        (",M", "--pic name 1 of 2 is empty"),
        ("L, ", "--pic name 2 of 2 is empty"),
        ("L,L", "--pic name 'L' is repeated"),
    ])
    def test_empty_or_repeated_name_rejected(self, pic, message, capsys):
        # these once printed labels such as "^-1 M" and "L^-1 L"
        assert main(["quiver", "--n", "2", "--pic", pic]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_untwisted(self, capsys):
        assert main(["quiver", "--n", "2", "--untwisted"]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 9
        assert "L^-1" not in out

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_one_rejected(self, n, capsys):
        assert main(["quiver", "--n", n]) == 2
        captured = capsys.readouterr()
        assert "--n must be at least 1" in captured.err
        assert captured.out == ""

    def test_dot_file_atomic_write(self, tmp_path):
        out = tmp_path / "q.dot"
        assert main(["quiver", "--n", "2", "--untwisted",
                     "--dot", str(out)]) == 0
        assert out.read_text().startswith("digraph")
        assert not list(tmp_path.glob("*.tmp"))


class TestRoundTrip:
    def test_fan_json(self, p2_file):
        fan = standard_fan("Pn", n=2)
        assert fan_from_json(fan_to_json(fan)) == fan
