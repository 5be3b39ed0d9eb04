import json

import pytest

from fltzlab.cli import main
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


class TestHomCmd:
    def test_coherent_p2(self, capsys):
        assert main(["hom", "--side", "coh", "--pn", "2",
                     "--from", "0", "--to", "1"]) == 0
        assert "dim = 3" in capsys.readouterr().out

    def test_constructible_p2(self, capsys):
        assert main(["hom", "--side", "con", "--pn", "2",
                     "--from", "1", "--to", "2"]) == 0
        assert "dim = 3" in capsys.readouterr().out

    def test_stacky_cosets(self, mu4_file, capsys):
        assert main(["hom", "--side", "coh", "--stack", mu4_file,
                     "--from", "1", "--to", "3", "--bound", "8"]) == 0
        out = capsys.readouterr().out
        # coset (3-1)/4 + Z: weights 2 and 6 within the bound
        rows = {line.split()[0]: line.split()[1]
                for line in out.splitlines()[2:]}
        assert rows["2"] == "1" and rows["6"] == "1"
        assert rows["0"] == "0" and rows["4"] == "0"

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
        ("ccc", 1), ("ccc", 2), ("chambers", 3), ("kappa", 4),
        ("monodromy", 2), ("generation", 2),
    ])
    def test_suites_pass(self, what, n, capsys):
        assert main(["verify", "--what", what, "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "all checks passed" in out


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

    def test_untwisted(self, capsys):
        assert main(["quiver", "--n", "2", "--untwisted"]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 9
        assert "L^-1" not in out

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

    def test_quiver_json(self):
        from fltzlab.picsym import PicMonomial
        from fltzlab.skeleton import chamber_quiver, chamber_quiver_json_data
        q = chamber_quiver(2, [PicMonomial.generator(i, 2) for i in range(2)])
        n, chambers, labels, edges = chamber_quiver_json_data(q.to_json())
        assert n == q.n
        assert chambers == [v.chamber for v in q.vertices]
        assert edges == [(e.source, e.target) for e in q.edges]
