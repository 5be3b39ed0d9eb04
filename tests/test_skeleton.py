import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from fltzlab.fans import Cone, StackyFan, fan_from_max_cones, standard_fan
from fltzlab.picsym import PicMonomial, format_monomial
from fltzlab.skeleton import (
    Chamber,
    SkeletonError,
    UnsupportedConeError,
    chamber_quiver,
    chamber_step_counts,
    default_epsilon,
    emit_svg,
    enumerate_chambers,
    fltz_components,
    sample_point,
)
from fltzlab.zlin import IntMatrix


def cyclic_stack(n):
    return StackyFan(IntMatrix([[n]]),
                     fan_from_max_cones([Cone([(1,)], ambient_rank=1)]))


class TestComponents:
    def test_p1(self):
        comps = fltz_components(standard_fan("Pn", n=1))
        assert len(comps) == 3
        zero = [c for c in comps if c.cone.is_zero()]
        assert len(zero) == 1 and zero[0].base_dim == 1
        fibers = sorted(c.cone.rays[0] for c in comps if not c.cone.is_zero())
        assert fibers == [(-1,), (1,)]
        assert all(c.character == (Fraction(0),) for c in comps)

    def test_cyclic_line(self):
        comps = fltz_components(cyclic_stack(3))
        hairs = [c for c in comps if not c.cone.is_zero()]
        assert sorted(c.character[0] for c in hairs) == [
            Fraction(0), Fraction(1, 3), Fraction(2, 3)]
        assert all(c.cone.rays == ((-1,),) for c in hairs)
        assert all(c.base_dim == 0 for c in hairs)

    def test_p2_count(self):
        comps = fltz_components(standard_fan("Pn", n=2))
        assert len(comps) == 7  # one per cone of the fan

    def test_base_subspace_dimension(self):
        for comp in fltz_components(standard_fan("Pn", n=2)):
            tau_dim = comp.cone.dim()
            assert comp.base_dim == 2 - tau_dim

    def test_stacky_proper_face_unsupported(self):
        sf = StackyFan(IntMatrix([[1, 1], [-1, 1]]),
                       fan_from_max_cones([Cone([(1, 0), (0, 1)])]))
        with pytest.raises(UnsupportedConeError):
            fltz_components(sf)

    def test_characters_in_unit_box(self):
        for comp in fltz_components(cyclic_stack(5)):
            assert all(0 <= x < 1 for x in comp.character)


class TestChambers:
    def test_small_counts(self):
        assert len(enumerate_chambers(1)) == 2
        assert len(enumerate_chambers(2)) == 7
        # the closed formula gives 1 + 4 + 7 + 7 = 19 for n = 3, and the
        # geometric enumeration agrees
        assert len(enumerate_chambers(3)) == 19

    def test_formula_vs_geometry(self):
        for n in range(1, 5):
            counts = chamber_step_counts(n)
            by_step = [0] * (n + 1)
            for c in enumerate_chambers(n):
                by_step[c.step] += 1
            assert by_step == counts

    def test_formula_values(self):
        assert chamber_step_counts(2) == [1, 3, 3]
        assert chamber_step_counts(1) == [1, 1]
        assert chamber_step_counts(4)[2] == 11  # C(4,2)+C(4,1)+C(4,0)

    def test_epsilon_stability(self):
        for n in range(1, 5):
            a = enumerate_chambers(n, default_epsilon(n))
            b = enumerate_chambers(n, Fraction(1, 4 * n + 4))
            assert a == b

    def test_sample_points_lie_inside(self):
        eps = default_epsilon(3)
        for c in enumerate_chambers(3):
            p = sample_point(c, eps)
            for x, f in zip(p, c.flags):
                assert (0 < x < eps) if f == "S" else (eps < x < 1)
            assert c.slant < sum(p) < c.slant + 1

    def test_step(self):
        assert Chamber(("S", "L", "S"), 1).step == 3
        assert Chamber(("L", "L"), 0).step == 0

    def test_bad_epsilon(self):
        with pytest.raises(SkeletonError):
            enumerate_chambers(2, Fraction(1, 2))

    @pytest.mark.parametrize("n, eps, message", [
        (1.5, None, "n = 1.5 is not an int"),
        (True, None, "n = True is not an int"),
        (2, 0.1, "epsilon 0.1 is not an int or a Fraction"),
        (2, True, "epsilon True is not an int or a Fraction")])
    def test_inexact_n_or_epsilon_rejected(self, n, eps, message):
        # 1.5 used to end in a raw TypeError and True to build n = 1
        with pytest.raises(SkeletonError, match=message):
            enumerate_chambers(n, eps)

    @pytest.mark.parametrize("eps", [0.1, True])
    def test_sample_point_inexact_epsilon_rejected(self, eps):
        # 0.1 used to give coordinates with denominator 2^56
        with pytest.raises(SkeletonError, match="is not an int or a Fraction"):
            sample_point(enumerate_chambers(2)[0], eps)

    @pytest.mark.parametrize("eps", [Fraction(-1, 4), 0, Fraction(1, 2), 1])
    def test_sample_point_epsilon_out_of_range_rejected(self, eps):
        # -1/4 and 0 used to return a point
        with pytest.raises(SkeletonError, match="strictly between 0 and 1/2"):
            sample_point(enumerate_chambers(2)[0], eps)


class TestChamberQuiver:
    def test_untwisted_p2(self):
        q = chamber_quiver(2)
        assert len(q.vertices) == 7
        assert len(q.edges) == 9
        assert all(v.label.is_unit() for v in q.vertices)

    def test_edges_drop_step_by_one(self):
        for n in (1, 2, 3):
            q = chamber_quiver(n)
            for e in q.edges:
                assert (q.vertices[e.source].step
                        == q.vertices[e.target].step + 1)

    def test_acyclic_longest_path(self):
        for n in (1, 2, 3):
            q = chamber_quiver(n)
            adj = {}
            for e in q.edges:
                adj.setdefault(e.source, []).append(e.target)

            def longest(i, memo={}):
                if i not in adj:
                    return 0
                return 1 + max(longest(j) for j in adj[i])

            assert max(longest(i) for i in range(len(q.vertices))) == n

    def test_every_noncenter_vertex_has_out_edge(self):
        for n in (1, 2, 3, 4):
            q = chamber_quiver(n)
            sources = {e.source for e in q.edges}
            for i, v in enumerate(q.vertices):
                if v.step > 0:
                    assert i in sources

    def test_twisted_p2_matches_comparison_figure(self):
        L = PicMonomial.generator(0, 2)
        M = PicMonomial.generator(1, 2)
        q = chamber_quiver(2, [L, M])
        by_chamber = {(v.chamber.flag_string(), v.chamber.slant):
                      v.label.exponents for v in q.vertices}
        assert by_chamber == {
            ("LL", 0): (0, 0),     # c
            ("LS", 0): (0, 0),     # b
            ("LL", 1): (0, 1),     # b M
            ("SL", 0): (-1, 1),    # b L^-1 M
            ("SS", 0): (0, 0),     # a
            ("LS", 1): (1, 0),     # a L
            ("SL", 1): (0, 1),     # a M
        }

    def test_p1_display(self):
        q = chamber_quiver(1, [PicMonomial.generator(0, 1)])
        labels = [format_monomial(v.label) for v in q.vertices]
        assert len(q.vertices) == 3
        assert sorted(labels) == ["1", "1", "L1"]
        center = next(i for i, v in enumerate(q.vertices) if v.step == 0)
        assert {(e.source, e.target) for e in q.edges} == {
            (i, center) for i in range(3) if i != center}

    def test_label_translation_equivariance(self):
        L = PicMonomial.generator(0, 2)
        M = PicMonomial.generator(1, 2)
        q = chamber_quiver(2, [L, M])
        loops = [L, M]
        for v in q.vertices:
            for w in q.vertices:
                if v.chamber.step != w.chamber.step:
                    continue
                (va, vm), (wa, wm) = v.region(), w.region()
                shift = tuple(a - b for a, b in zip(wa, va))
                if wm - vm != sum(shift):
                    continue  # not deck-related
                expected = v.label
                for loop, e in zip(loops, shift):
                    expected = expected * (loop ** e)
                assert w.label == expected


class TestSvg:
    def test_p2_chambers_svg(self):
        svg = emit_svg(chamber_quiver(2))
        root = ET.fromstring(svg)
        texts = [el for el in root.iter()
                 if el.tag.endswith("text")]
        # two text elements per chamber: name and label
        assert len(texts) == 14

    def test_p1_components_svg(self):
        svg = emit_svg(fltz_components(standard_fan("Pn", n=1)))
        root = ET.fromstring(svg)
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert len(circles) >= 1
        assert len(lines) == 2  # the two hairs

    def test_cyclic_line_svg(self):
        svg = emit_svg(fltz_components(cyclic_stack(3)))
        root = ET.fromstring(svg)
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert len(lines) == 3  # one hair per character

    def test_p2_components_svg(self):
        svg = emit_svg(fltz_components(standard_fan("Pn", n=2)))
        assert svg.startswith("<svg")
        ET.fromstring(svg)

    def test_deterministic(self):
        a = emit_svg(chamber_quiver(2))
        b = emit_svg(chamber_quiver(2))
        assert a == b

    def test_high_rank_rejected(self):
        with pytest.raises(SkeletonError):
            emit_svg(fltz_components(standard_fan("Pn", n=3)))
