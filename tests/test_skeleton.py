import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product

import pytest

from fltzlab.fans import Cone, StackyFan, fan_from_max_cones, standard_fan
from fltzlab.picsym import PicMonomial, format_monomial
from fltzlab.skeleton import (
    Chamber,
    SkeletonError,
    UnsupportedConeError,
    _walls,
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


EPSILONS = [None, "fine", Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)]


def epsilon_for(n, eps):
    """The exact epsilon a test case names: the default, 1/(4n + 4), or a
    fixed ``Fraction``."""
    if eps is None:
        return default_epsilon(n)
    if eps == "fine":
        return Fraction(1, 4 * n + 4)
    return eps


def box_bounds(flags, eps):
    lows = [Fraction(0) if f == "S" else eps for f in flags]
    highs = [eps if f == "S" else Fraction(1) for f in flags]
    return lows, highs


def reference_enumerate_chambers(n, eps):
    """The per-flag ``Fraction`` test: the box of each of the 2^n flag
    vectors against each slant band."""
    out = []
    for flags in product("SL", repeat=n):
        lows, highs = box_bounds(flags, eps)
        for slant in range(n):
            if (max(sum(lows), Fraction(slant))
                    < min(sum(highs), Fraction(slant + 1))):
                out.append(Chamber(flags=flags, slant=slant))
    return sorted(out, key=lambda c: (c.step, c.flags, c.slant))


def reference_walls(chambers, eps):
    """The pairwise wall loop: every ordered pair of chambers one step
    apart, tested with ``Fraction`` sums."""
    n = chambers[0].n
    out = set()
    for ci in chambers:
        for cj in chambers:
            if ci.step != cj.step + 1:
                continue
            diff = [i for i in range(n) if ci.flags[i] != cj.flags[i]]
            lows, highs = box_bounds(ci.flags, eps)
            if len(diff) == 1 and ci.slant == cj.slant:
                i = diff[0]
                if ci.flags[i] != "S":
                    continue
                lo = eps + sum(l for k, l in enumerate(lows) if k != i)
                hi = eps + sum(h for k, h in enumerate(highs) if k != i)
                if (max(lo, Fraction(ci.slant))
                        < min(hi, Fraction(ci.slant + 1))):
                    out.add((ci, cj))
            elif not diff and ci.slant == cj.slant + 1:
                if sum(lows) < Fraction(ci.slant) < sum(highs):
                    out.add((ci, cj))
    return out


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

    @pytest.mark.parametrize("eps", EPSILONS, ids=str)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_flag_fraction_test(self, n, eps):
        eps = epsilon_for(n, eps)
        assert enumerate_chambers(n, eps) == reference_enumerate_chambers(
            n, eps)

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
        (2, 0.1, "epsilon 0.1 is not an integer or a Fraction"),
        (2, True, "epsilon True is not an integer or a Fraction")])
    def test_inexact_n_or_epsilon_rejected(self, n, eps, message):
        # 1.5 used to end in a raw TypeError and True to build n = 1
        with pytest.raises(SkeletonError, match=message):
            enumerate_chambers(n, eps)

    @pytest.mark.parametrize("n, message", [
        (2.0, "n = 2.0 is not an int"),
        ("3", "n = '3' is not an int"),
        (True, "n = True is not an int"),
        (0, "step counts need n >= 1")])
    def test_step_counts_bad_n_rejected(self, n, message):
        # 2.0 and "3" used to end in a raw TypeError, True to give [1, 1]
        with pytest.raises(SkeletonError, match=message):
            chamber_step_counts(n)

    @pytest.mark.parametrize("eps", [0.1, True])
    def test_sample_point_inexact_epsilon_rejected(self, eps):
        # 0.1 used to give coordinates with denominator 2^56
        with pytest.raises(SkeletonError, match="is not an integer or a Fraction"):
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


class TestWalls:
    @pytest.mark.parametrize("eps", EPSILONS, ids=str)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_pairwise_wall_loop(self, n, eps):
        # at eps = 1/3 some chambers with one S flag have no x_i = eps wall
        # inside their slant band, which the default epsilon never shows
        eps = epsilon_for(n, eps)
        walls = _walls(n, enumerate_chambers(n, eps), eps)
        assert len(set(walls)) == len(walls)
        assert set(walls) == reference_walls(
            reference_enumerate_chambers(n, eps), eps)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_quiver_edges_are_the_walls(self, n):
        q = chamber_quiver(n)
        assert all(v.translate == (0,) * n for v in q.vertices)
        edges = {(q.vertices[e.source].chamber, q.vertices[e.target].chamber)
                 for e in q.edges}
        assert len(edges) == len(q.edges)
        assert edges == reference_walls(
            reference_enumerate_chambers(n, default_epsilon(n)),
            default_epsilon(n))


class TestChamberQuiverInput:
    @pytest.mark.parametrize("n, message", [
        (1.5, "n = 1.5 is not an int"),
        (True, "n = True is not an int"),
        (0, "the chamber quiver needs n >= 1")])
    def test_bad_n_rejected(self, n, message):
        # 1.5 used to end in a raw TypeError
        with pytest.raises(SkeletonError, match=message):
            chamber_quiver(n)

    def test_pic_entries_must_be_monomials(self):
        # used to end in a raw AttributeError
        with pytest.raises(SkeletonError,
                           match="Pic generator 1 is not a PicMonomial"):
            chamber_quiver(2, [1, 2])

    def test_pic_must_be_a_sequence(self):
        with pytest.raises(SkeletonError, match="are not a sequence"):
            chamber_quiver(2, 5)

    def test_wrong_pic_count_rejected(self):
        with pytest.raises(SkeletonError,
                           match="one Pic generator per dimension: 2, not 1"):
            chamber_quiver(2, [PicMonomial.generator(0, 2)])

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_wrong_loop_count_rejected(self, count):
        # [] and one loop at n = 3 used to be accepted, every label cut
        # short by zip
        loops = [PicMonomial.generator(0, 3)] * count
        with pytest.raises(SkeletonError,
                           match=f"one loop monomial per dimension: 3, "
                                 f"not {count}"):
            chamber_quiver(3, loop_monomials=loops)

    def test_loop_entries_must_be_monomials(self):
        with pytest.raises(SkeletonError,
                           match="loop monomial 'L' is not a PicMonomial"):
            chamber_quiver(1, loop_monomials=["L"])

    @pytest.mark.parametrize("pic, loops", [
        ([PicMonomial.generator(0, 2), PicMonomial.generator(0, 3)], None),
        (None, [PicMonomial.generator(0, 3), PicMonomial.generator(1, 3)]),
        ([PicMonomial.generator(0, 3), PicMonomial.generator(1, 3)],
         [PicMonomial.generator(0, 2), PicMonomial.generator(1, 2)])],
        ids=["mixed-pic", "unit-pic-against-loops", "pic-against-loops"])
    def test_one_generator_count(self, pic, loops):
        with pytest.raises(SkeletonError, match="share one generator count"):
            chamber_quiver(2, pic, loops)

    def test_generator_count_need_not_be_n(self):
        # the count is shared, not tied to n
        pic = [PicMonomial.generator(i, 3) for i in range(2)]
        q = chamber_quiver(2, pic)
        assert all(v.label.n_generators == 3 for v in q.vertices)


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

    def test_chamber_picture_only_at_n_2(self):
        for n in (1, 3):
            with pytest.raises(SkeletonError, match="n = 2 only"):
                emit_svg(chamber_quiver(n))
