import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from fltzlab import checks, conside, zlin
from fltzlab.cohside import euler_pairing_coherent
from fltzlab.conside import (
    CatRep,
    ChamberCategory,
    ConError,
    FinitePoset,
    beilinson_generators,
    beilinson_rep,
    cartan_matrix,
    corepresentable,
    euler_form,
    quiver_to_dot,
    reduce_dimension_vector,
    rep_hom,
    strata_poset_affine,
    twisted_rep_template,
)
from fltzlab.fans import Cone
from fltzlab.picsym import PicMonomial, format_monomial
from fltzlab.skeleton import UnsupportedConeError, enumerate_chambers
from fltzlab.zlin import IntMatrix


def small_posets():
    """A family of posets with at most 9 elements, for exhaustive checks."""
    vee = FinitePoset.from_covers("clr", [("c", "l"), ("c", "r")])
    enn = FinitePoset.from_covers("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
    return [
        FinitePoset.chain(1),
        FinitePoset.chain(2),
        FinitePoset.chain(4),
        FinitePoset.antichain(3),
        vee,
        enn,
        FinitePoset.chain(2).product(FinitePoset.chain(2)),
        FinitePoset.chain(2).product(FinitePoset.chain(3)),
        FinitePoset.chain(3).product(FinitePoset.chain(3)),
    ]


class TestFinitePoset:
    def test_validation(self):
        with pytest.raises(ConError):
            FinitePoset("ab", [("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("build,message", [
        (lambda: FinitePoset("ab", [("a", "z")]),
         r"pair \('a', 'z'\) names 'z', which is not an element"),
        (lambda: FinitePoset.from_covers("ab", [("a", "z")]),
         r"cover \('a', 'z'\) names 'z'"),
        (lambda: FinitePoset.from_covers("ab", [("q", "b")]),
         r"cover \('q', 'b'\) names 'q'"),
        (lambda: FinitePoset.chain(2).power(-1), "not -1"),
        (lambda: FinitePoset.chain(2).power(1.5), "not 1.5"),
        (lambda: FinitePoset("aa", []), "element 'a' is repeated"),
        (lambda: FinitePoset.from_covers("aba", [("a", "b")]),
         "element 'a' is repeated"),
        (lambda: FinitePoset("abc", [("a", "b", "c")]),
         r"pair \('a', 'b', 'c'\) is not a 2-tuple"),
        (lambda: FinitePoset.from_covers("ab", [("a",)]),
         r"cover \('a',\) is not a 2-tuple"),
        (lambda: FinitePoset.from_covers("ab", [["a", "b"]]),
         r"cover \['a', 'b'\] is not a 2-tuple"),
    ], ids=["pair-off-poset", "cover-target-off-poset",
            "cover-source-off-poset", "negative-power", "fractional-power",
            "repeated-element", "repeated-element-covers",
            "pair-of-three", "cover-of-one", "cover-as-list"])
    def test_bad_input_rejected(self, build, message):
        # before, a raw KeyError, ValueError or TypeError, or no error; a
        # repeated element was counted twice (rep_hom(r, r) == [2])
        with pytest.raises(ConError, match=message):
            build()

    def test_covers_and_height(self):
        p = FinitePoset.chain(3)
        assert set(p.covers()) == {(0, 1), (1, 2)}
        # covers given as an iterator are checked and still used
        lazy = FinitePoset.from_covers(range(3), iter([(0, 1), (1, 2)]))
        assert set(lazy.covers()) == {(0, 1), (1, 2)}
        assert p.height() == 2
        assert FinitePoset.antichain(4).height() == 0

    def test_product(self):
        sq = FinitePoset.chain(2).product(FinitePoset.chain(2))
        assert len(sq) == 4
        assert sq.leq((0, 0), (1, 1))
        assert not sq.leq((1, 0), (0, 1))

    def test_power(self):
        vee = FinitePoset.from_covers("lcr", [("c", "l"), ("c", "r")])
        assert vee.power(0).elements == ((),)
        assert vee.power(1).elements == tuple((x,) for x in "lcr")
        sq = FinitePoset.chain(2).product(FinitePoset.chain(2))
        p2 = FinitePoset.chain(2).power(2)
        assert p2.elements == sq.elements
        assert all(p2.leq(a, b) == sq.leq(a, b)
                   for a in sq.elements for b in sq.elements)


def reference_linear_extension(elements, leq):
    """Repeatedly the minimal element left of least ``repr``, found by
    scanning all pairs (the order the poset had before up-sets)."""
    remaining = list(elements)
    out = []
    while remaining:
        minimal = [x for x in remaining
                   if not any(leq(y, x) for y in remaining if y != x)]
        minimal.sort(key=repr)
        out.append(minimal[0])
        remaining.remove(minimal[0])
    return tuple(out)


def reference_covers(elements, leq):
    """The all-triples cover scan, in element order."""
    return tuple((x, y) for x in elements for y in elements
                 if x != y and leq(x, y) and not any(
                     z != x and z != y and leq(x, z) and leq(z, y)
                     for z in elements))


def reference_factor(covers, leq, f):
    """The first of the covers out of f's source that lies below f's
    target."""
    x, y = f
    for (a, b) in covers:
        if a == x and b != y and leq(b, y):
            return (a, b), (b, y)
    raise ConError(f"{f!r} is not a composite of covers")


def reference_relations(elements, leq):
    """Per non-cover x < y, every first cover below y but the factor's,
    found by scanning every cover for each pair."""
    covers = reference_covers(elements, leq)
    out = []
    for x in elements:
        for y in elements:
            f = (x, y)
            if x == y or not leq(x, y) or f in covers:
                continue
            first = reference_factor(covers, leq, f)
            out += [((a, b), (b, y), f) for (a, b) in covers
                    if a == x and leq(b, y) and ((a, b), (b, y)) != first]
    return out


def reference_height(elements, leq):
    """The longest chain, by recursion over all elements above."""
    memo = {}

    def height_from(x):
        if x not in memo:
            above = [y for y in elements if y != x and leq(x, y)]
            memo[x] = 1 + max(map(height_from, above)) if above else 0
        return memo[x]

    return max(map(height_from, elements), default=0)


def random_poset_data(rng):
    """Seeded (elements, order pairs, generating pairs) of a poset with
    at most 8 elements.

    Labels mix ints, strings and tuples, so that ``repr`` order, element
    order and the hidden order the relations follow all differ; the
    order pairs are the transitive closure of the random generating
    pairs, shuffled, with some reflexive pairs.
    """
    labels = rng.sample([0, 1, 2, 10, "a", "b", "c", "z", (1,), (0, 2)],
                        rng.randint(1, 8))
    less = [(x, y) for i, x in enumerate(labels) for y in labels[i + 1:]
            if rng.random() < 0.4]
    closed = {(x, x) for x in labels} | set(less)
    for z in labels:
        closed |= {(x, y) for (x, w) in closed for (v, y) in closed
                   if w == v == z}
    pairs = [(x, y) for (x, y) in closed if x != y or rng.random() < 0.3]
    for shuffled in (pairs, less, labels):
        rng.shuffle(shuffled)
    return labels, pairs, less


def oracle_posets():
    """(name, poset, independent leq) for the up-set oracle test."""
    out = [(f"small-{i}", p, p.leq) for i, p in enumerate(small_posets())]
    out.append(("two-chains", two_chains(), None))
    vee = FinitePoset.from_covers("lcr", [("c", "l"), ("c", "r")])
    for k in range(4):
        for name, base in (("strata", vee), ("arrow", FinitePoset.chain(2))):
            out.append((f"{name}-{k}", base.power(k), lambda a, b, base=base:
                        all(base.leq(x, y) for x, y in zip(a, b))))
    rng = random.Random("up-set oracle")
    for i in range(240):
        elements, pairs, less = random_poset_data(rng)
        order = set(pairs) | {(x, x) for x in elements}
        leq = (lambda x, y, order=order: (x, y) in order)
        out.append((f"random-{i}", FinitePoset(elements, pairs), leq))
        out.append((f"random-{i}-generated",
                    FinitePoset.from_covers(elements, less), leq))
        if i % 4 == 0:
            second, pairs2, _ = random_poset_data(rng)
            order2 = set(pairs2) | {(x, x) for x in second}
            out.append((f"random-product-{i}",
                        FinitePoset(elements, pairs).product(
                            FinitePoset(second, pairs2)),
                        lambda a, b, order=order, order2=order2:
                        (a[0], b[0]) in order and (a[1], b[1]) in order2))
    return out


class TestUpSets:
    def test_queries_match_the_all_pairs_scans(self):
        # the up-set reads against the scans the poset ran before, on
        # every poset the tests build and on seeded random posets
        for name, p, leq in oracle_posets():
            elems = p.elements
            if leq is None:
                leq = p.leq
            else:
                assert all(p.leq(x, y) == leq(x, y)
                           for x in elems for y in elems), name
            covers = reference_covers(elems, leq)
            assert p.objects == reference_linear_extension(elems, leq), name
            assert p.covers() == covers, name
            assert p.arrows() == tuple((x, y, (x, y)) for x, y in covers)
            assert list(p.relations()) == reference_relations(elems, leq), name
            assert p.height() == reference_height(elems, leq), name
            for x in elems:
                for y in elems:
                    if x != y and leq(x, y) and (x, y) not in covers:
                        assert p.factor((x, y)) == reference_factor(
                            covers, leq, (x, y)), name

    def test_invalid_poset_names_one_offender_under_every_hash_seed(self):
        # the pair set was read in hash order: seeds 1..8 named 'b' or
        # 'c' for the first poset and four different pairs for the second
        code = (
            "from fltzlab.conside import ConError, FinitePoset\n"
            "for elements, pairs in [\n"
            "        ('abcd', [('a', 'b'), ('b', 'c'), ('c', 'd')]),\n"
            "        ('abc', [('a', 'b'), ('b', 'a'), ('b', 'c'), "
            "('c', 'b')])]:\n"
            "    try:\n"
            "        FinitePoset(elements, pairs)\n"
            "    except ConError as exc:\n"
            "        print(exc)\n")
        src = os.path.dirname(os.path.dirname(conside.__file__))
        for seed in range(1, 9):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=60,
                                 check=True)
            assert run.stdout.splitlines() == [
                "transitivity fails through 'b'",
                "antisymmetry fails on 'a', 'b'"], seed


class TestChamberCategory:
    @pytest.mark.parametrize("n", [1.5, "2", True, 0])
    def test_bad_n_rejected(self, n):
        # 1.5 and "2" used to end in a raw TypeError; True was accepted
        with pytest.raises(ConError, match=f"needs an int n >= 1, not {n!r}"):
            ChamberCategory(n)

    def test_morphisms_that_do_not_meet_are_not_composed(self):
        cat = ChamberCategory(2)
        f, g = cat.hom_basis(2, 1)[0], cat.hom_basis(1, 0)[0]
        assert cat.compose(f, g)[:2] == (2, 0)
        with pytest.raises(ConError, match="^morphisms are not composable$"):
            cat.compose(g, f)
        with pytest.raises(ConError, match="^morphisms are not composable$"):
            cat.compose(f, f)

    def test_monomials_match_the_recursive_order(self):
        for width in range(1, 7):
            for degree in range(7):
                assert (conside._monomials(width, degree)
                        == list(recursive_monomials(width, degree)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_hom_bases_match_the_recursive_order(self, n):
        cat = ChamberCategory(n)
        for s in range(-1, n + 2):
            for t in range(-1, n + 2):
                expected = (tuple((s, t, m) for m in
                                  recursive_monomials(n + 1, s - t))
                            if 0 <= t < s <= n else ())
                assert cat.hom_basis(s, t) == expected, (s, t)


def recursive_monomials(width, degree):
    """The exponent tuples of degree ``degree`` in ``width`` symbols, as
    ``ChamberCategory`` listed them before its bases were built from
    ``combinations_with_replacement``: the first exponent outermost,
    counting up."""
    if width == 1:
        yield (degree,)
        return
    for a in range(degree + 1):
        for rest in recursive_monomials(width - 1, degree - a):
            yield (a,) + rest


class TestStrataPoset:
    def test_one_ray(self):
        strata, arrows, collapse = strata_poset_affine(
            Cone([(1,)], ambient_rank=1))
        assert len(strata) == 3
        assert len(arrows) == 2
        assert collapse[("c",)] == (0,)
        assert collapse[("l",)] == (0,)
        assert collapse[("r",)] == (1,)

    def test_zero_cone(self):
        strata, arrows, _ = strata_poset_affine(Cone((), ambient_rank=2))
        assert len(strata) == 1
        assert len(arrows) == 1

    def test_orthant(self):
        strata, arrows, _ = strata_poset_affine(Cone([(1, 0), (0, 1)]))
        assert len(strata) == 9
        assert len(arrows) == 4
        # order is the product of (c < l, c < r)
        assert strata.leq(("c", "c"), ("l", "r"))
        assert not strata.leq(("l", "c"), ("r", "c"))

    def test_collapse_is_surjective(self):
        _, arrows, collapse = strata_poset_affine(Cone([(1, 0), (0, 1)]))
        assert set(collapse.values()) == set(arrows.elements)

    def test_non_smooth_rejected(self):
        with pytest.raises(UnsupportedConeError):
            strata_poset_affine(Cone([(0, 1), (2, -1)]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_collapse_preserves_ext(self, k):
        # the claim is the check family ``checks.strata``
        records = list(checks.strata(k))
        assert records
        assert [r.name for r in records if not r.ok] == []

    def test_collapse_sending_l_to_one_fails(self, monkeypatch):
        # c -> 0, l -> 1, r -> 1 is monotone and onto, but not the
        # collapse along which pulling back is fully faithful
        def wrong(c):
            strata, arrows, _ = strata_poset_affine(c)
            return strata, arrows, {e: tuple(int(x != "c") for x in e)
                                    for e in strata.elements}

        monkeypatch.setattr(conside, "strata_poset_affine", wrong)
        for k in (1, 2, 3):
            assert not all(r.ok for r in checks.strata(k))


class TestCorepresentable:
    def test_chain_bottom(self):
        p = FinitePoset.chain(2)
        assert corepresentable(p, 0).dim_vector() == (1, 1)

    def test_chain_top(self):
        p = FinitePoset.chain(2)
        assert corepresentable(p, 1).dim_vector() == (0, 1)

    def test_square_bottom(self):
        sq = FinitePoset.chain(2).product(FinitePoset.chain(2))
        rep = corepresentable(sq, (0, 0))
        assert all(d == 1 for d in rep.dims.values())


class TestRepHom:
    def test_yoneda_identity(self):
        p = FinitePoset.chain(2)
        rep = corepresentable(p, 0)
        assert rep_hom(rep, rep) == [1]

    def test_chain_direction(self):
        p = FinitePoset.chain(2)
        pa, pb = corepresentable(p, 0), corepresentable(p, 1)
        homs = {rep_hom(pa, pb)[0], rep_hom(pb, pa)[0]}
        assert homs == {0, 1}
        assert all(x == 0 for x in rep_hom(pa, pb)[1:])
        assert all(x == 0 for x in rep_hom(pb, pa)[1:])

    def test_yoneda_exhaustive(self):
        for p in small_posets():
            reps = {v: corepresentable(p, v) for v in p.objects}
            for v in p.objects:
                for w in p.objects:
                    ext = rep_hom(reps[v], reps[w])
                    assert ext[0] == reps[w].dims[v]
                    assert all(x == 0 for x in ext[1:])

    def test_simples_on_chain(self):
        p = FinitePoset.chain(2)
        sa = CatRep(p, {0: 1, 1: 0}, {})
        sb = CatRep(p, {0: 0, 1: 1}, {})
        assert rep_hom(sa, sb) == [0, 1]
        assert rep_hom(sb, sa) == [0]
        assert rep_hom(sa, sa) == [1]

    def test_ext_vanishes_above_height(self):
        for p in small_posets():
            h = p.height()
            for v in p.objects:
                for w in p.objects:
                    ext = rep_hom(corepresentable(p, v),
                                  corepresentable(p, w))
                    assert len(ext) <= h + 1

    def test_complex_squares_to_zero(self):
        # rep_hom's clearing rests on d_p d_(p-1) = 0; checked on every
        # complex of cleared_rank_pairs, multiplying the sparse rows
        composed = 0
        for label, M, N in cleared_rank_pairs():
            _, diffs = conside.hom_complex(M, N)
            for lower, upper in zip(diffs, diffs[1:]):
                for row in upper:
                    total = {}
                    for k, a in row.items():
                        for j, b in lower[k].items():
                            total[j] = total.get(j, 0) + a * b
                    assert not any(total.values()), label
                    composed += bool(total)
        assert composed >= 15000, composed

    def test_ext_of_simples_on_chamber_category(self):
        # the relation space between the outermost and the center object
        # shows up in degree two: Ext = (0, 0, number of relations)
        cat = ChamberCategory(2)
        s2 = CatRep(cat, {2: 1}, {})
        s1 = CatRep(cat, {1: 1}, {})
        s0 = CatRep(cat, {0: 1}, {})
        assert rep_hom(s2, s1) == [0, 3]   # three arrows
        assert rep_hom(s2, s0) == [0, 0, 3]  # 9 paths minus 6 monomials
        assert rep_hom(s1, s0) == [0, 3]
        assert rep_hom(s0, s0) == [1]
        # Euler form agrees with the alternating sums
        assert euler_form(cat, s2.dim_vector(), s0.dim_vector()) == 3
        assert euler_form(cat, s2.dim_vector(), s1.dim_vector()) == -3

    def test_p1_generators(self):
        cat = ChamberCategory(1)
        g1, g2 = beilinson_rep(1, 1, cat), beilinson_rep(1, 2, cat)
        assert rep_hom(g1, g2)[0] == 2  # sections of degree one on the line
        assert rep_hom(g2, g1) == [0]
        assert rep_hom(g2, g2) == [1]

    def test_dimension_mismatch_detected(self):
        p = FinitePoset.chain(2)
        with pytest.raises(ConError):
            CatRep(p, {0: 1, 1: 1}, {(0, 1): [[1], [0]]})

    def test_misshaped_matrix_at_zero_dimension_rejected(self):
        p = FinitePoset.chain(2)
        with pytest.raises(ConError, match="shape mismatch"):
            CatRep(p, {0: 0, 1: 2}, {(0, 1): [[1, 2], [3, 4]]})
        # an empty matrix still stands for the zero map out of 0
        rep = CatRep(p, {0: 0, 1: 2}, {(0, 1): []})
        assert rep.matrices[(0, 1)] == ({}, {})

    def test_missing_arrow_is_the_zero_map(self):
        # before, a missing arrow between two nonzero dimensions raised
        # "matrix shape mismatch"
        p = FinitePoset.chain(2)
        rep = CatRep(p, {0: 1, 1: 1}, {})
        assert rep.matrices[(0, 1)] == ({},)
        assert CatRep(p, {0: 1, 1: 1}, {(0, 1): []}).matrices == rep.matrices
        for misshaped in ([[]], [{}, {}], [[0, 0]]):
            with pytest.raises(ConError, match="shape mismatch"):
                CatRep(p, {0: 1, 1: 1}, {(0, 1): misshaped})
        # rep is S0 + S1, so its Ext is the sum over the simple pairs
        simples = [CatRep(p, {v: 1}, {}) for v in p.objects]
        ext = [rep_hom(a, b) for a in simples for b in simples]
        assert ext == [[1], [0, 1], [0], [1]]
        assert rep_hom(rep, rep) == [2, 1]

    def test_noncommuting_square_rejected(self):
        sq = FinitePoset.chain(2).product(FinitePoset.chain(2))
        dims = {v: 1 for v in sq.elements}
        maps = {c: [[1]] for c in sq.covers()}
        maps[((0, 0), (0, 1))] = [[2]]  # breaks the square
        with pytest.raises(ConError):
            CatRep(sq, dims, maps)

    def test_categories_with_equal_objects_rejected(self):
        # chain(3) and the P2 chamber category both have objects (0, 1, 2)
        M = corepresentable(FinitePoset.chain(3), 0)
        N = corepresentable(ChamberCategory(2), 0)
        with pytest.raises(ConError):
            rep_hom(M, N)

    def test_p3_generator_end_and_hom(self):
        cat = ChamberCategory(3)
        g3, g4 = beilinson_rep(3, 3, cat), beilinson_rep(3, 4, cat)
        assert rep_hom(g4, g4) == [1]
        assert rep_hom(g4, g3) == [0]

    def test_ext_of_outer_simple_on_p4(self):
        cat = ChamberCategory(4)
        s4 = CatRep(cat, {4: 1}, {})
        s0 = CatRep(cat, {0: 1}, {})
        assert rep_hom(s4, s0) == [0, 0, 0, 0, 5]


def to_dense(rows, cols):
    """The dense rows of a sparse-row matrix with ``cols`` columns.

    Checks each row's structure on the way: a dict that stores no zero
    and names only ``int`` columns in ``range(cols)``.
    """
    out = []
    for row in rows:
        assert isinstance(row, dict)
        assert all(x != 0 for x in row.values()), row
        assert all(type(j) is int and 0 <= j < cols for j in row), row
        out.append(tuple(row.get(j, 0) for j in range(cols)))
    return tuple(out)


def dense_mat_mul(a, b, cols):
    """The dense Fraction product of the all-pairs check.

    ``cols`` is b's width.  The old product returned a matrix without
    columns when b had no rows, which failed reps with a zero-dimensional
    object between two nonzero ones.
    """
    if not b:
        return tuple((Fraction(0),) * cols for _ in a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def reference_accepts(category, dims, arrow_maps):
    """Whether the all-pairs check accepts a rep given on arrows.

    Returns ``(accepted, matrices)``.  Shapes are checked as before; the
    matrix of each longer basis morphism is composed along the first
    path found from the last arrow backwards, not the path ``factor``
    picks; then every composable pair of basis morphisms is compared
    with its composite, as the constructor did before it checked
    relations only.
    """
    objs = category.objects
    dims = {x: dims.get(x, 0) for x in objs}
    ends = {f: (x, y) for x in objs for y in objs
            for f in category.hom_basis(x, y)}

    def zeros(r, c):
        return tuple((Fraction(0),) * c for _ in range(r))

    mats = {}
    for x, y, a in category.arrows():
        # a missing or empty matrix is the zero map
        m = tuple(tuple(Fraction(v) for v in row)
                  for row in arrow_maps.get(a, ())) or zeros(dims[y], dims[x])
        if (len(m), len(m[0]) if m else 0) != (dims[y], dims[x]):
            if 0 not in (dims[y], dims[x]) or any(m):
                return False, mats
            m = zeros(dims[y], dims[x])
        mats[a] = m
    grew = True
    while grew:
        grew = False
        for x, y, a in reversed(category.arrows()):
            for g, (source, _) in ends.items():
                if source == y and g in mats:
                    f = category.compose(a, g)
                    if f not in mats:
                        mats[f] = dense_mat_mul(mats[g], mats[a], dims[x])
                        grew = True
    for x in objs:
        for y in objs:
            for f in category.hom_basis(x, y):
                for z in objs:
                    for g in category.hom_basis(y, z):
                        lhs = dense_mat_mul(mats[g], mats[f], dims[x])
                        if lhs != mats[category.compose(f, g)]:
                            return False, mats
    return True, mats


def two_chains():
    """Two disjoint chains of length 3 from x to y: no square, one relation."""
    return FinitePoset.from_covers(
        "xabcdy", [("x", "a"), ("a", "b"), ("b", "y"),
                   ("x", "c"), ("c", "d"), ("d", "y")])


ORACLE_CATEGORIES = {
    "chain3": FinitePoset.chain(3),
    "chain4": FinitePoset.chain(4),
    "vee": FinitePoset.from_covers("clr", [("c", "l"), ("c", "r")]),
    "square": FinitePoset.chain(2).power(2),
    "square-by-3": FinitePoset.chain(2).product(FinitePoset.chain(3)),
    "cube": FinitePoset.chain(2).power(3),
    "two-chains": two_chains(),
    "P1": ChamberCategory(1),
    "P2": ChamberCategory(2),
    "P3": ChamberCategory(3),
}


def random_invertible(size, rng, fractions):
    """A random invertible matrix and its inverse, as lists of rows.

    Integer row operations keep both integral; with ``fractions`` a
    diagonal of random Fraction scalars comes first.
    """
    p = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    q = [row[:] for row in p]
    if fractions:
        for i in range(size):
            c = Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 5)))
            p[i][i], q[i][i] = c, 1 / c
    for _ in range(2 * size if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((1, -1, 2))
        # p <- E p and q <- q E^-1 with E adding c times row j to row i
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    if not fractions:
        p = [[int(x) for x in row] for row in p]
        q = [[int(x) for x in row] for row in q]
    return p, q


def plain_mul(a, b, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(cols)] for i in range(len(a))]


def random_rep_data(category, rng):
    """Seeded (kind, dims, arrow matrices) for the relation-check oracle.

    ``functor``: a corepresentable or a sum of two, of total dimension
    at most 16, conjugated by random invertible matrices, with ``int``
    or ``Fraction`` entries;
    ``planted``: the same with one entry of one arrow changed;
    ``random``: random dims in 0..2 and random entries in -1..1;
    ``misshaped``: a functor with one arrow matrix losing a row (a
    matrix left with no row is the zero map).
    """
    kind = rng.choice(("functor", "planted", "planted", "random",
                       "misshaped"))
    objs = category.objects
    arrows = category.arrows()
    if kind == "random":
        dims = {x: rng.randint(0, 2) for x in objs}
        return kind, dims, {a: [[rng.randint(-1, 1) for _ in range(dims[x])]
                                for _ in range(dims[y])]
                            for x, y, a in arrows}
    parts = []
    for _ in range(rng.randint(1, 2)):
        part = corepresentable(category, rng.choice(objs))
        if sum(sum(p.dim_vector()) for p in parts + [part]) <= 16:
            parts.append(part)
    dims = {x: sum(p.dims[x] for p in parts) for x in objs}
    fractions = rng.random() < 0.5
    change = {x: random_invertible(dims[x], rng, fractions) for x in objs}
    maps = {}
    for x, y, a in arrows:
        block = [[0] * dims[x] for _ in range(dims[y])]
        r0 = c0 = 0
        for p in parts:
            for i, row in enumerate(p.matrices[a]):
                for j, v in row.items():
                    block[r0 + i][c0 + j] = v
            r0, c0 = r0 + p.dims[y], c0 + p.dims[x]
        # y-side change times block times the inverse x-side change
        maps[a] = plain_mul(plain_mul(change[y][0], block, dims[x]),
                            change[x][1], dims[x])
    sized = [a for x, y, a in arrows if dims[x] and dims[y]]
    if kind == "planted" and sized:
        row = rng.choice(maps[rng.choice(sized)])
        row[rng.randrange(len(row))] += rng.choice((1, -1, Fraction(1, 2)))
    if kind == "misshaped" and sized:
        maps[rng.choice(sized)].pop()
    return kind, dims, maps


class TestArrowsAndRelations:
    def test_arrows(self):
        assert FinitePoset.chain(3).arrows() == ((0, 1, (0, 1)),
                                                 (1, 2, (1, 2)))
        cat = ChamberCategory(2)
        assert len(cat.arrows()) == 2 * 3
        assert cat.arrows()[0] == (1, 0, cat.arrow(1, 0))
        # one relation per commuting square: C(3, 2) between steps 2 and 0
        assert len(list(cat.relations())) == 3
        assert len(list(ChamberCategory(4).relations())) == 3 * 10

    def test_two_disjoint_chains_are_related(self):
        # no diamond lies between x and y, yet both paths must agree
        p = two_chains()
        assert list(p.relations()) == [(("x", "c"), ("c", "y"), ("x", "y"))]
        dims = {v: 1 for v in p.elements}
        maps = {c: [[1]] for c in p.covers()}
        CatRep(p, dims, maps)
        maps[("c", "d")] = [[2]]
        with pytest.raises(ConError, match="functoriality fails"):
            CatRep(p, dims, maps)

    def test_relations_are_kept_in_order(self):
        # each category builds its triples once and hands out that tuple,
        # in the order the relations were generated before
        for name, p, leq in oracle_posets():
            kept = p.relations()
            assert type(kept) is tuple and p.relations() is kept, name
            assert list(kept) == reference_relations(p.elements,
                                                     leq or p.leq), name
        for n in range(1, 5):
            cat = ChamberCategory(n)
            squares = [(cat.arrow(s, j), cat.arrow(s - 1, i),
                        (s, s - 2, tuple(int(k in (i, j))
                                         for k in range(n + 1))))
                       for s in range(2, n + 1)
                       for i in range(n + 1) for j in range(i + 1, n + 1)]
            kept = cat.relations()
            assert type(kept) is tuple and cat.relations() is kept
            assert list(kept) == squares

    @pytest.mark.parametrize("category", [
        ChamberCategory(2), ChamberCategory(3),
        FinitePoset.from_covers("lcr", [("c", "l"), ("c", "r")]).power(2)],
        ids=repr)
    def test_broken_square_fails_after_a_valid_rep(self, category):
        # the kept triples are checked again for every rep: scaling one
        # arrow by 2 breaks every square it lies on
        dims = {x: 1 for x in category.objects}
        maps = {a: [[1]] for _, _, a in category.arrows()}
        CatRep(category, dims, maps)
        square = category.relations()[-1]
        maps[square[0]] = [[2]]
        with pytest.raises(ConError, match="functoriality fails"):
            CatRep(category, dims, maps)
        maps[square[0]] = [[1]]
        CatRep(category, dims, maps)

    def test_relations_with_a_zero_end_are_not_multiplied(self, monkeypatch):
        # every square of the chamber category runs from step s to step
        # s - 2, so a simple is 0 at one end of each and the relation
        # check composes nothing; a generator still composes
        products = []
        mat_mul = conside._mat_mul

        def counted(a, b):
            products.append(len(a))
            return mat_mul(a, b)

        monkeypatch.setattr(conside, "_mat_mul", counted)
        cat = ChamberCategory(4)
        for v in cat.objects:
            CatRep(cat, {v: 1}, {})
        assert products == []
        corepresentable(cat, 4)
        assert products

    @pytest.mark.parametrize("zero", ["b", "c"])
    def test_zero_object_inside_a_square_is_still_checked(self, zero):
        # a < b < d and a < c < d with one middle object of dimension 0:
        # the path through it is 0, the path through the other is not
        diamond = FinitePoset.from_covers(
            "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        other = "c" if zero == "b" else "b"
        dims = {"a": 1, "b": 1, "c": 1, "d": 1, zero: 0}
        maps = {("a", other): [[1]], (other, "d"): [[1]]}
        with pytest.raises(ConError, match="functoriality fails"):
            CatRep(diamond, dims, maps)
        maps[(other, "d")] = []
        CatRep(diamond, dims, maps)

    def test_bad_square_with_nonzero_ends_names_it(self):
        cat = ChamberCategory(2)
        maps = {a: [[1]] for _, _, a in cat.arrows()}
        maps[cat.arrow(2, 2)] = [[-1]]
        message = ("functoriality fails composing (2, 1, (0, 0, 1)) then "
                   "(1, 0, (1, 0, 0))")
        with pytest.raises(ConError) as err:
            CatRep(cat, {0: 1, 1: 1, 2: 1}, maps)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", sorted(ORACLE_CATEGORIES))
    def test_relation_check_agrees_with_all_pairs_check(self, name):
        category = ORACLE_CATEGORIES[name]
        rng = random.Random(f"relations-{name}")
        seen = {"accepted": 0, "rejected": 0}
        if list(category.relations()):
            seen["planted rejected"] = 0
        for _ in range(40):
            kind, dims, maps = random_rep_data(category, rng)
            accepted, mats = reference_accepts(category, dims, maps)
            try:
                rep = CatRep(category, dims, maps)
            except ConError:
                assert not accepted
                seen["rejected"] += 1
                if kind == "planted" and "planted rejected" in seen:
                    seen["planted rejected"] += 1
                continue
            assert accepted
            seen["accepted"] += 1
            # every path gives the matrix of the all-pairs check
            for f, m in mats.items():
                assert to_dense(rep.matrix(f), len(m[0]) if m else 0) == m
        assert all(seen.values()), seen

    def test_entries_keep_their_type(self):
        p = FinitePoset.chain(3)
        rep = CatRep(p, {0: 1, 1: 1, 2: 1},
                     {(0, 1): [[2]], (1, 2): [[Fraction(1, 2)]]})
        assert type(rep.matrices[(0, 1)][0][0]) is int
        assert rep.matrix((0, 2)) == ({0: 1},)
        assert type(rep.matrix((0, 2))[0][0]) is Fraction
        cat = ChamberCategory(2)
        rep = corepresentable(cat, 2)
        assert all(type(x) is int for m in rep.matrices.values()
                   for row in m for x in row.values())

    @pytest.mark.parametrize("dims,maps,message", [
        ({0: 1, 1: 1}, {(0, 1): [[0.1]]},
         "entry 0.1 is not an integer or a Fraction"),
        ({0: 1, 1: 1}, {(0, 1): [[True]]}, "entry True"),
        ({0: 1, 1: 1}, {(0, 1): [["1"]]}, "entry '1'"),
        ({0: 1, 1: 1}, {(0, 1): [1]}, "is not a list of rows"),
        ({0: 1.7, 1: 1}, {}, "dimension 1.7 at 0"),
        ({0: True, 1: 1}, {}, "dimension True at 0"),
        ({0: -1, 1: 1}, {}, "dimension -1 at 0"),
        ({0: 1, 5: 1}, {}, "dimension given for 5"),
        ({0: 1, 1: 1}, {(5, 7): [[1]]}, r"\(5, 7\) is not an arrow"),
    ])
    def test_bad_input_rejected(self, dims, maps, message):
        with pytest.raises(ConError, match=message):
            CatRep(FinitePoset.chain(2), dims, maps)

    @pytest.mark.parametrize("dims,row,message", [
        ({0: 2, 1: 1}, {1.0: 1}, "column 1.0 is not an integer"),
        ({0: 2, 1: 1}, {True: 1}, "column True is not an integer"),
        ({0: 2, 1: 1}, {"0": 1}, "column '0' is not an integer"),
        ({0: 2, 1: 1}, {-1: 1}, "column -1 is out of range for source "
                                "dimension 2"),
        ({0: 2, 1: 1}, {2: 1}, "column 2 is out of range for source "
                               "dimension 2"),
        ({0: 0, 1: 1}, {0: 1}, "column 0 is out of range for source "
                               "dimension 0"),
        ({0: 2, 1: 1}, {0: 0.5}, "entry 0.5 is not an integer or a Fraction"),
        ({0: 2, 1: 1}, {0: 0.0}, "entry 0.0 is not an integer or a Fraction"),
    ], ids=["float-column", "bool-column", "str-column", "negative-column",
            "column-past-width", "column-of-width-0", "float-entry",
            "float-zero"])
    def test_bad_sparse_row_rejected(self, dims, row, message):
        # before: the dict's keys were read as a dense row, so {-1: 1}
        # and {2: 1} were taken as the entries -1 and 2, {0: 0.5} as a
        # zero, and {1.0: 1} failed as an entry, not as a column
        with pytest.raises(ConError, match=r"matrix on \(0, 1\): " + message):
            CatRep(FinitePoset.chain(2), dims, {(0, 1): [row]})

    def test_sparse_rows_are_read_as_dense_ones(self):
        p = FinitePoset.chain(3)
        dims = {0: 3, 1: 2, 2: 1}
        sparse = CatRep(p, dims, {(0, 1): [{2: 1, 0: 0}, {1: Fraction(1, 2)}],
                                  (1, 2): [{0: 2, 1: -4}]})
        dense = CatRep(p, dims, {(0, 1): [[0, 0, 1], [0, Fraction(1, 2), 0]],
                                 (1, 2): [[2, -4]]})
        # a stored zero is dropped
        assert sparse.matrices == dense.matrices == {
            (0, 1): ({2: 1}, {1: Fraction(1, 2)}), (1, 2): ({0: 2, 1: -4},)}
        assert sparse.matrix((0, 2)) == dense.matrix((0, 2)) == ({1: -2, 2: 2},)
        with pytest.raises(ConError, match=r"shape mismatch on \(1, 2\)"):
            CatRep(p, dims, {(0, 1): [{}, {}], (1, 2): [{0: 1}, {0: 1}]})

    def test_cancelling_composite_stores_no_entry(self):
        # (0,0) -> (0,1) -> (1,1) composes to 1 - 1 = 0; the other path
        # runs through dimension 0, so the relation check compares the
        # two only if the cancelled entry is not stored
        square = FinitePoset.chain(2).power(2)
        dims = {(0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 1): 1}
        maps = {((0, 0), (0, 1)): [[1], [1]], ((0, 1), (1, 1)): [[1, -1]]}
        accepted, mats = reference_accepts(square, dims, maps)
        assert accepted
        rep = CatRep(square, dims, maps)
        for f, m in mats.items():
            assert to_dense(rep.matrix(f), len(m[0]) if m else 0) == m
        assert rep.matrix(((0, 0), (1, 1))) == ({},)

    def test_longer_morphism_is_not_an_arrow(self):
        with pytest.raises(ConError, match=r"\(0, 2\) is not an arrow"):
            CatRep(FinitePoset.chain(3), {0: 1, 2: 1}, {(0, 2): [[1]]})

    def test_n4_generators_build_in_under_a_second(self):
        start = time.perf_counter()
        cat = ChamberCategory(4)
        gens = [beilinson_rep(4, k, cat) for k in range(1, 6)]
        assert time.perf_counter() - start < 1.0
        assert gens[4].dim_vector() == (70, 35, 15, 5, 1)


def reference_chains(category):
    """The nondegenerate chains by length, as the bar complex had them."""
    objs = category.objects
    arcs = {}
    for x in objs:
        arcs[x] = []
        for y in objs:
            for f in category.hom_basis(x, y):
                arcs[x].append((f, y))
    by_len = {0: [((x,), ()) for x in objs]}
    length = 0
    while True:
        nxt = []
        for (objs_c, fs) in by_len[length]:
            tail = objs_c[-1]
            for (f, y) in arcs[tail]:
                nxt.append((objs_c + (y,), fs + (f,)))
        if not nxt:
            break
        length += 1
        by_len[length] = nxt
    return by_len


def reference_hom_complex(M, N):
    """The bar complex with its three kinds of face written out apart.

    Precompose with M(f_0), compose consecutive morphisms, postcompose
    with N(f_last); rows are sparse dicts of Fractions, densified at the
    end with Fraction zeros.
    """
    cat = M.category
    chains = reference_chains(cat)
    max_p = max(chains)

    layouts = {}
    for p, chs in chains.items():
        offset = 0
        layout = {}
        for ch in chs:
            objs_c, _ = ch
            r = N.dims[objs_c[-1]]
            c = M.dims[objs_c[0]]
            layout[ch] = (offset, r, c)
            offset += r * c
        layouts[p] = (layout, offset)

    def idx(layout_entry, i, j):
        offset, r, c = layout_entry
        return offset + i * c + j

    diffs = {}
    for p in range(max_p):
        src_layout, src_dim = layouts[p]
        tgt_layout, tgt_dim = layouts[p + 1]
        rows = [dict() for _ in range(tgt_dim)]
        for ch, entry in tgt_layout.items():
            objs_c, fs = ch
            r_dim = N.dims[objs_c[-1]]
            c_dim = M.dims[objs_c[0]]
            # term 0: precompose with the first morphism
            sub = (objs_c[1:], fs[1:])
            m0 = to_dense(M.matrix(fs[0]), c_dim)
            sentry = src_layout[sub]
            for i in range(r_dim):
                for j in range(c_dim):
                    for u in range(M.dims[objs_c[1]]):
                        coeff = m0[u][j]
                        if coeff:
                            key = idx(sentry, i, u)
                            rows[idx(entry, i, j)][key] = \
                                rows[idx(entry, i, j)].get(
                                    key, Fraction(0)) + coeff
            # middle terms: compose consecutive morphisms
            for t in range(len(fs) - 1):
                sign = Fraction((-1) ** (t + 1))
                h = cat.compose(fs[t], fs[t + 1])
                sub_objs = objs_c[:t + 1] + objs_c[t + 2:]
                sub_fs = fs[:t] + (h,) + fs[t + 2:]
                sentry = src_layout[(sub_objs, sub_fs)]
                for i in range(r_dim):
                    for j in range(c_dim):
                        key = idx(sentry, i, j)
                        rows[idx(entry, i, j)][key] = \
                            rows[idx(entry, i, j)].get(
                                key, Fraction(0)) + sign
            # last term: postcompose with the final morphism
            sub = (objs_c[:-1], fs[:-1])
            sign = Fraction((-1) ** len(fs))
            mN = to_dense(N.matrix(fs[-1]), N.dims[objs_c[-2]])
            sentry = src_layout[sub]
            for i in range(r_dim):
                for j in range(c_dim):
                    for v in range(N.dims[objs_c[-2]]):
                        coeff = mN[i][v]
                        if coeff:
                            key = idx(sentry, v, j)
                            rows[idx(entry, i, j)][key] = \
                                rows[idx(entry, i, j)].get(
                                    key, Fraction(0)) + sign * coeff
        diffs[p] = (rows, src_dim, tgt_dim)

    term_dims = [layouts[p][1] for p in range(max_p + 1)]
    dense_diffs = []
    for p in range(max_p):
        rows, src_dim, tgt_dim = diffs[p]
        dense = [[Fraction(0)] * src_dim for _ in range(tgt_dim)]
        for i, row in enumerate(rows):
            for j, val in row.items():
                dense[i][j] = val
        dense_diffs.append(dense)
    return term_dims, dense_diffs


HOM_COMPLEX_CATEGORIES = {
    **{f"poset{i}": p for i, p in enumerate(small_posets())},
    "two-chains": two_chains(),
    "P1": ChamberCategory(1),
    "P2": ChamberCategory(2),
    "P3": ChamberCategory(3),
}


def oracle_pairs(category, rng):
    """Seeded pairs of corepresentables, simples and random reps.

    The reps are the corepresentables, the simples and up to three
    accepted reps from :func:`random_rep_data`; of their pairs with at
    most 300 cells in the bar complex, 40 are drawn.
    """
    objs = category.objects
    reps = [corepresentable(category, v) for v in objs]
    reps += [CatRep(category, {v: 1}, {}) for v in objs]
    for _ in range(3):
        _, dims, maps = random_rep_data(category, rng)
        try:
            reps.append(CatRep(category, dims, maps))
        except ConError:
            pass
    chains = [objs_c for chs in reference_chains(category).values()
              for objs_c, _ in chs]
    pairs = [(M, N) for M in reps for N in reps
             if sum(M.dims[c[0]] * N.dims[c[-1]] for c in chains) <= 300]
    return rng.sample(pairs, min(40, len(pairs)))


def row_items(diffs):
    """Each row of each differential as its list of ``(column, entry,
    type)`` items, in insertion order."""
    return [[[(j, x, type(x)) for j, x in row.items()] for row in d]
            for d in diffs]


def densify(term_dims, diffs):
    """The dense matrices of ``hom_complex``'s sparse differentials.

    Checks each row's structure on the way: d_p has term_dims[p + 1]
    rows, each a dict that stores no zero and names only columns of
    term p (see :func:`to_dense`).  Missing entries become ``int`` 0.
    """
    assert len(diffs) == len(term_dims) - 1
    out = []
    for p, d in enumerate(diffs):
        assert len(d) == term_dims[p + 1]
        out.append([list(row) for row in to_dense(d, term_dims[p])])
    return out


def face_entries(m, dim):
    """``(row, column, entry)`` of each nonzero entry of ``m``; for ``m``
    None, of the identity of size ``dim``."""
    if m is None:
        return [(i, i, 1) for i in range(dim)]
    return [(i, j, x) for i, row in enumerate(m) for j, x in row.items()]


def per_face_hom_complex(M, N):
    """``hom_complex`` as built before its entry lists were kept per call,
    before its chains were restricted to the supports and before its
    faces were written as runs: over every chain of the category,
    :func:`face_entries` made M(f_0), N(f_p) and each identity again on
    every face, and every entry was set one at a time."""
    cat = M.category
    chains = list(reference_chains(cat).values())
    offsets, term_dims = [], []
    for chs in chains:
        at, size = {}, 0
        for objs, fs in chs:
            at[objs, fs] = size
            size += N.dims[objs[-1]] * M.dims[objs[0]]
        offsets.append(at)
        term_dims.append(size)
    diffs = []
    for p in range(len(chains) - 1):
        d = [{} for _ in range(term_dims[p + 1])]
        for (objs, fs), row0 in offsets[p + 1].items():
            rows, cols = N.dims[objs[-1]], M.dims[objs[0]]
            if not rows or not cols:
                continue
            faces = [(1, (objs[1:], fs[1:]), None, M.matrix(fs[0]))]
            faces += [((-1) ** k, (objs[:k] + objs[k + 1:], fs[:k - 1]
                                   + (cat.compose(fs[k - 1], fs[k]),)
                                   + fs[k + 1:]), None, None)
                      for k in range(1, len(fs))]
            faces.append(((-1) ** len(fs), (objs[:-1], fs[:-1]),
                          N.matrix(fs[-1]), None))
            for sign, face, left, right in faces:
                col0 = offsets[p][face]
                width = M.dims[face[0][0]]
                right = face_entries(right, cols)
                for i, v, a in face_entries(left, rows):
                    for u, j, b in right:
                        row = d[row0 + i * cols + j]
                        col = col0 + v * width + u
                        x = row.get(col, 0) + sign * a * b
                        if x:
                            row[col] = x
                        else:
                            row.pop(col, None)
        diffs.append(d)
    return term_dims, diffs


def bar_complex_pairs(generators_up_to, simples_at):
    """``(diffs, widths)`` of ``hom_complex`` for every pair of Beilinson
    generators at n <= ``generators_up_to`` and every pair of simples at
    each n in ``simples_at``; ``widths[p]`` is the column count of
    ``diffs[p]``."""
    for n in range(1, max(generators_up_to, *simples_at) + 1):
        cat = ChamberCategory(n)
        families = []
        if n <= generators_up_to:
            families.append([beilinson_rep(n, k, cat)
                             for k in range(1, n + 2)])
        if n in simples_at:
            families.append([CatRep(cat, {v: 1}, {}) for v in cat.objects])
        for reps in families:
            for M in reps:
                for N in reps:
                    dims, diffs = conside.hom_complex(M, N)
                    yield diffs, dims[:-1]


def all_int(rep):
    return all(type(x) is int for m in rep.matrices.values()
               for row in m for x in row.values())


def reference_rep_hom(M, N):
    """``rep_hom`` by the per-matrix route, as it was before clearing:
    each differential of ``hom_complex`` ranked whole by
    ``zlin.rational_rank``.  Returns the Ext dimensions and the ranks."""
    term_dims, diffs = conside.hom_complex(M, N)
    ranks = [zlin.rational_rank(d) for d in diffs]
    bounded = [0, *ranks, 0]
    out = [dim - bounded[p] - bounded[p + 1]
           for p, dim in enumerate(term_dims)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out, ranks


def cleared_rank_pairs():
    """``(label, M, N)`` for the pairs on which ``rep_hom``'s cleared
    ranks are checked: 40 seeded :func:`oracle_pairs` of each
    ``HOM_COMPLEX_CATEGORIES`` entry (``int`` and ``Fraction`` reps);
    every ordered pair of Beilinson generators and simples of
    ``ChamberCategory(n)``, n <= 3; and at k <= 3, every pair of
    corepresentables and simples of the arrow poset {0 < 1}^k, of their
    pull-backs to the strata of the rank-k orthant (as
    ``checks.strata`` compares them), and of the strata poset itself."""
    for name, category in HOM_COMPLEX_CATEGORIES.items():
        rng = random.Random(f"cleared-ranks-{name}")
        for M, N in oracle_pairs(category, rng):
            yield name, M, N
    families = []
    for n in (1, 2, 3):
        cat = ChamberCategory(n)
        families.append((f"P{n}", [beilinson_rep(n, k, cat)
                                   for k in range(1, n + 2)]
                         + [CatRep(cat, {v: 1}, {}) for v in cat.objects]))
    for k in (1, 2, 3):
        strata, arrows, collapse = strata_poset_affine(
            Cone([tuple(int(i == j) for j in range(k)) for i in range(k)]))
        reps = {}
        for name, poset in (("arrows", arrows), ("strata", strata)):
            reps[name] = [corepresentable(poset, v) for v in poset.objects]
            reps[name] += [CatRep(poset, {v: 1}, {}) for v in poset.objects]
        reps["pulled"] = [checks._pull_back(M, strata, collapse)
                          for M in reps["arrows"]]
        families += [(f"{name}{k}", family) for name, family in reps.items()]
    for label, reps in families:
        for M in reps:
            for N in reps:
                yield label, M, N


class TestClearedRanks:
    def test_rep_hom_matches_per_matrix_ranks(self):
        # rep_hom ranks d_(p-1) with the rows at d_p's pivot columns
        # dropped; the per-matrix ranks must give the same Ext.  Clearing
        # has work to do where two differentials are nonzero.
        seen = {"int": 0, "Fraction": 0, "cleared": 0}
        for label, M, N in cleared_rank_pairs():
            expected, ranks = reference_rep_hom(M, N)
            assert rep_hom(M, N) == expected, label
            seen["int" if all_int(M) and all_int(N) else "Fraction"] += 1
            seen["cleared"] += sum(map(bool, ranks)) >= 2
        assert seen["Fraction"] >= 40 and seen["int"] >= 4500, seen
        assert seen["cleared"] >= 450, seen

    def test_rows_at_pivot_columns_are_not_ranked(self, monkeypatch):
        # End(gen 3) at n = 2: each differential below the top one is
        # ranked without the rows at the pivot columns of the one above
        ranked = []
        for name in ("pivot_columns", "rational_rank"):
            def recorded(rows, rank=getattr(conside, name)):
                ranked.append(len(rows))
                return rank(rows)
            monkeypatch.setattr(conside, name, recorded)
        cat = ChamberCategory(2)
        gen = beilinson_rep(2, 3, cat)
        _, ranks = reference_rep_hom(gen, gen)
        assert rep_hom(gen, gen) == [1]
        dims, diffs = conside.hom_complex(gen, gen)
        assert ranked == [len(diffs[-1])] + [
            dims[p] - ranks[p] for p in reversed(range(1, len(diffs)))]
        assert sum(ranked) < sum(map(len, diffs))


class TestHomComplexOracle:
    def test_face_rule_matches_three_blocks(self):
        # the block runs against two per-entry builds: the three kinds of
        # face written apart, entry by entry, and the per-face build, row
        # by row in insertion order
        from fltzlab.conside import hom_complex
        seen = {"int": 0, "Fraction": 0}
        for name, category in HOM_COMPLEX_CATEGORIES.items():
            rng = random.Random(f"hom-complex-{name}")
            for M, N in oracle_pairs(category, rng):
                dims, diffs = hom_complex(M, N)
                ref_dims, ref_diffs = reference_hom_complex(M, N)
                assert dims == ref_dims, name
                # every entry equal by ==, Fraction zeros against int zeros
                assert densify(dims, diffs) == ref_diffs, name
                ref_dims, ref_diffs = per_face_hom_complex(M, N)
                assert dims == ref_dims, name
                assert row_items(diffs) == row_items(ref_diffs), name
                if all_int(M) and all_int(N):
                    seen["int"] += 1
                    assert all(type(x) is int for d in diffs
                               for row in d for x in row.values()), name
                else:
                    seen["Fraction"] += 1
        assert min(seen.values()) >= 50, seen

    def test_rows_match_the_per_face_build(self):
        # every generator and simple pair at n <= 3: the same term dims
        # and the same sparse rows, entry by entry and in the same order
        from fltzlab.conside import hom_complex
        for n in (1, 2, 3):
            cat = ChamberCategory(n)
            families = ([beilinson_rep(n, k, cat) for k in range(1, n + 2)],
                        [CatRep(cat, {v: 1}, {}) for v in cat.objects])
            for reps in families:
                for M in reps:
                    for N in reps:
                        dims, diffs = hom_complex(M, N)
                        ref_dims, ref_diffs = per_face_hom_complex(M, N)
                        assert dims == ref_dims
                        assert row_items(diffs) == row_items(ref_diffs)

    def test_zero_inside_the_support(self):
        # a chain x_0 -> x_1 -> x_2 through a zero of M drops its first
        # face, and one through a zero of N its last; both blocks are
        # empty, so the rows are those of the full enumeration
        chain = FinitePoset.chain(3)
        gap = CatRep(chain, {0: 1, 2: 1}, {})
        cat = ChamberCategory(3)
        x = 3, 1, Fraction(-2, 3)
        cat_gap = CatRep(cat, {3: 1, 2: 2, 0: 1},
                         {cat.arrow(3, i): [[x[i]], [x[i - 1]]]
                          for i in range(3)})
        for rep in (gap, cat_gap):
            category = rep.category
            others = [corepresentable(category, v) for v in category.objects]
            others += [CatRep(category, {v: 1}, {}) for v in category.objects]
            for M, N in ([(rep, rep)] + [(rep, o) for o in others]
                         + [(o, rep) for o in others]):
                dims, diffs = conside.hom_complex(M, N)
                ref_dims, ref_diffs = reference_hom_complex(M, N)
                assert dims == ref_dims
                assert densify(dims, diffs) == ref_diffs
                ref_dims, ref_diffs = per_face_hom_complex(M, N)
                assert row_items(diffs) == row_items(ref_diffs)
        assert rep_hom(gap, gap) == [2]
        # S_0 + S_2 on 0 < 1 < 2: no Ext between non-adjacent simples
        assert rep_hom(CatRep(chain, {2: 1}, {}), gap) == [1]

    def test_chains_start_in_the_source_support(self, monkeypatch):
        # Ext(S_k, S_0) at n = 4 lists only the chains from k to 0, one
        # list per length up to 4, where the category has 3,160 chains
        cat = ChamberCategory(4)
        reference = reference_chains(cat)
        chains, built = conside._chains, []

        def recorded(*args):
            built.append(chains(*args))
            return built[-1]

        monkeypatch.setattr(conside, "_chains", recorded)
        simples = [CatRep(cat, {v: 1}, {}) for v in cat.objects]
        for k in cat.objects:
            built.clear()
            dims, _ = conside.hom_complex(simples[k], simples[0])
            (by_len,) = built
            assert by_len == [[(objs, fs) for objs, fs in reference[p]
                               if objs[0] == k and objs[-1] == 0]
                              for p in range(5)]
            assert dims == [len(chs) for chs in by_len]
        assert sum(map(len, reference.values())) == 3160

    def test_arc_table_is_built_once_per_category(self, monkeypatch):
        # each hom_complex call used to ask hom_basis for every ordered
        # pair of objects again; the table is now kept on the category
        arrows = FinitePoset.chain(2).power(3)
        simples = [CatRep(arrows, {v: 1}, {}) for v in arrows.objects]
        asked = []
        hom_basis = FinitePoset.hom_basis

        def counted(self, x, y):
            asked.append((x, y))
            return hom_basis(self, x, y)

        monkeypatch.setattr(FinitePoset, "hom_basis", counted)
        firsts = [rep_hom(simples[0], N) for N in simples]
        assert len(asked) == len(arrows) ** 2
        asked.clear()
        assert [rep_hom(simples[0], N) for N in simples] == firsts
        assert asked == []
        other = FinitePoset.chain(2).power(3)
        rep_hom(CatRep(other, {other.objects[0]: 1}, {}),
                CatRep(other, {other.objects[-1]: 1}, {}))
        assert len(asked) == len(other) ** 2

    def test_heights_are_computed_once_per_category(self, monkeypatch):
        # each hom_complex call used to recompute every object's longest
        # chain; only which objects reach the target support is per call
        cat = ChamberCategory(3)
        simples = [CatRep(cat, {v: 1}, {}) for v in cat.objects]
        heights, computed = conside._heights, []

        def counted(arcs):
            computed.append(len(arcs))
            return heights(arcs)

        monkeypatch.setattr(conside, "_heights", counted)
        first = rep_hom(simples[-1], simples[0])
        assert computed == [len(cat.objects)]
        assert [rep_hom(simples[-1], N) for N in simples][0] == first
        assert computed == [len(cat.objects)]

    def test_entry_lists_are_built_once_per_morphism(self, monkeypatch):
        # End(gen 4) at n = 3 has 7,113 cells; the per-face build made an
        # entry list for each face of each chain, identities included
        calls = []

        def counted(entries):
            def count(m, *dim):
                calls.append(m)
                return entries(m, *dim)
            return count

        monkeypatch.setattr(conside, "_entries", counted(conside._entries))
        monkeypatch.setitem(globals(), "face_entries", counted(face_entries))
        cat = ChamberCategory(3)
        gen = beilinson_rep(3, 4, cat)
        conside.hom_complex(gen, gen)
        morphisms = sum(len(cat.hom_basis(x, y)) for x in cat.objects
                        for y in cat.objects)
        assert len(calls) <= 2 * morphisms, len(calls)
        kept = len(calls)
        calls.clear()
        per_face_hom_complex(gen, gen)
        assert len(calls) > 10 * kept, (len(calls), kept)

    def test_differentials_rank_as_sympy_in_any_row_order(self):
        # the rank kernel on the matrices it serves: every generator pair
        # at n <= 2 and every simple pair at n = 3, as built and with the
        # rows in a seeded shuffle
        sympy = pytest.importorskip("sympy")
        rng = random.Random(41)
        ranked = 0
        for diffs, widths in bar_complex_pairs(generators_up_to=2,
                                               simples_at=(3,)):
            for d, width in zip(diffs, widths):
                expected = sympy.Matrix(to_dense(d, width)).rank()
                shuffled = rng.sample(d, len(d))
                assert zlin.rational_rank(d) == expected
                assert zlin.rational_rank(shuffled) == expected
                ranked += 1
        assert ranked == 70, ranked

    def test_sparsest_rows_first_eliminate_no_more(self, monkeypatch):
        # rows reach the echelon sorted by their number of entries; on the
        # bar complexes at n <= 3 that took 13,971 eliminations, against
        # 16,260 with the rows in the order hom_complex builds them
        calls = []
        eliminate = zlin._eliminate

        def counted(r, p, col):
            calls.append(col)
            return eliminate(r, p, col)

        monkeypatch.setattr(zlin, "_eliminate", counted)
        sorted_calls = built_calls = 0
        for diffs, _ in bar_complex_pairs(generators_up_to=3,
                                          simples_at=(1, 2, 3)):
            for d in diffs:
                calls.clear()
                rank = zlin.rational_rank(d)
                sorted_calls += len(calls)
                calls.clear()
                assert len(zlin._echelon(zlin._sparse_rows(d))) == rank
                built_calls += len(calls)
        assert sorted_calls <= 13971 < 16260 == built_calls

    def test_rep_hom_builds_no_dense_differential(self):
        # with dense differentials the traced peak was about 3.8 MiB;
        # with sparse rows it is about 0.6 MiB
        cat = ChamberCategory(3)
        M, N = beilinson_rep(3, 4, cat), beilinson_rep(3, 2, cat)
        tracemalloc.start()
        try:
            ext = rep_hom(M, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ext == [0]
        assert peak < 2 * 1024 * 1024, peak


class TestCartanEuler:
    def test_antichain(self):
        p = FinitePoset.antichain(2)
        assert cartan_matrix(p) == IntMatrix.identity(2)
        assert euler_form(p, (2, 3), (4, 5)) == 23  # plain dot product

    def test_chain_triangular(self):
        p = FinitePoset.chain(2)
        c = cartan_matrix(p)
        assert c == IntMatrix([[1, 1], [0, 1]])

    def test_euler_matches_rep_hom(self):
        for p in small_posets():
            reps = {v: corepresentable(p, v) for v in p.objects}
            dimvec = {v: reps[v].dim_vector() for v in p.objects}
            for v in p.objects:
                for w in p.objects:
                    ext = rep_hom(reps[v], reps[w])
                    alt = sum((-1) ** i * x for i, x in enumerate(ext))
                    assert euler_form(p, dimvec[v], dimvec[w]) == alt

    def test_euler_matches_rep_hom_on_simples(self):
        for p in small_posets():
            simples = {}
            for v in p.objects:
                dims = {w: 1 if w == v else 0 for w in p.objects}
                simples[v] = CatRep(p, dims, {})
            for v in p.objects:
                for w in p.objects:
                    ext = rep_hom(simples[v], simples[w])
                    alt = sum((-1) ** i * x for i, x in enumerate(ext))
                    dv = simples[v].dim_vector()
                    dw = simples[w].dim_vector()
                    assert euler_form(p, dv, dw) == alt

    def test_p2_gram(self):
        cat = ChamberCategory(2)
        gens = [beilinson_rep(2, k, cat) for k in (1, 2, 3)]
        gram = [[euler_form(cat, a.dim_vector(), b.dim_vector())
                 for b in gens] for a in gens]
        assert gram == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]

    @pytest.mark.parametrize("n", [5, 6])
    def test_generator_gram_matches_coherent_pairing(self, n):
        # 2.7 s at n = 6 with dense arrow matrices; about 0.3 s sparse
        _, gram = checks.generator_gram(n, ChamberCategory(n))
        assert gram == [[euler_pairing_coherent(n, i, j)
                         for j in range(n + 1)] for i in range(n + 1)]

    def test_euler_form_is_an_exact_int(self):
        rng = random.Random(5)
        categories = small_posets() + [ChamberCategory(n) for n in (1, 2, 3)]
        for category in categories:
            size = len(category.objects)
            for _ in range(5):
                d = [rng.randint(-3, 3) for _ in range(size)]
                e = [rng.randint(-3, 3) for _ in range(size)]
                assert type(euler_form(category, d, e)) is int

    def test_cartan_matrix_is_inverted_once_per_category(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return zlin.rational_inverse(rows)

        monkeypatch.setattr(conside, "rational_inverse", counted)
        first, second = ChamberCategory(3), ChamberCategory(3)
        for cat in (first, first, second, first):
            assert euler_form(cat, (0, 0, 0, 1), (1, 0, 0, 0)) == -4
        assert calls == [4, 4]

    def test_non_unitriangular_cartan_matrix_rejected(self):
        # a two-object cycle: hom spaces both ways, so no object order
        # makes the Cartan matrix [[1, 1], [1, 1]] triangular
        class Cycle:
            objects = (0, 1)

            def hom_basis(self, x, y):
                return () if x == y else ((x, y),)

            def __repr__(self):
                return "Cycle()"

        with pytest.raises(ConError, match=r"Cartan matrix of Cycle\(\) is "
                                           "not unitriangular"):
            euler_form(Cycle(), (1, 0), (0, 1))


def signed_koszul_dual_dims(n, width):
    """K[x][x - p] = (-1)^p C(width, p) on the steps 0..n, 0 elsewhere:
    with width n + 1, the signed dimensions of the Koszul dual of the
    chamber category, which has the p-th exterior power of k^(n+1) from
    step x to step x - p."""
    return IntMatrix([[(-1) ** (x - y) * comb(width, x - y) if y <= x else 0
                       for y in range(n + 1)] for x in range(n + 1)])


class TestKoszulIdentity:
    """The numerical Koszul identity (Polishchuk-Positselski, Ch. 2):
    the Cartan matrix of the chamber category times the signed
    dimensions of its Koszul dual is the identity, with no rank."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cartan_times_koszul_dual_is_identity(self, n):
        cartan = cartan_matrix(ChamberCategory(n))
        assert cartan @ signed_koszul_dual_dims(n, n + 1) == \
            IntMatrix.identity(n + 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_wrong_wedge_count_fails(self, n):
        # exterior powers of k^n, one wall symbol short
        cartan = cartan_matrix(ChamberCategory(n))
        assert cartan @ signed_koszul_dual_dims(n, n) != \
            IntMatrix.identity(n + 1)


class TestBeilinsonGenerators:
    @pytest.mark.parametrize("build,message", [
        (lambda: beilinson_rep(2, 1.5), "not n = 2, k = 1.5"),
        (lambda: beilinson_rep(2, True), "not n = 2, k = True"),
        (lambda: beilinson_rep(1.5, 1, ChamberCategory(1)),
         "not n = 1.5, k = 1"),
        (lambda: beilinson_generators(1.5), "int n >= 1, not 1.5"),
        (lambda: beilinson_generators(True), "int n >= 1, not True"),
        (lambda: beilinson_generators(0), "int n >= 1, not 0"),
    ], ids=["fractional-k", "bool-k", "fractional-n-with-category",
            "generators-fractional-n", "generators-bool-n",
            "generators-zero-n"])
    def test_bad_input_rejected(self, build, message):
        # before: "0.5 is not an object", a raw TypeError, True taken as 1,
        # a SkeletonError from the chamber enumeration
        with pytest.raises(ConError, match=message):
            build()

    @pytest.mark.parametrize("n, k, category", [
        (1, 1, ChamberCategory(3)), (3, 4, ChamberCategory(1)),
        (1, 1, FinitePoset.chain(2))],
        ids=["larger-category", "smaller-category", "poset"])
    def test_category_of_another_n_rejected(self, n, k, category):
        # before: a rep of the n = 3 category, the misleading
        # "3 is not an object", and a projective of the poset
        with pytest.raises(ConError, match=f"for n = {n} needs the chamber "
                                           f"category of n = {n}"):
            beilinson_rep(n, k, category)

    def test_p2_dims(self):
        gens = beilinson_generators(2)
        chambers = enumerate_chambers(2)
        k1, k2, k3 = gens
        assert k1.class_dims == (1, 0, 0)
        assert k2.class_dims == (3, 1, 0)
        assert k3.class_dims == (6, 3, 1)
        center = next(c for c in chambers if c.step == 0)
        assert k2.chamber_dims[center] == 3
        assert all(k2.chamber_dims[c] == 1 for c in chambers if c.step == 1)
        assert all(k2.chamber_dims[c] == 0 for c in chambers if c.step == 2)
        assert k3.chamber_dims[center] == 6
        assert all(k3.chamber_dims[c] == 3 for c in chambers if c.step == 1)
        assert all(k3.chamber_dims[c] == 1 for c in chambers if c.step == 2)

    def test_class_dims_match_projectives(self):
        for n in (1, 2, 3):
            cat = ChamberCategory(n)
            for k, gen in enumerate(beilinson_generators(n), start=1):
                assert gen.class_dims == beilinson_rep(n, k, cat).dim_vector()

    def test_center_ranks_match_sym_expansion(self):
        # rank of Sym^(k-1) of the rank n+1 bundle, counted as monomials
        for n in (1, 2, 3):
            chambers = enumerate_chambers(n)
            center = next(c for c in chambers if c.step == 0)
            for k, gen in enumerate(beilinson_generators(n), start=1):
                monomials = list(combinations_with_replacement(range(n + 1),
                                                               k - 1))
                assert gen.chamber_dims[center] == len(monomials)

    def test_ranks_match_sod_labels(self):
        # the decomposition component ranks per chamber, read through
        # ChamberCategory, not _class_dims
        for n in (1, 2, 3):
            cat = ChamberCategory(n)
            chambers = enumerate_chambers(n)
            for k, gen in enumerate(beilinson_generators(n), start=1):
                rep = beilinson_rep(n, k, cat)
                for c in chambers:
                    assert gen.chamber_dims[c] == rep.dims[c.step]

    # (flags, slant): decoration exponents of the k = 2 generator where
    # the rotated second-component listing, now removed, gave another
    # monomial; these pin the one display rule that is kept
    SECOND_COMPONENT_DECORATIONS = {
        1: {("S", 0): (1,)},
        2: {("LL", 1): (0, 0), ("LS", 0): (0, 1), ("SL", 0): (1, 0)},
        3: {("LLL", 1): (0, 0, 0), ("LLS", 0): (0, 0, 1),
            ("LSL", 0): (0, 1, 0), ("SLL", 0): (1, 0, 0)},
        4: {("LLLL", 1): (0, 0, 0, 0), ("LLLS", 0): (0, 0, 0, 1),
            ("LLSL", 0): (0, 0, 1, 0), ("LSLL", 0): (0, 1, 0, 0),
            ("SLLL", 0): (1, 0, 0, 0)},
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decorations_against_sod_labels(self, n):
        # the wall-letter rule: below step k the prefix is the product of
        # the generators at the S positions, and the unit from step k on
        second = {}
        for k, gen in enumerate(beilinson_generators(n), start=1):
            for c in enumerate_chambers(n):
                decoration = gen.decorations[c]
                expected = tuple(
                    1 if f == "S" and c.step < k else 0 for f in c.flags)
                assert decoration.exponents == expected
                key = (c.flag_string(), c.slant)
                if k == 2 and key in self.SECOND_COMPONENT_DECORATIONS[n]:
                    second[key] = decoration.exponents
        assert second == self.SECOND_COMPONENT_DECORATIONS[n]

    def test_gram_unimodular_triangular(self):
        for n in (1, 2, 3):
            cat = ChamberCategory(n)
            gens = beilinson_generators(n)
            gram = [[euler_form(cat, a.class_dims, b.class_dims)
                     for b in gens] for a in gens]
            for i in range(n + 1):
                assert gram[i][i] == 1
                for j in range(i):
                    assert gram[i][j] == 0


class TestReduction:
    def test_single_generator(self):
        trace = reduce_dimension_vector(2, (1, 0, 0))
        assert [s.coefficient for s in trace] == [0, 0, 1]
        assert trace[-1].remainder == (0, 0, 0)

    def test_sum_of_generators(self):
        gens = beilinson_generators(2)
        total = tuple(sum(g.class_dims[s] for g in gens) for s in range(3))
        trace = reduce_dimension_vector(2, total)
        assert [s.coefficient for s in trace] == [1, 1, 1]
        assert trace[-1].remainder == (0, 0, 0)

    def test_random_terminates(self):
        rng = random.Random(101)
        for n in (1, 2, 3):
            gens = beilinson_generators(n)
            for _ in range(100):
                d = [rng.randint(-5, 5) for _ in range(n + 1)]
                trace = reduce_dimension_vector(n, d)
                assert len(trace) == n + 1
                assert trace[-1].remainder == (0,) * (n + 1)
                rebuilt = [0] * (n + 1)
                for step in trace:
                    g = gens[step.k - 1].class_dims
                    rebuilt = [a + step.coefficient * b
                               for a, b in zip(rebuilt, g)]
                assert rebuilt == d

    def test_chamber_vector_collapse(self):
        chambers = enumerate_chambers(2)
        gens = beilinson_generators(2)
        display = [sum(g.chamber_dims[c] for g in gens) for c in chambers]
        trace = reduce_dimension_vector(2, display)
        assert [s.coefficient for s in trace] == [1, 1, 1]

    def test_nonconstant_chamber_vector_rejected(self):
        with pytest.raises(ConError):
            reduce_dimension_vector(2, (1, 2, 3, 4, 5, 6, 7))

    def test_bad_length_rejected(self):
        with pytest.raises(ConError):
            reduce_dimension_vector(2, (1, 2))

    @pytest.mark.parametrize("d", [(1.5, 0, 0), (1, True, 0), (1, 0, "0"),
                                   (Fraction(1), 0, 0),
                                   (1.0,) * 7])
    def test_non_int_entries_rejected(self, d):
        # (1.5, 0, 0) once reduced (1, 0, 0); seven entries take the
        # per-chamber display path at n = 2
        with pytest.raises(ConError, match="is not an int"):
            reduce_dimension_vector(2, d)

    @pytest.mark.parametrize("n", [0, -1, 1.5, True])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ConError, match="reduction needs an int n >= 1"):
            reduce_dimension_vector(n, (1, 0))


class TestTwistedTemplate:
    def test_matches_typical_object_figure(self):
        L = PicMonomial.generator(0, 2)
        M = PicMonomial.generator(1, 2)
        q = twisted_rep_template(2, [L, M])
        by_chamber = {(v.chamber.flag_string(), v.chamber.slant):
                      v.label.exponents for v in q.vertices}
        assert by_chamber == {
            ("SS", 0): (0, 0),    # x
            ("SL", 1): (0, 1),    # x M
            ("LS", 1): (-1, 1),   # x L^-1 M
            ("LS", 0): (0, 0),    # y
            ("SL", 0): (1, 0),    # y L
            ("LL", 1): (0, 1),    # y M
            ("LL", 0): (0, 0),    # z
        }
        # edge decorations: f, g, h and the k's are unit on their base
        # lifts; the other lifts carry M, L^-1 M and L respectively
        edge_exps = sorted(e.label.exponents for e in q.edges)
        assert edge_exps == sorted([
            (0, 0), (0, 0), (0, 0),           # k1, k2, k3
            (0, 0), (0, 1),                   # f, f M
            (0, 0), (-1, 1),                  # g, g L^-1 M
            (0, 0), (1, 0),                   # h, h L
        ])

    def test_edge_consistency(self):
        L = PicMonomial.generator(0, 2)
        M = PicMonomial.generator(1, 2)
        q = twisted_rep_template(2, [L, M])
        loops = [L.inverse() * M, M]  # the template's boundary monomials

        def transport(v):
            out = PicMonomial.unit(2)
            for loop, e in zip(loops, v):
                out = out * (loop ** e)
            return out

        # two cube edges are lifts of one torus edge iff a single deck
        # translation carries source to source and target to target; the
        # label ratios of sources, targets, and edges all equal its
        # transport monomial
        found_pairs = 0
        for e1 in q.edges:
            for e2 in q.edges:
                s1, t1 = q.vertices[e1.source], q.vertices[e1.target]
                s2, t2 = q.vertices[e2.source], q.vertices[e2.target]
                (sa1, sm1), (ta1, tm1) = s1.region(), t1.region()
                (sa2, sm2), (ta2, tm2) = s2.region(), t2.region()
                v = tuple(a - b for a, b in zip(sa2, sa1))
                if (tuple(a - b for a, b in zip(ta2, ta1)) != v
                        or sm2 - sm1 != sum(v) or tm2 - tm1 != sum(v)):
                    continue
                rho = transport(v)
                assert s2.label == s1.label * rho
                assert t2.label == t1.label * rho
                assert e2.label == e1.label * rho
                if any(v):
                    found_pairs += 1
        assert found_pairs == 6  # f, g, h each have two lifts

    def test_p1(self):
        q = twisted_rep_template(1, [PicMonomial.generator(0, 1)])
        labels = sorted(format_monomial(v.label) for v in q.vertices)
        assert labels == ["1", "1", "L1"]

    def test_untwisted_collapse(self):
        q = twisted_rep_template(2, [PicMonomial.unit(2),
                                     PicMonomial.unit(2)])
        assert all(v.label.is_unit() for v in q.vertices)
        assert all(e.label.is_unit() for e in q.edges)

    @pytest.mark.parametrize("n,pic,entry", [
        (2, [1, 2], "1"),
        (1, ["L"], "'L'"),
        (3, [PicMonomial.unit(3)] * 2 + [None], "None"),
        (2, [PicMonomial.unit(3)] * 2, r"PicMonomial\(\(0, 0, 0\)\)"),
    ], ids=["ints", "string", "none", "three-generators"])
    def test_bad_pic_rejected(self, n, pic, entry):
        # before, a raw AttributeError or TypeError, or a quiver labelled
        # by monomials over the wrong number of generators
        with pytest.raises(ConError, match=f"Pic entry {entry} is not a "
                           f"PicMonomial with {n} generators"):
            twisted_rep_template(n, pic)


class TestDot:
    def test_deterministic(self):
        L = PicMonomial.generator(0, 2)
        M = PicMonomial.generator(1, 2)
        from fltzlab.skeleton import chamber_quiver
        a = quiver_to_dot(chamber_quiver(2, [L, M]), ["L", "M"])
        b = quiver_to_dot(chamber_quiver(2, [L, M]), ["L", "M"])
        assert a == b
        assert a.startswith("digraph")
        assert a.count("->") == 9
        assert 'label="L^-1 M"' in a
