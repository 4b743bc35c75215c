"""Unit tests for the exact bound formulas and recurrences."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from quadbetti.bounds import (
    AggregateBounds,
    b_ci,
    b_ci_bound,
    b_quad,
    bound_aggregate,
    bound_betti,
    c_ci,
    q_quad,
)


class TestQQuad:
    def test_base_cases(self):
        assert q_quad(0, 5) == 6
        assert q_quad(3, 3) == 8
        assert q_quad(0, 0) == 1

    def test_recurrence_unroll(self):
        # independent hand-unroll: q(1,2) = 2*q(0,1) - q(1,1) = 4 - 2 = 2,
        # q(2,2) = 4, so q(2,3) = 2*q(1,2) - q(2,2) = 0
        assert q_quad(1, 2) == 2
        assert q_quad(2, 2) == 4
        assert q_quad(2, 3) == 0
        # cross-check with the degree-one closed form (-1)^3 * 3 + 3
        assert q_quad(2, 3) == (-1) ** 3 * 3 + 3

    def test_values_can_be_negative(self):
        assert any(q_quad(j, k) < 0 for k in range(2, 12) for j in range(2, k + 1))

    @pytest.mark.parametrize("j,k", [(-1, 3), (2, -1), (4, 3)])
    def test_domain_errors(self, j, k):
        with pytest.raises(ValueError):
            q_quad(j, k)


class TestBQuad:
    def test_known_varieties(self):
        # smooth quadric surface in P^3: mod-2 Betti 1+0+2+0+1 = 4
        assert b_quad(1, 3) == 4
        # intersection of two quadrics in P^3 is an elliptic curve: 1+2+1 = 4
        assert b_quad(2, 3) == 4
        # j = k case: 2^j points counted with the even branch
        assert b_quad(4, 4) == 16
        # smooth conic is a 2-sphere over the complex numbers: 1+0+1 = 2
        assert b_quad(1, 2) == 2

    def test_nonnegative_everywhere(self):
        for k in range(0, 40):
            for j in range(0, k + 1):
                assert b_quad(j, k) >= 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            b_quad(5, 2)


class TestCCi:
    def test_base_cases(self):
        assert c_ci(0, 7, ()) == 8
        assert c_ci(2, 2, (2, 2)) == 4

    def test_quartic_surface_unroll(self):
        # c(1,2,(4)) = 4*c(0,1,()) - 3*c(1,1,(4)) = 8 - 12 = -4
        assert c_ci(1, 2, (4,)) == -4
        # c(1,3,(4)) = 4*c(0,2,()) - 3*c(1,2,(4)) = 12 + 12 = 24 (K3: 1+22+1)
        assert c_ci(1, 3, (4,)) == 24

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            c_ci(2, 3, (2,))
        with pytest.raises(ValueError):
            c_ci(0, 3, (2,))

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            c_ci(1, 2, (0,))

    def test_no_degrees_lists_nothing(self):
        # The cli's row-work limit counts j * (k - j + 1) = 0 steps for j = 0,
        # so the first row must not be listed: that would take k + 1 ints.
        tracemalloc.start()
        try:
            assert c_ci(0, 10**6, ()) == 10**6 + 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestBCi:
    def test_known_varieties(self):
        # plane cubic is an elliptic curve: 1+2+1 = 4
        assert b_ci(1, 2, (3,)) == 4
        # must collapse to the all-quadrics value
        assert b_ci(1, 3, (2,)) == 4 == b_quad(1, 3)
        # Bezout: 2*2*2 points
        assert b_ci(3, 3, (2, 2, 2)) == 8
        # smooth plane conic
        assert b_ci(1, 2, (2,)) == 2
        # degree-10 plane curve has genus 36: 1 + 72 + 1
        assert b_ci(1, 2, (10,)) == 74

    def test_hyperplane_sections_give_projective_space(self):
        # j hyperplanes cut P^k down to P^{k-j}, total mod-2 Betti k-j+1
        for k in range(1, 12):
            for j in range(1, k + 1):
                assert b_ci(j, k, (1,) * j) == k - j + 1

    def test_all_two_degrees_agree_with_b_quad(self):
        for k in range(0, 61):
            for j in range(0, k + 1):
                assert b_ci(j, k, (2,) * j) == b_quad(j, k)

    def test_nonnegative_on_mixed_degrees(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            k = rng.randint(1, 14)
            j = rng.randint(0, k)
            degrees = tuple(rng.randint(1, 6) for _ in range(j))
            assert b_ci(j, k, degrees) >= 0


    def test_size_bound_holds_on_every_degree_tuple(self):
        # b_ci_bound's generating-function proof, checked on all ordered degree
        # tuples from 1..4 for k <= 7, with and without a larger declared top degree.
        for k in range(8):
            for j in range(k + 1):
                for degrees in itertools.product(range(1, 5), repeat=j):
                    top = max(degrees, default=1)
                    assert b_ci(j, k, degrees) <= b_ci_bound(j, k, top) <= b_ci_bound(j, k, top + 1)

    def test_size_bound_is_tight_for_quadrics_of_full_codimension(self):
        # j = k: b = 2^k points, and the bound is 2^k * C(k+1, k+1) + 2(k+1)
        for k in range(12):
            assert b_ci_bound(k, k) - b_quad(k, k) == 2 * (k + 1)
        assert b_ci_bound(2, 9100) < 10**13 and b_quad(2, 9100) == 18200


class TestQClosedForms:
    def test_degree_one_closed_form(self):
        for k in range(1, 201):
            assert q_quad(1, k) == k + (1 - (-1) ** k) // 2

    def test_degree_two_closed_form(self):
        for k in range(2, 201):
            assert q_quad(2, k) == (-1) ** k * k + k

    def test_absolute_value_bound(self):
        for k in range(2, 61):
            for j in range(2, k + 1):
                assert abs(q_quad(j, k)) <= 2 ** (j - 1) * math.comb(k, j - 1)

    def test_odd_case_bound(self):
        for k in range(2, 61):
            for j in range(2, k + 1):
                if (k - j) % 2 == 1:
                    assert 2 * (k - j + 1) - q_quad(j, k) <= 2 ** (j - 1) * math.comb(
                        k, j - 1
                    )


class TestBQuadBounds:
    def test_single_quadric_case_formula(self):
        for k in range(1, 201):
            if k % 2 == 0:
                assert b_quad(1, k) == q_quad(0, k - 1) == k
            else:
                assert b_quad(1, k) == q_quad(0, k) == k + 1

    def test_binomial_bound(self):
        for k in range(2, 61):
            for j in range(2, k + 1):
                assert b_quad(j, k) <= 2 ** (j - 1) * math.comb(k, j - 1)


class TestFormulaLink:
    """The lemma tying the complete-intersection totals to the paper's sum.

    For 1 <= j <= k, b_quad(j, k) <= 2^(j-1) C(k+1, j), with equality exactly
    at j = 1 for odd k.  So each term C(s, j) C(k+1, j) 2^j / 2 of
    `bound_betti` covers C(s, j) smooth complete intersections of j quadrics:
    bound_betti(s, k, i) >= 1/2 + sum_{j=1}^{min(s, k-i)} C(s, j) b_quad(j, k).
    A change to either formula breaks one of these without reference to the
    other's recorded values.  Checked exactly for k < 40.
    """

    B = {(j, k): b_quad(j, k) for k in range(1, 40) for j in range(1, k + 1)}

    def test_term_bound_and_its_equality_case(self):
        for (j, k), b in self.B.items():
            cap = 2 ** (j - 1) * math.comb(k + 1, j)
            assert b <= cap, (j, k)
            assert (b == cap) == (j == 1 and k % 2 == 1), (j, k)

    def test_bound_betti_covers_complete_intersection_totals(self):
        for k in range(1, 40):
            for s in range(1, k + 1):
                for i in range(k):
                    cover = sum(math.comb(s, j) * self.B[j, k] for j in range(1, min(s, k - i) + 1))
                    assert bound_betti(s, k, i) >= Fraction(1, 2) + cover, (s, k, i)


class TestBoundBetti:
    def test_examples(self):
        assert bound_betti(1, 1, 0) == Fraction(5, 2)
        assert bound_betti(2, 4, 0) == Fraction(61, 2)
        # min{3, 6-5} = 1 truncates the sum
        assert bound_betti(3, 6, 5) == Fraction(43, 2)
        assert bound_betti(3, 3, 0) == Fraction(129, 2)
        assert bound_betti(2, 2, 1) == Fraction(13, 2)

    @pytest.mark.parametrize("s,k,i", [(0, 3, 0), (4, 3, 0), (2, 3, -1), (2, 3, 3)])
    def test_domain_errors(self, s, k, i):
        with pytest.raises(ValueError):
            bound_betti(s, k, i)


class TestBoundAggregate:
    def test_examples(self):
        assert bound_aggregate(2, 4).simple == Fraction(45)
        assert bound_aggregate(1, 2).total == Fraction(7)
        assert bound_aggregate(2, 5).simple == Fraction(135, 2)

    def test_fields_gated_independently(self):
        agg = bound_aggregate(1, 4)
        assert agg.simple is None and agg.exp_form is None
        assert agg.total > 0
        agg = bound_aggregate(3, 5)  # 2s > k
        assert agg.simple is None
        assert isinstance(bound_aggregate(2, 4), AggregateBounds)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bound_aggregate(0, 4)
        with pytest.raises(ValueError):
            bound_aggregate(5, 4)

    def test_exp_form_flagged_float(self):
        agg = bound_aggregate(2, 4)
        assert isinstance(agg.exp_form, float)
        assert isinstance(agg.simple, Fraction)

    @pytest.mark.parametrize("s, k, total_digits", [(400, 800, 420), (2047, 4094, 2141)])
    def test_exp_form_overflow_is_inf(self, s, k, total_digits):
        agg = bound_aggregate(s, k)
        assert agg.exp_form == math.inf
        assert agg.simple == Fraction(3**s * math.comb(k + 1, s), 2)
        terms = sum(math.comb(s, j) * math.comb(k + 1, j) * 2**j for j in range(s + 1))
        assert agg.total == Fraction(k * terms, 2)
        assert len(str(agg.total.numerator)) == total_digits


class TestBoundChain:
    def test_per_degree_below_simple_below_exp_form(self):
        for k in range(4, 61):
            for s in range(2, k // 2 + 1):
                agg = bound_aggregate(s, k)
                assert agg.simple is not None
                assert float(agg.simple) <= agg.exp_form * (1 + 1e-9)
                # exact: 2718/1000 < e, so this right side is below (1/2)(3e(k+1)/s)^s
                assert agg.simple <= Fraction(1, 2) * (3 * Fraction(2718, 1000) * (k + 1) / s) ** s
                for i in range(k):
                    assert bound_betti(s, k, i) <= agg.simple
