"""Tests for the LP-type formulation of linear programming (Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import InvalidInstanceError
from repro.problems.linear_program import LexicographicValue, LinearProgram
from repro.workloads import degenerate_lp, infeasible_lp, random_feasible_lp


def check_monotonicity(problem, smaller, larger) -> bool:
    """Check ``f(X) <= f(Y)`` for ``X`` a subset of ``Y``.

    ``smaller`` must be a subset of ``larger``; raises ``ValueError`` if not.
    """
    small_set = set(int(i) for i in smaller)
    large_set = set(int(i) for i in larger)
    if not small_set <= large_set:
        raise ValueError("'smaller' must be a subset of 'larger'")
    f_small = problem.solve_subset(sorted(small_set)).value
    f_large = problem.solve_subset(sorted(large_set)).value
    return not f_large < f_small


def check_locality(problem, smaller, larger, extra: int) -> bool:
    """Check the locality axiom for ``X subset Y`` and element ``extra``.

    If ``f(X) = f(Y) = f(X + {e})`` then ``f(Y) = f(Y + {e})`` must hold.
    Returns ``True`` when the premise fails (vacuous) or the conclusion holds.
    """
    small_set = set(int(i) for i in smaller)
    large_set = set(int(i) for i in larger)
    f_small = problem.solve_subset(sorted(small_set)).value
    f_large = problem.solve_subset(sorted(large_set)).value
    f_small_e = problem.solve_subset(sorted(small_set | {int(extra)})).value
    if not f_small == f_large == f_small_e:
        return True
    f_large_e = problem.solve_subset(sorted(large_set | {int(extra)})).value
    return f_large_e == f_large


class TestLexicographicValue:
    def test_equality_with_tolerance(self):
        a = LexicographicValue(objective=1.0, coordinates=(0.5, 0.5))
        b = LexicographicValue(objective=1.0 + 1e-9, coordinates=(0.5, 0.5 + 1e-9))
        assert a == b

    def test_objective_order_dominates(self):
        low = LexicographicValue(objective=1.0, coordinates=(9.0,))
        high = LexicographicValue(objective=2.0, coordinates=(0.0,))
        assert low < high
        assert not high < low

    def test_coordinate_tiebreak(self):
        a = LexicographicValue(objective=1.0, coordinates=(0.0, 5.0))
        b = LexicographicValue(objective=1.0, coordinates=(1.0, 0.0))
        assert a < b

    def test_infeasible_is_top(self):
        finite = LexicographicValue(objective=100.0, coordinates=(1.0,))
        top = LexicographicValue(objective=float("inf"), coordinates=(), infeasible=True)
        assert finite < top
        assert not top < finite
        assert top == LexicographicValue(objective=float("inf"), coordinates=(), infeasible=True)

    def test_total_ordering_helpers(self):
        a = LexicographicValue(objective=1.0, coordinates=(0.0,))
        b = LexicographicValue(objective=2.0, coordinates=(0.0,))
        assert a <= b and a < b and b > a and b >= a


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(InvalidInstanceError):
            LinearProgram(c=[1.0, 2.0], a=[[1.0]], b=[1.0])
        with pytest.raises(InvalidInstanceError):
            LinearProgram(c=[1.0], a=[[1.0], [2.0]], b=[1.0])
        with pytest.raises(InvalidInstanceError):
            LinearProgram(c=[1.0], a=[[1.0]], b=[1.0], box_bound=-5.0)
        with pytest.raises(InvalidInstanceError):
            LinearProgram(c=[1.0], a=[[1.0]], b=[1.0], solver="unknown")

    def test_metadata(self):
        problem = random_feasible_lp(50, 3, seed=0).problem
        assert problem.num_constraints == 50
        assert problem.dimension == 3
        assert problem.combinatorial_dimension == 4
        assert problem.vc_dimension == 4
        assert problem.bit_size() == 4 * 64
        assert problem.payload_num_coefficients() == 4


class TestSolveSubset:
    def test_empty_subset_hits_box_corner(self):
        problem = LinearProgram(c=[1.0, 1.0], a=[[1.0, 0.0]], b=[5.0], box_bound=10.0)
        result = problem.solve_subset([])
        assert result.value.objective == pytest.approx(-20.0)
        assert result.indices == ()

    def test_full_solve_is_feasible_and_optimal(self):
        instance = random_feasible_lp(300, 2, seed=1)
        result = instance.problem.solve()
        assert instance.problem.is_feasible(result.witness)
        # The known interior point is feasible, so the optimum is at most as large.
        interior_value = instance.problem.objective_at(instance.interior_point)
        assert result.value.objective <= interior_value + 1e-7

    def test_subset_solution_monotone_in_constraints(self):
        problem = random_feasible_lp(100, 2, seed=2).problem
        small = problem.solve_subset(range(10)).value
        large = problem.solve_subset(range(100)).value
        assert not large < small

    def test_basis_within_combinatorial_dimension(self):
        problem = random_feasible_lp(500, 3, seed=3).problem
        result = problem.solve()
        assert len(result.indices) <= problem.combinatorial_dimension
        # The basis alone yields the same optimum.
        basis_only = problem.solve_subset(result.indices)
        assert basis_only.value == result.value

    def test_degenerate_instance_basis_capped(self):
        problem = degenerate_lp(200, 3, seed=4).problem
        result = problem.solve()
        assert len(result.indices) <= problem.combinatorial_dimension
        assert result.value.objective == pytest.approx(-3.0, abs=1e-5)

    def test_infeasible_subset_value_is_top(self):
        problem = infeasible_lp(dimension=2).problem
        result = problem.solve()
        assert result.value.infeasible
        assert result.witness is None

    def test_seidel_backend_agrees(self):
        highs = random_feasible_lp(150, 2, seed=5, solver="highs").problem
        seidel = random_feasible_lp(150, 2, seed=5, solver="seidel", lexicographic=False).problem
        assert highs.solve().value.objective == pytest.approx(
            seidel.solve().value.objective, rel=1e-5, abs=1e-5
        )


class TestViolationTests:
    def test_violates_matches_constraint_arithmetic(self):
        problem = random_feasible_lp(100, 2, seed=6).problem
        point = np.array([100.0, -50.0])
        for index in range(0, 100, 7):
            manual = float(problem.a[index] @ point - problem.b[index]) > 1e-5
            assert problem.violates(point, index) == manual

    def test_violating_indices_vectorised_matches_scalar(self):
        problem = random_feasible_lp(200, 3, seed=7).problem
        point = np.array([2.0, -2.0, 2.0])
        vectorised = set(problem.violating_indices(point, range(200)).tolist())
        scalar = {i for i in range(200) if problem.violates(point, i)}
        assert vectorised == scalar

    def test_optimum_violates_nothing(self):
        problem = random_feasible_lp(300, 2, seed=8).problem
        result = problem.solve()
        assert problem.violating_indices(result.witness, problem.all_indices()).size == 0

    def test_none_witness_violates_nothing(self):
        problem = random_feasible_lp(10, 2, seed=9).problem
        assert not problem.violates(None, 0)
        assert problem.violating_indices(None, range(10)).size == 0


class TestLPTypeAxioms:
    """Monotonicity and locality of the induced set function f."""

    @pytest.mark.parametrize("seed", range(5))
    def test_monotonicity_random_subsets(self, seed):
        problem = random_feasible_lp(40, 2, seed=seed).problem
        rng = np.random.default_rng(seed)
        large = sorted(rng.choice(40, size=20, replace=False).tolist())
        small = sorted(rng.choice(large, size=8, replace=False).tolist())
        assert check_monotonicity(problem, small, large)

    @pytest.mark.parametrize("seed", range(5))
    def test_locality_random_subsets(self, seed):
        problem = random_feasible_lp(40, 2, seed=seed + 100).problem
        rng = np.random.default_rng(seed)
        large = sorted(rng.choice(40, size=15, replace=False).tolist())
        small = sorted(rng.choice(large, size=6, replace=False).tolist())
        extra = int(rng.integers(0, 40))
        assert check_locality(problem, small, large, extra)

    def test_monotonicity_validates_subset_relation(self):
        problem = random_feasible_lp(10, 2, seed=0).problem
        with pytest.raises(ValueError):
            check_monotonicity(problem, [1, 2], [2, 3])


class TestRestrict:
    def test_restrict_preserves_solution_structure(self):
        problem = random_feasible_lp(100, 2, seed=10).problem
        subset = list(range(0, 100, 2))
        restricted = problem.restrict(subset)
        assert restricted.num_constraints == 50
        direct = problem.solve_subset(subset)
        assert restricted.solve().value.objective == pytest.approx(
            direct.value.objective, abs=1e-6
        )
