import json
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltadecode.core import EmptyInputError, InvalidConfigError
from deltadecode.metrics import (
    DegenerateGapError,
    InvalidKError,
    EvalRecord,
    extract_answer,
    load_records,
    majority_at_k,
    match_answer,
    pass_at_k_exact,
    pass_at_k_resampled,
    pass_probability,
    recovery_rate,
    save_records,
)


class TestExtractAnswer:
    def test_boxed_simple(self):
        assert extract_answer(r"so \boxed{42} done", "boxed") == "42"

    def test_boxed_last_group_wins(self):
        assert extract_answer(r"\boxed{\frac{1}{2}} ... \boxed{3}", "boxed") == "3"

    def test_boxed_nested_braces(self):
        assert extract_answer(r"\boxed{\frac{1}{2}}", "boxed") == r"\frac{1}{2}"

    def test_boxed_absent(self):
        assert extract_answer("no box here", "boxed") is None

    def test_boxed_unbalanced(self):
        assert extract_answer(r"\boxed{unclosed", "boxed") is None

    def test_boxed_allows_space(self):
        assert extract_answer(r"\boxed {7}", "boxed") == "7"

    def test_last_number_comma_stripped(self):
        assert extract_answer("answer is 1,024.", "last_number") == "1024"

    def test_last_number_takes_final(self):
        assert extract_answer("3 then 5 then 7", "last_number") == "7"

    def test_last_number_sign_and_decimal(self):
        assert extract_answer("cooled to -3.5 degrees", "last_number") == "-3.5"

    def test_last_number_absent(self):
        assert extract_answer("no digits", "last_number") is None

    def test_unknown_style(self):
        with pytest.raises(InvalidConfigError):
            extract_answer("x", "roman_numerals")


class TestMatchAnswer:
    def test_numeric_equality_across_forms(self):
        assert match_answer("0.5", "1/2")

    def test_whitespace_and_case(self):
        assert match_answer(" X ", "x")

    def test_plain_mismatch(self):
        assert not match_answer("12", "21")

    def test_dollar_stripping(self):
        assert match_answer("$42$", "42")

    def test_internal_whitespace_collapsed(self):
        assert match_answer("a  b", "a b")

    def test_none_never_matches(self):
        assert not match_answer(None, "42")

    def test_non_numeric_strings_compared_literally(self):
        assert match_answer("x+1", "x+1")
        assert not match_answer("x+1", "x+2")


class TestEvalRecord:
    def test_correct_recomputed(self):
        r = EvalRecord(problem_id="p", ground_truth="4", predictions=("4", "5", "four"))
        assert r.correct == (True, False, False)
        assert r.n == 3
        assert r.n_correct == 1

    def test_none_predictions_become_empty(self):
        r = EvalRecord(problem_id="p", ground_truth="4", predictions=(None, "4"))
        assert r.predictions == ("", "4")
        assert r.correct == (False, True)

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyInputError):
            EvalRecord(problem_id="p", ground_truth="4", predictions=())

    @pytest.mark.parametrize("truth", ["4", "1/2", "x", ""])
    def test_repeated_predictions_match_as_each_alone(self, truth):
        # Each distinct prediction is matched once; every copy gets its verdict.
        pool = ("", "4", "4.0", "0.5", "x", "", "4", None, "1/2", "x", "", "8/2")
        record = EvalRecord(problem_id="p", ground_truth=truth, predictions=pool * 2)
        assert record.correct == tuple(match_answer(p or "", truth) for p in pool * 2)

    def test_jsonl_round_trip(self, tmp_path):
        records = [
            EvalRecord(problem_id="a", ground_truth="1", predictions=("1", "2")),
            EvalRecord(problem_id="b", ground_truth="x", predictions=("x",)),
        ]
        path = tmp_path / "records.jsonl"
        save_records(records, path)
        loaded = load_records(path)
        assert loaded == records
        # file has one JSON object per line without the derived field
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"problem_id", "ground_truth", "predictions"}

    def test_overlong_integer_names_line(self, tmp_path):
        """An integer past ``int``'s 4300-digit limit is a malformed record."""
        path = tmp_path / "records.jsonl"
        path.write_text('{"problem_id": %s, "ground_truth": "1", "predictions": ["1"]}\n' % ("9" * 5000))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: malformed record: Exceeds"):
            load_records(path)


def brute_force_pass_probability(n, c, k):
    """Enumerate all C(n,k) subsets of a pool with c correct up front."""
    flags = [True] * c + [False] * (n - c)
    subsets = list(combinations(range(n), k))
    hits = sum(any(flags[i] for i in subset) for subset in subsets)
    return Fraction(hits, len(subsets))


class TestPassProbability:
    def test_worked_example(self):
        assert pass_probability(4, 2, 2) == pytest.approx(5 / 6, abs=0)

    def test_matches_enumeration_exactly(self):
        for n in range(1, 9):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    expected = brute_force_pass_probability(n, c, k)
                    got = pass_probability(n, c, k)
                    assert got == float(expected), (n, c, k)

    def test_extremes(self):
        assert pass_probability(8, 0, 3) == 0.0
        assert pass_probability(8, 8, 1) == 1.0

    def test_k_equals_n(self):
        assert pass_probability(5, 0, 5) == 0.0
        assert pass_probability(5, 1, 5) == 1.0


def random_records(rng, n_problems, n=None):
    records = []
    for i in range(n_problems):
        pool = n or int(rng.integers(1, 9))
        correct = int(rng.integers(0, pool + 1))
        predictions = ["1"] * correct + ["0"] * (pool - correct)
        records.append(
            EvalRecord(problem_id=f"p{i}", ground_truth="1", predictions=tuple(predictions))
        )
    return records


class TestPassAtKExact:
    def test_single_record_worked_example(self):
        records = [EvalRecord("p", "1", ("1", "1", "0", "0"))]
        result = pass_at_k_exact(records, 2)
        assert result.value == 5 / 6
        assert result.estimator == "exact"
        assert result.k == 2

    def test_mean_over_records(self):
        records = [
            EvalRecord("a", "1", ("1", "0")),   # 1 - C(1,1)/C(2,1) = 1/2
            EvalRecord("b", "1", ("0", "0")),   # 0
        ]
        assert pass_at_k_exact(records, 1).value == 0.25

    def test_monotone_in_k(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            records = random_records(rng, int(rng.integers(1, 6)), n=8)
            values = [pass_at_k_exact(records, k).value for k in range(1, 9)]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["1", "0", "2"]), min_size=1, max_size=8), min_size=1, max_size=5), st.data())
    def test_matches_subset_enumeration(self, pools, data):
        k = data.draw(st.integers(1, min(len(pool) for pool in pools)))
        records = [EvalRecord(f"p{i}", "1", tuple(pool)) for i, pool in enumerate(pools)]
        expected = [
            Fraction(sum(any(pool[i] == "1" for i in subset) for subset in subsets), len(subsets))
            for pool in pools
            for subsets in [list(combinations(range(len(pool)), k))]
        ]
        assert pass_at_k_exact(records, k).value == pytest.approx(float(sum(expected) / len(expected)), abs=1e-15)

    def test_k_too_large_rejected(self):
        records = [EvalRecord("p", "1", ("1", "0"))]
        with pytest.raises(InvalidKError):
            pass_at_k_exact(records, 3)

    def test_k_zero_rejected(self):
        records = [EvalRecord("p", "1", ("1",))]
        with pytest.raises(InvalidKError):
            pass_at_k_exact(records, 0)

    def test_empty_records_rejected(self):
        with pytest.raises(EmptyInputError):
            pass_at_k_exact([], 1)


class TestPassAtKResampled:
    def test_k_equals_n_is_exact_bitwise(self):
        rng = np.random.default_rng(51)
        records = random_records(rng, 7, n=6)
        exact = pass_at_k_exact(records, 6).value
        resampled = pass_at_k_resampled(records, 6, repeats=10, seed=0).value
        assert resampled == exact

    def test_all_correct_pools(self):
        records = [EvalRecord("p", "1", ("1",) * 5)]
        for k in (1, 3, 5):
            assert pass_at_k_resampled(records, k, repeats=20, seed=1).value == 1.0

    def test_within_three_stderr_of_exact(self):
        records = [EvalRecord("p", "1", ("1", "1", "0", "0"))]
        result = pass_at_k_resampled(records, 2, repeats=10_000, seed=7)
        assert result.stderr is not None and result.stderr > 0
        assert abs(result.value - 5 / 6) <= 3 * result.stderr

    def test_reproducible(self):
        rng = np.random.default_rng(52)
        records = random_records(rng, 5, n=6)
        a = pass_at_k_resampled(records, 3, repeats=50, seed=9)
        b = pass_at_k_resampled(records, 3, repeats=50, seed=9)
        assert a.value == b.value and a.stderr == b.stderr

    def test_metadata(self):
        records = [EvalRecord("p", "1", ("1", "0"))]
        result = pass_at_k_resampled(records, 1, repeats=10, seed=0)
        assert result.estimator == "resampled"
        assert result.repeats == 10


class TestMajorityAtK:
    def test_strict_majority(self):
        records = [EvalRecord("p", "a", ("a", "a", "b"))]
        assert majority_at_k(records, 3, repeats=5, seed=0).value == 1.0

    def test_tie_breaks_to_earliest_occurrence(self):
        records = [EvalRecord("p", "a", ("a", "b"))]
        assert majority_at_k(records, 2, repeats=5, seed=0).value == 1.0

    def test_tie_breaks_against_late_truth(self):
        records = [EvalRecord("p", "b", ("a", "b"))]
        assert majority_at_k(records, 2, repeats=5, seed=0).value == 0.0

    def test_k1_expectation_equals_pass1(self):
        rng = np.random.default_rng(53)
        records = random_records(rng, 4, n=8)
        exact = pass_at_k_exact(records, 1).value
        result = majority_at_k(records, 1, repeats=4000, seed=3)
        assert abs(result.value - exact) <= 3 * max(result.stderr, 1e-9)

    def test_all_correct_is_one(self):
        records = [EvalRecord("p", "z", ("z", "z", "z", "z"))]
        for k in (1, 2, 3, 4):
            assert majority_at_k(records, k, repeats=10, seed=0).value == 1.0

    def test_majority_uses_canonical_grouping(self):
        # "0.5" and "1/2" are the same answer, so they outvote one "7"
        records = [EvalRecord("p", "0.5", ("0.5", "1/2", "7"))]
        assert majority_at_k(records, 3, repeats=5, seed=0).value == 1.0

    def test_bounded(self):
        rng = np.random.default_rng(54)
        records = random_records(rng, 6, n=5)
        for k in (1, 3, 5):
            value = majority_at_k(records, k, repeats=50, seed=11).value
            assert 0.0 <= value <= 1.0


class TestRecoveryRate:
    def test_table_row_math500(self):
        assert recovery_rate(80.7, 68.6, 81.3) == pytest.approx(0.953, abs=5e-4)

    def test_table_row_minerva_exceeds_one(self):
        assert recovery_rate(34.2, 21.0, 33.6) == pytest.approx(1.048, abs=5e-4)

    def test_endpoint_identities(self):
        assert recovery_rate(68.6, 68.6, 81.3) == 0.0
        assert recovery_rate(81.3, 68.6, 81.3) == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            m, b, r = rng.uniform(0, 1, size=3)
            if abs(r - b) < 0.2:
                continue
            # keep the affine image inside the accepted [0, 100] band
            scale = rng.uniform(1.0, 50.0)
            shift = rng.uniform(0.0, 40.0)
            plain = recovery_rate(m, b, r)
            scaled = recovery_rate(m * scale + shift, b * scale + shift, r * scale + shift)
            assert scaled == pytest.approx(plain, abs=1e-12)

    def test_degenerate_gap(self):
        with pytest.raises(DegenerateGapError):
            recovery_rate(50.0, 40.0, 40.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidConfigError):
            recovery_rate(float("nan"), 1.0, 2.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidConfigError):
            recovery_rate(150.0, 10.0, 20.0)

    def test_negative_recovery_allowed(self):
        assert recovery_rate(10.0, 20.0, 30.0) == -1.0
