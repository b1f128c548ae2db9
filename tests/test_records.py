"""Every result record is a named tuple with a fixed field order.

Callers build records positionally (tests/test_golden.py builds
LemmaCheckResult that way), so the order of the fields is part of the API.
"""

import pytest

from collatzq import bookkeeping, cache, core, jump, quotient, verify

RECORDS = [
    (core.OrbitRecord, ("start", "steps_to_one", "max_excursion", "trajectory_prefix",
                        "truncated", "cycle_value")),
    (quotient.ClassWindow, ("base", "level", "bound", "members", "exact_within_bound")),
    (quotient.DeltaSequence, ("base", "values", "stabilization_index")),
    (quotient.MergeResult, ("left", "right", "merge_time", "cap")),
    (bookkeeping.BookkeepingWindow, ("base", "k_min", "k_max", "n_max", "bound", "class_cells",
                                     "minima", "row_stabilization", "delta_star_window")),
    (bookkeeping.SufficientSetReport, ("bound", "violations", "tau_nu2_histogram")),
    (verify.LemmaCheckResult, ("check_id", "range_description", "instances_tested",
                               "failures", "elapsed")),
    (verify.RangeVerificationReport, ("lo", "hi", "elements_checked", "all_reach_one",
                                      "max_steps_observed", "max_excursion_observed",
                                      "cycles_found", "truncated_elements")),
    (cache.CacheEntry, ("steps", "max_excursion")),
    (jump._SieveTable, ("survivors", "classes")),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_record_is_a_named_tuple_with_its_field_order(record, fields):
    assert issubclass(record, tuple)
    assert record._fields == fields
