"""Acceptance gate: every criterion of `taf.criteria` at N = 13, K = 50,
each printing a pass/fail line with its runtime against its ceiling.

A gating criterion passes when its check holds within its ceiling; a
non-gating one only records its outcome in a `[DATA]` line.
"""

import time

from taf.criteria import CRITERIA, MIN_ORDER, MIN_QORDER
from taf.exact import InputError

N, K = 13, 50

# One test per criterion, in registry order.  The test names predate the
# registry and are kept so that each criterion's test history carries over.
_TEST_NAMES = (
    "chart_solve",
    "logarithm",
    "legendre_anchors",
    "hazewinkel_closed_forms",
    "key_lemma_integrality",
    "corollary_1",
    "corollary_2",
    "euler_law",
    "fgl_axioms",
    "qexp_anchors",
    "zeros",
    "transformation",
    "genus_qexp_consistency",
    "embedding_suite",
    "fundamental_domain_reduction",
    "experimental_p17_nongating",
)


def _acceptance_test(number, criterion):
    def test():
        t0 = time.perf_counter()
        ok, detail = criterion.check(N, K)
        elapsed = time.perf_counter() - t0
        limit = criterion.ceiling_s
        print(
            f"[{'PASS' if ok else 'FAIL'}] {number:02d} {criterion.name} "
            f"({elapsed:.2f}s, limit {limit:g}s)"
        )
        if criterion.gating:
            assert ok and elapsed < limit, detail
        else:
            print(f"[DATA] {number:02d} {detail}")

    return test


assert len(_TEST_NAMES) == len(CRITERIA)
for _number, (_name, _criterion) in enumerate(zip(_TEST_NAMES, CRITERIA), start=1):
    globals()[f"test_{_number:02d}_{_name}"] = _acceptance_test(_number, _criterion)


def _gating_failures(N, K):
    """Names of the gating criteria that fail or raise at (N, K)."""
    failures = []
    for criterion in CRITERIA:
        if criterion.gating:
            try:
                ok, _ = criterion.check(N, K)
            except (IndexError, InputError):
                ok = False
            if not ok:
                failures.append(criterion.name)
    return failures


def test_minimum_orders_are_what_the_criteria_need():
    # `taf selftest` refuses N < MIN_ORDER and K < MIN_QORDER: every gating
    # criterion holds at exactly those orders, and the criterion named beside
    # each constant fails one below it.
    assert _gating_failures(MIN_ORDER, MIN_QORDER) == []
    assert "chart-solve" in _gating_failures(MIN_ORDER - 1, MIN_QORDER)
    assert "qexp-anchors" in _gating_failures(MIN_ORDER, MIN_QORDER - 1)
