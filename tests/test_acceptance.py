"""Acceptance gate: every headline guarantee at full scale, one line each.

Each criterion runs the corresponding verification checks at the default
configuration (seed 0, 10^4 trials, so 10^5 sampler draws; the zonal
lemmas average exactly over a cubature on the rotation group) and enforces
the stated runtime budget.
Run with -s to see the per-criterion lines.
"""

import time

from ncwishart.verify import CHECKS, RunConfig


def run_criterion(number, label, names, budget_s):
    config = RunConfig()
    start = time.perf_counter()
    records = [rec for name in names for rec in CHECKS[name](config)]
    elapsed = time.perf_counter() - start
    failed = [rec for rec in records if not rec.passed]
    status = "PASS" if not failed and elapsed < budget_s else "FAIL"
    print(
        f"[{status}] criterion {number}: {label} "
        f"({len(records)} records, {elapsed:.1f}s, budget {budget_s:.0f}s)"
    )
    assert not failed, "; ".join(
        f"{rec.name}: value {rec.value!r} vs tolerance {rec.tolerance!r} ({rec.detail})"
        for rec in failed
    )
    assert elapsed < budget_s, f"{elapsed:.1f}s exceeds the {budget_s:.0f}s budget"


def test_c01_existence_classifier_exact():
    run_criterion(1, "existence table, exact over the parameter grid",
                  ["existence-table"], 1.0)


def test_c02_zonal_sum_rule():
    run_criterion(2, "zonal layers sum to powers of the trace",
                  ["zonal-sum-rule"], 30.0)


def test_c03_zonal_identity_values():
    run_criterion(3, "series layers at the identity match the closed form to 1e-14",
                  ["zonal-identity-values"], 30.0)


def test_c04_projection_lemmas_mc():
    run_criterion(4, "Haar-average identities by exact cubature, within roundoff",
                  ["zonal-lemma-mc"], 10.0)


def test_c05_d2_quadrature_roundtrip():
    run_criterion(5, "sheet plus density quadrature reproduces the d=2 transform",
                  ["d2-roundtrip"], 120.0)


def test_c06_m111_laplace():
    run_criterion(6, "one-dimensional critical density integrates to its transform",
                  ["m111-lt"], 1.0)


def test_c07_split_transform_convergence():
    run_criterion(7, "remainder plus density series recovers the closed form",
                  ["fd-split"], 300.0)


def test_c08_sampler_laplace_agreement():
    run_criterion(8, "sampler transforms match closed forms within 4 sigma",
                  ["sampler-lt"], 180.0)


def test_c09_rank_support():
    run_criterion(9, "rank-support experiments show no off-target mass",
                  ["rank-support"], 120.0)


def test_c10_faa_di_bruno_forms():
    run_criterion(10, "derivative closed forms, exact and finite-difference",
                  ["faa-di-bruno"], 10.0)
