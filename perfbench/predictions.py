"""Which workload each traced span is predicted to run on.

The tracer's coverage self-check compares these predictions with the calls
it records: a span predicted to run must record calls, and a span predicted
to be bypassed must record none.  A wrapper that misses an import binding
would otherwise read as a layer that costs nothing.  NOTES.md gives the
end-to-end metric each span should move.
"""

from __future__ import annotations

ALL = frozenset({"report-set", "strata", "expand"})
CHECKS = frozenset({"report-set", "strata"})     # every `cgv check` workload
REPORT_SET = frozenset({"report-set"})

USED_ON = {
    "nf.mul": ALL,
    "nf.add": ALL,
    "nf.inverse": CHECKS,
    "nf.pow": CHECKS,
    "mpoly.mul": ALL,
    "mpoly.add": ALL,
    "mpoly.pow": ALL,
    "mpoly.substitute": CHECKS,
    "mpoly.partial": REPORT_SET,       # only the tangent suite differentiates
    "linalg.nf_rref": CHECKS,
    "linalg.matrix_det": CHECKS,
    "linalg.matrix_rank": CHECKS,
    "linalg.nf_kernel_basis": CHECKS,
    "upoly.gcd": CHECKS,
    "upoly.squarefree_part": CHECKS,
    "upoly.mul": CHECKS,
    "parsing.parse_poly": ALL,
    # `cgv eval` parses and prints; it never builds the cubic family
    "geometry.build_cubics": CHECKS,
    "geometry.eval_at_point": CHECKS,
    "baselocus.classify_stratum": CHECKS,
    "baselocus.quadric_independence": CHECKS,
    "baselocus.single_hyperplane_det_analysis": CHECKS,
    # the tangent suite runs only in the report set: strata and expand bypass it
    "tangent.rank_survey": REPORT_SET,
    "tangent.chart_gradient": REPORT_SET,
    "tangent.pairwise_independence": REPORT_SET,
    "tangent.display_agreement": REPORT_SET,
    "genus.z4_witness_search": CHECKS,
    "genus.distinct_points": CHECKS,
    "genus.multiplicity_pattern": CHECKS,
    "genus.cubic_one_root_probe": CHECKS,
    "reportlib.render_text": REPORT_SET,     # strata asks for JSON reports
    "reportlib.render_json": CHECKS,
    "suites.sigma_suite": CHECKS,
    "suites.cubics_suite": CHECKS,
    "suites.base_locus_suite": CHECKS,
    "suites.quadric_independence_suite": CHECKS,
    "suites.tangent_suite": REPORT_SET,
    "suites.divisors_suite": CHECKS,
    "suites.genus_suite": CHECKS,
    "suites.pencil_suite": CHECKS,
    "suites.run_suite": CHECKS,
    "cli.main": ALL,
}


def coverage_errors(workload, calls):
    """Spans whose recorded calls break the prediction for the workload."""
    errors = []
    for span, n in calls.items():
        used = workload in USED_ON[span]
        if used and n == 0:
            errors.append(f"{span}: predicted used on {workload}, recorded 0 calls")
        elif not used and n:
            errors.append(f"{span}: predicted bypassed on {workload}, recorded {n} calls")
    return errors
