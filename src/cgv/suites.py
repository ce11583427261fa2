"""Named check suites over the verification modules.

This is the one layer that turns layer values into CheckReport values,
and the one that compares them with the printed source (`claims`).
Each suite takes (family, config, checks) and appends to the run's list in
a fixed order, so repeated runs are byte-identical.  A suite that raises
keeps the checks it already appended; `run_suite` adds one error report
after them, counted in the summary's error field.  Refuting a published
claim is a successful run, not an error.
"""

from __future__ import annotations

from . import baselocus, divisors, genus, tangent
from .baselocus import (EMPTY, INCONCLUSIVE, NON_REFERENCE, REFERENCE,
                        ALL_STRATA, SLICES, classify_stratum, points_str,
                        quadric_independence, single_hyperplane_det_analysis,
                        single_hyperplane_system)
from .claims import (CLAIMED_TANGENT_ROWS, DISPLAY_UNIT, PRINTED_CIRCULANT_ENTRIES,
                     PRINTED_SYSTEM_MATRIX, claim, parse_display)
from .geometry import (COFACTOR_COORDS, LINE_R, LINE_R_PRIME, REFERENCE_POINTS,
                       SIGMA, SIGMA2, build_cubics, eval_at_point,
                       fixed_line_check, point_name)
from .mpoly import GEOM_VARS
from .nf import R_MINIMAL_POLY, NFElem, nf_str
from .upoly import UPoly, upoly_gcd
from .reportlib import RunConfig, error_check, make_check

M_DEFAULT_NOTE = "m defaulted to 1 for this scalar check; override with --m"


def _m_note(config: RunConfig):
    return (M_DEFAULT_NOTE,) if config.m_value is None else ()


# -- sigma -----------------------------------------------------------------------


def sigma_suite(family, config: RunConfig, checks):
    checks.append(make_check(
        "sigma/order",
        str(SIGMA.order()),
        claim("sigma-order"),
        notes=("the rotation X,Y,Z,T -> T,X,Y,Z composed with itself returns to the identity after 4 steps",),
    ))
    checks.append(make_check(
        "sigma/square-is-involution",
        str(SIGMA2.order()),
        claim("sigma2-involution"),
    ))
    for line, name in ((LINE_R, "r"), (LINE_R_PRIME, "r-prime")):
        fixed, failing = fixed_line_check(SIGMA2, line)
        checks.append(make_check(
            f"sigma/square-fixes-{name}",
            "fixed pointwise" if fixed else "not fixed pointwise",
            claim(f"fixed-line-{name}"),
            notes=("all cross products of the parametrized line and its image vanish identically",)
            if fixed else (f"nonvanishing cross products at coordinate pairs {failing}",),
        ))
    fixed, failing = fixed_line_check(SIGMA, LINE_R)
    checks.append(make_check(
        "sigma/itself-moves-r",
        "fixed pointwise" if fixed else "not fixed pointwise",
        claim("fixed-line-r"),
        notes=("the order-4 rotation itself does not fix the line; only its square does",),
    ))
    perm = ", ".join(f"C{i}->C{j}" for i, j in enumerate(family.sigma_index_map))
    checks.append(make_check(
        "sigma/permutes-cubics",
        perm,
        notes=("composition with the rotation is a 4-cycle on the family",),
    ))


# -- cubics ------------------------------------------------------------------------


def cubics_suite(family, config: RunConfig, checks):
    for i in range(4):
        coord = COFACTOR_COORDS[i]
        quotient, exact = family.cubics[i].div_by_var(coord)
        ok = exact and quotient == family.quadrics[i]
        checks.append(make_check(
            f"cubics/factorization/C{i}",
            "exact factorization" if ok else "factorization fails",
            claim(f"cubic-display-c{i}"),
            notes=(f"C{i} = {coord} * Q{i} with both sides expanded over Q(r)[m]",),
        ))
    all_vanish = all(
        eval_at_point(c, pt).is_zero()
        for c in family.cubics for pt in REFERENCE_POINTS
    )
    checks.append(make_check(
        "cubics/reference-point-vanishing",
        "all four cubics vanish at all four reference points" if all_vanish else "vanishing fails",
        claim("reference-base-points", "all four cubics vanish at all four reference points"),
    ))
    q2_restricted = family.quadrics[2].substitute({"T": 0, "X": 0})
    checks.append(make_check(
        "cubics/Q2-restriction-T0-X0",
        str(q2_restricted),
        claim("stratum-double-monomial"),
        notes=("the restriction is a unit multiple of Y*Z",),
    ))
    counts = ", ".join(str(len(c.terms)) for c in family.cubics)
    checks.append(make_check(
        "cubics/term-counts",
        counts,
        notes=("term counts of the expanded cubics, for cross-checking against an independent expansion",),
    ))


# -- base locus ----------------------------------------------------------------------


# the claim of a stratum: the three strata the source names, else the one
# for its number of hyperplanes
_STRATUM_CLAIMS = {
    "T.X.Y|Q3": "stratum-triple-TXY",
    "T.X|Q2.Q3": "stratum-double-TX",
    "T|Q1.Q2.Q3": "single-stratum-T-points",
    4: "stratum-quadruple-empty",
    3: "stratum-triple-others",
    2: "stratum-double-others",
    1: "single-stratum-other-points",
    0: "reference-base-points",
}


def _stratum_claim(stratum):
    key = _STRATUM_CLAIMS.get(stratum.label) or _STRATUM_CLAIMS[len(stratum.taken)]
    printed = claim(key)
    # a claim the source makes of several strata is filled with this one's points
    return printed if printed.value is not None else claim(key, stratum.points_str)


def _stratum_computed(res) -> str:
    if res.kind == REFERENCE:
        return res.stratum.points_str
    if res.kind == NON_REFERENCE:
        return "non-reference points: " + points_str(res.points)
    return "empty" if res.kind == EMPTY else "inconclusive"


# 1/(3r - 2), which the printed systems divide their first row by
_INV_DISPLAY_UNIT = parse_display(DISPLAY_UNIT).as_nfelem().inverse()


def _printed_system(family, h):
    """The h = 0 system as the source prints it, over Q(r)[m]."""
    mat = single_hyperplane_system(family.mixed_matrix, h)
    return (tuple(e * _INV_DISPLAY_UNIT for e in mat[0]),) + mat[1:]


def _matrix_str(mat) -> str:
    return "[" + "; ".join(", ".join(str(e) for e in row) for row in mat) + "]"


def base_locus_suite(family, config: RunConfig, checks):
    family_m = family.at_m(config.m_value)
    results = []
    for stratum in ALL_STRATA:
        try:
            res = classify_stratum(family_m, stratum)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            checks.append(error_check(f"base-locus/stratum/{stratum.label}", exc))
            results.append(baselocus.StratumResult(stratum, INCONCLUSIVE, (), ()))
            continue
        results.append(res)
        checks.append(make_check(
            f"base-locus/stratum/{stratum.label}",
            _stratum_computed(res),
            _stratum_claim(stratum),
            notes=res.notes,
            ambiguous=res.kind == INCONCLUSIVE,
        ))

    # the single-hyperplane systems as printed and their determinants, h = T first
    printed = tuple(tuple(parse_display(t) for t in row) for row in PRINTED_SYSTEM_MATRIX)
    t_mat = t_analysis = None   # reused for an X, Y or Z matrix equal to T's
    try:
        mat = _printed_system(family, "T")
        mat_str = _matrix_str(mat)
        checks.append(make_check(
            "base-locus/system/T/matrix",
            mat_str,
            claim("single-system-matrix", mat_str if mat == printed else _matrix_str(printed)),
            notes=("rows are the restrictions of Q1, Q2, Q3 to T = 0 over the basis (XY, YZ, ZX); "
                   "the first row is normalized by the display unit 3r-2",),
        ))
        t_mat, t_analysis = mat, single_hyperplane_det_analysis(mat)
        checks.append(make_check(
            "base-locus/det/T/m-coefficient",
            nf_str(t_analysis.m_coefficient),
            claim("det-m-coefficient"),
        ))
        checks.append(make_check(
            "base-locus/det/T/m-free-part",
            nf_str(t_analysis.m_free_part),
            claim("det-m-free-part"),
            notes=("the determinant of the printed matrix reduces to 0 identically in m over Q(r); "
                   "the printed nonzero value arises from arithmetic slips in the printed expansion",
                   "the stratum conclusion is recovered by the kernel lift instead",),
        ))
        printed_value = parse_display(claim("det-m-free-part").value).as_nfelem()
        g = upoly_gcd(UPoly(printed_value.integers()[:3]), UPoly(R_MINIMAL_POLY))
        checks.append(make_check(
            "base-locus/det/T/printed-value-coprime",
            g.to_str(),
            claim("det-claim-coprime"),
            notes=("the printed value -20r^2+4r+10 is indeed a unit of Q(r); "
                   "the slip is upstream, in the determinant itself",),
        ))
    except Exception as exc:  # noqa: BLE001 - the checks already made stay
        checks.append(error_check("base-locus/system/T", exc))
    for h in ("X", "Y", "Z"):
        try:
            mat = _printed_system(family, h)
            checks.append(make_check(
                f"base-locus/system/{h}/matrix",
                "entry-for-entry equal to the printed h=T matrix under the rotation transport"
                if mat == printed else "differs from the transported h=T matrix",
                notes=("rows " + ", ".join(f"Q{j}" for j in SLICES[h][1]) + f" restricted to {h} = 0",),
            ))
            analysis = t_analysis if mat == t_mat else single_hyperplane_det_analysis(mat)
            checks.append(make_check(
                f"base-locus/det/{h}/value",
                str(analysis.det),
                notes=("determinant over Q(r)[m] of the transported system",),
            ))
        except Exception as exc:  # noqa: BLE001 - the checks already made stay
            checks.append(error_check(f"base-locus/system/{h}", exc))

    try:
        ind = family.cached("quadric independence", quadric_independence)
        checks.append(make_check(
            "base-locus/quadric-independence/circulant-nonzero",
            "zero" if ind.det_cofactor.is_zero() else "nonzero",
            claim("circulant-nonsingular"),
            notes=(f"circulant determinant = {nf_str(ind.det_cofactor)}",
                   "cofactor expansion agrees with the eigenvalue-product formula "
                   "(a+b+c+d)(a-b+c-d)((a-c)^2+(b-d)^2)",
                   f"entries a = {nf_str(ind.entries[0])}, b = {nf_str(ind.entries[1])}, "
                   f"c = {nf_str(ind.entries[2])}, d = {nf_str(ind.entries[3])}"),
        ))
        checks.append(make_check(
            "base-locus/quadric-independence/rank",
            str(ind.rank),
            claim("quadrics-independent"),
            notes=(f"4x10 coefficient matrix over the quadric monomial basis; "
                   f"certifying minor at columns {ind.rank_witness}",),
        ))
    except Exception as exc:  # noqa: BLE001
        checks.append(error_check("base-locus/quadric-independence", exc))

    kind, points = baselocus.aggregate(results)
    checks.append(make_check(
        "base-locus/aggregate",
        points_str(points) if kind == REFERENCE
        else "non-reference points found: " + points_str(points) if kind == NON_REFERENCE
        else "indeterminate",
        claim("reference-base-points"),
        notes=("the aggregate is confirmed only when every stratum is conclusive",)
        + (("single-hyperplane and torus strata need --m; they are inconclusive here",)
           if config.m_value is None else ()),
        ambiguous=kind == INCONCLUSIVE,
    ))
    checks.append(make_check(
        "base-locus/codimension-2-step",
        "cited assumption (not recomputed)",
        notes=('the passage from base points of the cubic system to base-point freeness of the '
               'tricanonical system uses: "' + claim("codim-2-step").quote + '"',),
    ))


def quadric_independence_suite(family, config: RunConfig, checks):
    ind = family.cached("quadric independence", quadric_independence)
    entries_claim = claim("circulant-entries")
    same = ind.entries == tuple(parse_display(t).as_nfelem() for t in PRINTED_CIRCULANT_ENTRIES)
    checks.append(make_check(
        "quadric-independence/entries",
        entries_claim.value if same
        else ", ".join(f"{n}={nf_str(e)}" for n, e in zip("abcd", ind.entries)),
        entries_claim,
        notes=("the XY coefficients of Q0..Q3 "
               f"{'are exactly' if same else 'differ from'} the displayed entries",),
    ))
    checks.append(make_check(
        "quadric-independence/circulant-determinant",
        nf_str(ind.det_cofactor),
        notes=("computed twice: cofactor expansion and the eigenvalue-product formula; both agree",),
    ))
    checks.append(make_check(
        "quadric-independence/circulant-nonzero",
        "zero" if ind.det_cofactor.is_zero() else "nonzero",
        claim("circulant-nonsingular"),
    ))
    checks.append(make_check(
        "quadric-independence/rank",
        str(ind.rank),
        claim("quadrics-independent"),
        notes=("rank over Q(r)(m): the certifying 4x4 minor is a nonzero polynomial in m",),
    ))


# -- tangent ---------------------------------------------------------------------------


def tangent_suite(family, config: RunConfig, checks):
    grad_rows = tuple(tangent.chart_gradient(family, i) for i in range(3))
    for i, texts in CLAIMED_TANGENT_ROWS.items():
        diffs = tangent.display_agreement(grad_rows[i], tuple(map(parse_display, texts)))
        notes = [f"component {k} differs from the printed display by {d}" for k, d in enumerate(diffs) if d]
        checks.append(make_check(
            f"tangent/display/C{i}",
            f"{len(diffs) - len(notes)}/3 components match",
            claim(f"tangent-display-c{i}"),
            notes=tuple(notes) or ("all gradient components equal the printed display",),
        ))
    replay = tangent.lambda_replay(grad_rows)
    checks.append(make_check(
        "tangent/lambda-obstruction",
        "nonzero" if not replay.obstruction.is_zero() else "zero",
        claim("lambda-obstruction"),
        notes=(f"obstruction element {nf_str(replay.obstruction)} with inverse "
               f"{nf_str(replay.obstruction_inverse)}",) + replay.steps,
    ))
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        independent = tangent.pairwise_independence(grad_rows, i, j)
        checks.append(make_check(
            f"tangent/pairwise-independence/{i}-{j}",
            "independent" if independent else "dependent",
            claim("tangent-pairwise"),
            notes=("some 2x2 minor of the stacked symbolic rows is a nonzero polynomial in (x, y, z, m)",)
            if independent else ("all 2x2 minors vanish identically",),
        ))
    all_zero = all(eval_at_point(family.cubics[i].partial(v), REFERENCE_POINTS[3]).is_zero()
                   for i in (1, 2, 3) for v in GEOM_VARS)
    checks.append(make_check(
        "tangent/reference-point",
        "gradient rows of C1, C2, C3 at [0:0:0:1] are zero rows" if all_zero
        else "unexpected nonzero gradient row",
        claim("tangent-reference-point"),
        ambiguous=True,
        notes=("C1, C2, C3 are singular at the point (both cofactors vanish), so their tangent spaces "
               "are the whole space; the printed equations X = Y = Z = 0 match the tangent planes of "
               "the coordinate-factor components, whose common zero is the chart origin",),
    ))
    survey = tangent.rank_survey(family.at_m(config.m_or_default()), config.survey, config.seed)
    effective = sum(c for _, c in survey.histogram)
    hist_s = ", ".join(f"rank {r}: {c}" for r, c in survey.histogram) or "(no usable samples)"
    all_rank3 = survey.histogram == ((3, effective),) and effective > 0
    checks.append(make_check(
        "tangent/rank-survey",
        "rank 3 at every sampled point" if all_rank3 else hist_s,
        claim("tangent-rank-generic"),
        notes=(f"histogram over {effective} points ({survey.skipped} skipped): {hist_s}",
               f"seed {config.seed}, coordinates in [-{tangent.SAMPLE_BOUND}, {tangent.SAMPLE_BOUND}] without 0")
        + _m_note(config),
    ))


# -- divisors ----------------------------------------------------------------------------


def divisors_suite(family, config: RunConfig, checks):
    e0 = divisors.exceptional(0)
    checks.append(make_check(
        "divisors/exceptional-selfintersection",
        str(divisors.pair(e0, e0)),
        claim("exceptional-selfintersection"),
    ))
    multiplicity = {n: divisors.exceptional_multiplicity(n) for n in (1, 2, 3, 5)}
    for n, n_i in multiplicity.items():
        checks.append(make_check(
            f"divisors/exceptional-multiplicity/n={n}",
            str(n_i),
            claim(f"exceptional-multiplicity-{n}"),
        ))
    k = divisors.CANONICAL
    checks.append(make_check(
        "divisors/K-squared",
        str(divisors.pair(k, k)),
        claim("godeaux-k-squared"),
        notes=("K = H - E1 - E2 - E3 - E4 gives K.K = 5 - 4 = 1",),
    ))
    squares = []
    for n, n_i in multiplicity.items():
        nk = n * k
        rebuilt = n * divisors.HYPERPLANE + n_i * divisors.SUM_EXCEPTIONAL
        if nk != rebuilt:
            checks.append(error_check(f"divisors/nK-decomposition/n={n}", ArithmeticError(
                "mismatch between n*K and the pullback-plus-exceptional decomposition")))
        squares.append(str(divisors.pair(nk, nk)))
    checks.append(make_check(
        "divisors/nK-squared",
        ", ".join(squares),
        notes=("(nK)^2 for n = 1, 2, 3, 5; equals n^2 since K^2 = 1",),
    ))
    checks.append(make_check(
        "divisors/adjunction-genus/exceptional",
        str(divisors.adjunction_genus(e0)),
        claim("elliptic-exceptional-genus"),
        notes=("genus (E^2 + K.E)/2 + 1 = (-1 + 1)/2 + 1 = 1: the exceptional curves are elliptic",),
    ))
    checks.append(make_check(
        "divisors/adjunction-genus/canonical",
        str(divisors.adjunction_genus(k)),
        notes=("(K^2 + K^2)/2 + 1 = 2",),
    ))
    checks.append(make_check(
        "divisors/sign-convention",
        str(multiplicity[1]),
        claim("divisor-sign-convention"),
        ambiguous=True,
        notes=('the printed intermediate line "-1-n_i=0 ... n_i=1" contradicts the displayed '
               "K_V = pull-back minus the exceptional sum; the displayed formulas are self-consistent "
               "under adjunction and are adopted",),
    ))


# -- genus --------------------------------------------------------------------------------


def genus_suite(family, config: RunConfig, checks):
    p_a = genus.ci_genus(5, 5)
    checks.append(make_check(
        "genus/arithmetic-genus",
        str(p_a),
        claim("arithmetic-genus-76"),
    ))
    checks.append(make_check(
        "genus/rh/genus3-over-genus1",
        str(genus.rh_relation(3, 1)),
        notes=("degree of the ramification divisor of a genus-3 double cover of a genus-1 curve",
               'the covering pencil comes from: "' + claim("rh-formula").quote + '"'),
    ))
    branch = genus.quotient_feasibility(p_a, fibers=4, ram_deg=4)
    checks.append(make_check(
        "genus/feasibility/ram-deg-4",
        branch.status,
        claim("feasibility-R4"),
        notes=(f"delta budget {branch.delta_total} is not divisible by 4 "
               f"(violated: {', '.join(branch.violated)})",
               f"doubled budget {2 * branch.delta_total} echoes the printed "
               + claim("feasibility-anchor-150").value,
               "orbit model: " + claim("orbit-structure").quote),
    ))
    branch = genus.quotient_feasibility(p_a, fibers=4, ram_deg=2)
    checks.append(make_check(
        "genus/feasibility/ram-deg-2",
        branch.status,
        notes=(f"a rational quotient needs the downstairs total s_Q = {branch.s_q}, "
               "matching the printed anchor " + claim("feasibility-anchor-19").quote,
               'the source leaves this branch open: "' + claim("feasibility-R2-open").quote + '"',
               "never reported as confirmed: the arithmetic admits it and the exclusion is unproven here"),
    ))
    checks.append(make_check(
        "genus/delta-relation",
        "delta_P = 2 * delta_Q (input assumption)",
        notes=('taken as an input to the accounting, per: "' + claim("delta-relation").quote + '"',),
    ))


# -- pencil ---------------------------------------------------------------------------------


def pencil_suite(family, config: RunConfig, checks):
    pencil = genus.pencil_on_line(family.at_m(config.m_or_default()))
    first, second, qbar0, qbar1 = genus.pencil_factorization(family)
    checks.append(make_check(
        "pencil/factorization",
        "holds" if (first and second) else "fails",
        claim("pencil-factorization"),
        notes=("(XZ C0) restricts to X^2 Y Qbar0 and (YT C1) restricts to -X Y^2 Qbar1, "
               "exactly and symbolically in m; both sides are linear in (lambda, mu)",
               f"Qbar0 = {qbar0}",
               f"Qbar1 = {qbar1}"),
    ))
    checks.append(make_check(
        "pencil/xy-factor-points",
        ", ".join(point_name(p) for p in genus.xy_factor_points()),
        claim("pencil-xy-points"),
    ))
    count = genus.distinct_points(genus.pencil_member(pencil, 1, 0))
    checks.append(make_check(
        "pencil/count/lambda=1,mu=0",
        str(count),
        notes=("distinct points of the restriction of XZ C0 to the fixed line",) + _m_note(config),
    ))
    witness = genus.z4_witness_search(pencil, config.bound)
    if witness is None:
        found, notes = "not-found", (f"no member with >= 4 distinct points up to bound {config.bound}",)
    else:
        lam, mu, count = witness
        found, notes = "non-empty", (f"witness (lambda:mu) = ({lam}:{mu}) with {count} distinct points",)
        if count not in (4, 2):
            notes += (f"a count of {count} falls outside the printed dichotomy of 4 or 2",)
    checks.append(make_check(
        "pencil/witness-search",
        found,
        claim("z4-nonempty"),
        notes=notes + _m_note(config),
    ))
    fam5 = genus.quintuple_family_coeffs()
    holds5 = genus.quintuple_root_condition(fam5)
    x4y = (NFElem(0), NFElem(1), NFElem(0), NFElem(0), NFElem(0), NFElem(0))
    checks.append(make_check(
        "pencil/quintuple-root-condition",
        "holds identically" if holds5 else "fails",
        claim("quintuple-condition"),
        notes=("verified on the full symbolic family (X - aY)^5",
               "degenerate insensitivity: the form X^4 Y also satisfies the relation (both sides 0) "
               f"-> {genus.quintuple_root_condition(x4y)}",
               "the relation is homogeneous of degree 4 in the coefficients: " + claim("quintuple-quartic").quote),
    ))
    a = genus.three_two_family_coeffs()
    # the printed relation 3a5^2 + 2a0^2 + a1a5 = 0, and the sign-corrected one
    printed = 3 * a[5] * a[5] + 2 * a[0] * a[0] + a[1] * a[5]
    corrected = 3 * a[5] * a[5] + 2 * a[0] * a[0] - a[1] * a[5]
    checks.append(make_check(
        "pencil/three-two-condition",
        "holds identically" if printed.is_zero() else
        f"fails identically on the (3,2) family (residual {printed.to_str('a')})",
        claim("three-two-condition"),
        notes=("the product of roots carries a sign the printed derivation drops: "
               "with 3a5^2+2a0^2 = +a1a5 the residual is "
               f"{corrected.to_str('a')}",
               "family: (X - aY)^3 (aX - Y)^2, the (3,2) pattern {a, 1/a} cleared of denominators",),
    ))
    for lam, mu in ((1, 0), (1, 1)):
        probe = genus.cubic_one_root_probe(pencil, lam, mu)
        checks.append(make_check(
            f"pencil/cubic-probe/lambda={lam},mu={mu}",
            f"condition {'zero' if probe.condition_value.is_zero() else 'nonzero'}; "
            f"pattern {probe.pattern}; classifications "
            f"{'agree' if probe.classifications_agree else 'disagree'}",
            claim("cubic-one-root-condition"),
            notes=(f"9da - bc = {nf_str(probe.condition_value)}",) + _m_note(config),
        ))


# -- registry -----------------------------------------------------------------------------


SUITES = (
    ("sigma", sigma_suite),
    ("cubics", cubics_suite),
    ("base-locus", base_locus_suite),
    ("quadric-independence", quadric_independence_suite),
    ("tangent", tangent_suite),
    ("divisors", divisors_suite),
    ("genus", genus_suite),
    ("pencil", pencil_suite),
)

SUITE_NAMES = tuple(name for name, _ in SUITES) + ("all",)


def run_suite(name: str, config: RunConfig):
    """Execute a named suite; returns the ordered check list."""
    if name not in SUITE_NAMES:
        raise KeyError(name)
    family = build_cubics()
    checks = []
    for suite_name, fn in SUITES:
        if name not in ("all", suite_name):
            continue
        try:
            fn(family, config, checks)
        except Exception as exc:  # noqa: BLE001 - reported after the checks the suite made
            checks.append(error_check(f"{suite_name}/suite", exc))
    return checks
