"""Named check suites over the verification modules.

Each suite maps (family, config) to an ordered list of CheckReport values;
ordering is fixed so repeated runs are byte-identical.  A check that raises
is converted into an error report and counted in the summary's error field;
refuting a published claim is a successful run, not an error.
"""

from __future__ import annotations

from . import baselocus, divisors, genus, tangent
from .baselocus import (EMPTY, INCONCLUSIVE, NON_REFERENCE, REFERENCE,
                        all_strata, classify_stratum, points_str,
                        quadric_independence, single_hyperplane_det_analysis,
                        single_hyperplane_system)
from .claims import (PRINTED_CIRCULANT_ENTRIES, PRINTED_SYSTEM_MATRIX, claim,
                     parse_display)
from .geometry import (COFACTOR_COORDS, LINE_R, LINE_R_PRIME, REFERENCE_POINTS,
                       SIGMA, SIGMA2, build_cubics, eval_at_point,
                       fixed_line_check, point_name)
from .nf import NFElem, nf_str
from .upoly import UPoly, upoly_gcd
from .parsing import parse_poly
from .reportlib import RunConfig, error_check, make_check

M_DEFAULT_NOTE = "m defaulted to 1 for this scalar check; override with --m"


def _m_note(config: RunConfig):
    return (M_DEFAULT_NOTE,) if config.m_defaulted() else ()


# -- sigma -----------------------------------------------------------------------


def sigma_suite(family, config: RunConfig):
    checks = []
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
    for line, key in ((LINE_R, "fixed-line-r"), (LINE_R_PRIME, "fixed-line-r-prime")):
        fixed, failing = fixed_line_check(SIGMA2, line)
        checks.append(make_check(
            f"sigma/square-fixes-{'r' if line is LINE_R else 'r-prime'}",
            "fixed pointwise" if fixed else "not fixed pointwise",
            claim(key),
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
    return checks


# -- cubics ------------------------------------------------------------------------


def cubics_suite(family, config: RunConfig):
    checks = []
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
    return checks


# -- base locus ----------------------------------------------------------------------


def _stratum_claim(stratum):
    label = stratum.label()
    points = points_str(stratum.reference_points())
    if len(stratum.taken) == 4:
        return claim("stratum-quadruple-empty")
    if len(stratum.taken) == 3:
        if label == "T.X.Y|Q3":
            return claim("stratum-triple-TXY")
        return claim("stratum-triple-others", points)
    if len(stratum.taken) == 2:
        if label == "T.X|Q2.Q3":
            return claim("stratum-double-TX")
        return claim("stratum-double-others", points)
    if len(stratum.taken) == 1:
        if label == "T|Q1.Q2.Q3":
            return claim("single-stratum-T-points")
        return claim("single-stratum-other-points", points)
    return claim("reference-base-points")


def base_locus_suite(family, config: RunConfig):
    checks = []
    family_m = family.at_m(config.m_value)
    results = []
    for stratum in all_strata():
        label = stratum.label()
        try:
            res = classify_stratum(family_m, stratum)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            checks.append(error_check(f"base-locus/stratum/{label}", exc))
            results.append(baselocus.StratumResult(stratum, INCONCLUSIVE, (), (), ()))
            continue
        results.append(res)
        if res.kind == EMPTY:
            computed = "empty"
        elif res.kind == REFERENCE:
            computed = points_str(res.points)
        elif res.kind == NON_REFERENCE:
            computed = "non-reference points: " + points_str(res.points)
        else:
            computed = "inconclusive"
        checks.append(make_check(
            f"base-locus/stratum/{label}",
            computed,
            _stratum_claim(stratum),
            notes=res.identities + res.notes,
            ambiguous=res.kind == INCONCLUSIVE,
        ))

    # the single-hyperplane system and its determinant, h = T first
    printed = tuple(tuple(parse_display(t) for t in row) for row in PRINTED_SYSTEM_MATRIX)
    for h in ("T", "X", "Y", "Z"):
        mat, basis, row_quadrics, _ = single_hyperplane_system(family, h)
        if h == "T":
            checks.append(make_check(
                "base-locus/system/T/matrix",
                "[" + "; ".join(", ".join(str(e) for e in row) for row in mat) + "]",
                claim("single-system-matrix"),
                notes=("rows are the restrictions of Q1, Q2, Q3 to T = 0 over the basis (XY, YZ, ZX); "
                       "the first row is normalized by the display unit 3r-2",),
            ))
        else:
            same = mat == printed
            checks.append(make_check(
                f"base-locus/system/{h}/matrix",
                "entry-for-entry equal to the printed h=T matrix under the rotation transport"
                if same else "differs from the transported h=T matrix",
                notes=(f"rows Q{row_quadrics[0]}, Q{row_quadrics[1]}, Q{row_quadrics[2]} restricted to {h} = 0",),
            ))
        analysis = single_hyperplane_det_analysis(mat)
        if h == "T":
            checks.append(make_check(
                "base-locus/det/T/m-coefficient",
                nf_str(analysis.m_coefficient),
                claim("det-m-coefficient"),
            ))
            checks.append(make_check(
                "base-locus/det/T/m-free-part",
                nf_str(analysis.m_free_part),
                claim("det-m-free-part"),
                notes=("the determinant of the printed matrix reduces to 0 identically in m over Q(r); "
                       "the printed nonzero value arises from arithmetic slips in the printed expansion",
                       "the stratum conclusion is recovered by the kernel lift instead",),
            ))
            printed_value = parse_display(claim("det-m-free-part").value).as_nfelem()
            g = upoly_gcd(UPoly(printed_value.coords()), UPoly((-1, 0, 1, 1)))
            checks.append(make_check(
                "base-locus/det/T/printed-value-coprime",
                g.to_str(),
                claim("det-claim-coprime"),
                notes=("the printed value -20r^2+4r+10 is indeed a unit of Q(r); "
                       "the slip is upstream, in the determinant itself",),
            ))
        else:
            checks.append(make_check(
                f"base-locus/det/{h}/value",
                str(analysis.det) if not analysis.det.is_zero() else "0",
                notes=("determinant over Q(r)[m] of the transported system",),
            ))

    try:
        ind = quadric_independence(family)
        checks.append(make_check(
            "base-locus/quadric-independence/circulant-nonzero",
            "nonzero" if ind.nonzero else "zero",
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
    if kind == REFERENCE:
        computed = points_str(points)
    elif kind == NON_REFERENCE:
        computed = "non-reference points found: " + points_str(points)
    else:
        computed = "indeterminate"
    checks.append(make_check(
        "base-locus/aggregate",
        computed,
        claim("reference-base-points"),
        notes=("the aggregate is confirmed only when every stratum is conclusive",)
        + _m_symbolic_note(config),
        ambiguous=kind == INCONCLUSIVE,
    ))
    checks.append(make_check(
        "base-locus/codimension-2-step",
        "cited assumption (not recomputed)",
        notes=('the passage from base points of the cubic system to base-point freeness of the '
               'tricanonical system uses: "' + claim("codim-2-step").quote + '"',),
    ))
    return checks


def _m_symbolic_note(config: RunConfig):
    if config.m_value is None:
        return ("single-hyperplane and torus strata need --m; they are inconclusive here",)
    return ()


def quadric_independence_suite(family, config: RunConfig):
    checks = []
    ind = quadric_independence(family)
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
        "nonzero" if ind.nonzero else "zero",
        claim("circulant-nonsingular"),
    ))
    checks.append(make_check(
        "quadric-independence/rank",
        str(ind.rank),
        claim("quadrics-independent"),
        notes=("rank over Q(r)(m): the certifying 4x4 minor is a nonzero polynomial in m",),
    ))
    return checks


# -- tangent ---------------------------------------------------------------------------


def tangent_suite(family, config: RunConfig):
    checks = []
    keys = {0: "tangent-display-c0", 1: "tangent-display-c1", 2: "tangent-display-c2"}
    grad_rows = tuple(tangent.chart_gradient(family, i) for i in range(3))
    for i in range(3):
        flags, diffs = tangent.display_agreement(grad_rows, i)
        n_match = sum(flags)
        notes = []
        for k, (f, d) in enumerate(zip(flags, diffs)):
            if not f:
                notes.append(f"component {k} differs from the printed display by {d}")
        checks.append(make_check(
            f"tangent/display/C{i}",
            f"{n_match}/3 components match",
            claim(keys[i]),
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
    rows = tangent.reference_point_rows(family)
    all_zero = all(all(c.is_zero() for c in row) for row in rows)
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
               f"seed {survey.seed}, coordinates in [-20, 20] without 0")
        + _m_note(config),
    ))
    return checks


# -- divisors ----------------------------------------------------------------------------


def divisors_suite(family, config: RunConfig):
    checks = []
    lat = divisors.DEFAULT_LATTICE
    e0 = lat.exceptional(0)
    checks.append(make_check(
        "divisors/exceptional-selfintersection",
        str(lat.pair(e0, e0)),
        claim("exceptional-selfintersection"),
    ))
    for n in (1, 2, 3, 5):
        checks.append(make_check(
            f"divisors/exceptional-multiplicity/n={n}",
            str(lat.exceptional_multiplicity(n)),
            claim(f"exceptional-multiplicity-{n}"),
        ))
    k = lat.canonical()
    checks.append(make_check(
        "divisors/K-squared",
        str(lat.pair(k, k)),
        claim("godeaux-k-squared"),
        notes=("K = H - E1 - E2 - E3 - E4 gives K.K = 5 - 4 = 1",),
    ))
    squares = []
    for n in (1, 2, 3, 5):
        nk = n * k
        rebuilt = n * lat.hyperplane() + lat.exceptional_multiplicity(n) * lat.sum_exceptional()
        if nk != rebuilt:
            checks.append(make_check(
                f"divisors/nK-decomposition/n={n}",
                "mismatch between n*K and the pullback-plus-exceptional decomposition",
            ))
        squares.append(str(lat.pair(nk, nk)))
    checks.append(make_check(
        "divisors/nK-squared",
        ", ".join(squares),
        notes=("(nK)^2 for n = 1, 2, 3, 5; equals n^2 since K^2 = 1",),
    ))
    checks.append(make_check(
        "divisors/adjunction-genus/exceptional",
        str(lat.adjunction_genus(e0)),
        claim("elliptic-exceptional-genus"),
        notes=("genus (E^2 + K.E)/2 + 1 = (-1 + 1)/2 + 1 = 1: the exceptional curves are elliptic",),
    ))
    checks.append(make_check(
        "divisors/adjunction-genus/canonical",
        str(lat.adjunction_genus(k)),
        notes=("(K^2 + K^2)/2 + 1 = 2",),
    ))
    checks.append(make_check(
        "divisors/sign-convention",
        str(lat.exceptional_multiplicity(1)),
        claim("divisor-sign-convention"),
        ambiguous=True,
        notes=('the printed intermediate line "-1-n_i=0 ... n_i=1" contradicts the displayed '
               "K_V = pull-back minus the exceptional sum; the displayed formulas are self-consistent "
               "under adjunction and are adopted",),
    ))
    return checks


# -- genus --------------------------------------------------------------------------------


def genus_suite(family, config: RunConfig):
    checks = []
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
    for ram in (4, 2):
        branch = genus.quotient_feasibility(genus.AccountingScenario(p_a=p_a, fibers=4, ram_deg=ram))
        if ram == 4:
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
        else:
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
    return checks


# -- pencil ---------------------------------------------------------------------------------


def pencil_suite(family, config: RunConfig):
    checks = []
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
    count = genus.witness_pencil_analysis(pencil, 1, 0)
    checks.append(make_check(
        "pencil/count/lambda=1,mu=0",
        str(count),
        notes=("distinct points of the restriction of XZ C0 to the fixed line",) + _m_note(config),
    ))
    witness = genus.z4_witness_search(pencil, config.bound)
    if witness is None:
        checks.append(make_check(
            "pencil/witness-search",
            "not-found",
            claim("z4-nonempty"),
            notes=(f"no member with >= 4 distinct points up to bound {config.bound}",) + _m_note(config),
        ))
    else:
        lam, mu, count = witness
        checks.append(make_check(
            "pencil/witness-search",
            "non-empty",
            claim("z4-nonempty"),
            notes=(f"witness (lambda:mu) = ({lam}:{mu}) with {count} distinct points",
                   "a count of 5 falls outside the printed dichotomy of 4 or 2")
            + _m_note(config),
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
    tt = genus.three_two_family_report()
    checks.append(make_check(
        "pencil/three-two-condition",
        "holds identically" if tt.printed_residual.is_zero() else
        f"fails identically on the (3,2) family (residual {tt.printed_residual.to_str('a')})",
        claim("three-two-condition"),
        notes=("the product of roots carries a sign the printed derivation drops: "
               "with 3a5^2+2a0^2 = +a1a5 the residual is "
               f"{tt.corrected_residual.to_str('a')}",
               "family: (X - aY)^3 (aX - Y)^2, the (3,2) pattern {a, 1/a} cleared of denominators",),
    ))
    for lam, mu in ((1, 0), (1, 1)):
        probe = genus.cubic_one_root_probe(pencil, lam, mu)
        checks.append(make_check(
            f"pencil/cubic-probe/lambda={lam},mu={mu}",
            f"condition {'zero' if probe.condition_says_one_root else 'nonzero'}; "
            f"pattern {probe.pattern}; classifications "
            f"{'agree' if probe.classifications_agree else 'disagree'}",
            claim("cubic-one-root-condition"),
            notes=(f"9da - bc = {nf_str(probe.condition_value)}",) + _m_note(config),
        ))
    return checks


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


def eval_expr(text: str) -> str:
    """Parse, reduce, and print canonically (scalars as c0 + c1*r + c2*r^2)."""
    value = parse_poly(text)
    return str(value.as_nfelem()) if value.is_constant() else str(value)


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
            checks.extend(fn(family, config))
        except Exception as exc:  # noqa: BLE001 - a whole-suite crash is an error report
            checks.append(error_check(f"{suite_name}/suite", exc))
    return checks
