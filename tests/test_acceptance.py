"""The acceptance gate: one test per criterion, each printing a verdict line.

Criterion 5 is oracle-equivalence: the determinant values asserted here are
the ones frozen from the pre-build oracle (exact remainder arithmetic plus a
numeric cross-check), not the printed ones; the report's agreement flag
against the printed value is asserted to be exactly what the oracle forces.
"""

import random
from fractions import Fraction

from cgv.baselocus import (REFERENCE, Stratum, quadric_independence,
                           single_hyperplane_det_analysis,
                           single_hyperplane_system, stratum_double_hyperplane,
                           stratum_triple_hyperplane)
from cgv.geometry import (COFACTOR_COORDS, LINE_R, LINE_R_PRIME,
                          REFERENCE_POINTS, SIGMA, SIGMA2, apply_map,
                          fixed_line_check)
from cgv.linalg import circulant_det_formula, circulant_matrix, matrix_det
from cgv.divisors import DEFAULT_LATTICE
from cgv.genus import (AccountingScenario, ci_genus, pencil_factorization, pencil_on_line,
                       quintuple_family_coeffs, quintuple_root_condition,
                       quotient_feasibility, rh_relation, witness_pencil_analysis,
                       z4_witness_search)
from cgv.mpoly import MPoly
from cgv.nf import NFElem, nf_invert, nf_reduce
from cgv.parsing import parse_poly
from cgv.reportlib import CONFIRMED, REFUTED, RunConfig, render_text
from cgv.suites import run_suite
from cgv.upoly import UPoly, squarefree_part, upoly_gcd

from conftest import (nf_to_float, random_nfelem, random_nfelem_nonzero, scale_form,
                      swap_xy)

M1 = NFElem(1)


def verdict(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_m_coefficient_vanishes():
    value = nf_reduce([10, -25, 11, 6, 4, -12, 9])
    verdict(1, value.is_zero(),
            "nf_reduce(9r^6-12r^5+4r^4+6r^3+11r^2-25r+10) = 0 exactly")


def test_criterion_02_nonvanishing_certificates():
    g = upoly_gcd(UPoly((Fraction(10), Fraction(4), Fraction(-20))),
                  UPoly((Fraction(-1), Fraction(0), Fraction(1), Fraction(1))))
    obstruction = NFElem(-4, 4, 3)
    inv = nf_invert(obstruction)
    ok = g == UPoly((Fraction(1),)) and obstruction * inv == NFElem(1)
    verdict(2, ok, "gcd(-20x^2+4x+10, x^3+x^2-1) = 1 and (3r^2+4r-4)^-1 exists")


def test_criterion_03_circulant_and_rank(family):
    rng = random.Random(303)
    ok = True
    for _ in range(200):
        a, b, c, d = (random_nfelem(rng, span=6, den=4) for _ in range(4))
        cof = matrix_det(circulant_matrix(a, b, c, d))
        ok = ok and cof == circulant_det_formula(a, b, c, d)
    ind = quadric_independence(family)
    ok = ok and ind.nonzero and ind.det_cofactor == circulant_det_formula(*ind.entries)
    ok = ok and ind.rank == 4
    verdict(3, ok, "circulant formula matches cofactor on 200 random quadruples; "
                   f"nonzero at the displayed entries ({ind.det_cofactor}); 4x10 rank 4")


def test_criterion_04_triple_and_double_strata(family):
    points = set()
    ok = True
    for taken in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        res = stratum_triple_hyperplane(family, Stratum(taken))
        ok = ok and res.kind == REFERENCE and len(res.points) == 1
        points.update(res.points)
    ok = ok and points == set(REFERENCE_POINTS)
    # the displayed identity: Q3(0, 0, Z, 0) vanishes for all Z
    ok = ok and family.quadrics[3].substitute({"T": 0, "X": 0, "Y": 0}).is_zero()
    for taken in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        stratum = Stratum(taken)
        free = [COFACTOR_COORDS[j] for j in stratum.quadrics]
        mono = tuple(1 if v in free else 0 for v in ("X", "Y", "Z", "T"))
        for j in stratum.quadrics:
            restricted = family.quadrics[j].substitute(
                {name: 0 for name in stratum.hyperplane_names})
            ok = ok and restricted.geom_support() == [mono]
            coeff = restricted.coeff_of_geom(mono)
            ok = ok and not coeff.is_zero()
            ok = ok and not coeff.substitute({"m": M1}).as_nfelem().is_zero()
        res = stratum_double_hyperplane(family.at_m(M1), stratum)
        ok = ok and res.kind == REFERENCE and len(res.points) == 2
    verdict(4, ok, "triple strata yield exactly the four reference points; "
                   "double strata restrict to nonzero single-monomial multiples "
                   "(units at m = 1)")


def test_criterion_05_printed_matrix_and_determinant(family):
    mat, _, _, _ = single_hyperplane_system(family, "T")
    printed = (
        (parse_poly("1"), parse_poly("r+1"), parse_poly("m")),
        (parse_poly("r^2*(3*r-2)"), parse_poly("3*r-2"), parse_poly("-6*r^2+2*r+2")),
        (parse_poly("-2*r^2-5*r+5"), parse_poly("r^2*(3*r-2)"), parse_poly("(3*r-2)*m")),
    )
    ok = mat == printed
    analysis = single_hyperplane_det_analysis(mat)
    # frozen oracle values: both the m-coefficient and the m-free part are 0
    ok = ok and analysis.m_coefficient.is_zero() and analysis.m_free_part.is_zero()
    # numeric cross-check at the real root, m in {1, 2}
    for m_val in (1.0, 2.0):
        rows = []
        for row in printed:
            vals = []
            for e in row:
                up = e.m_upoly()
                cs = [nf_to_float(c) for c in up.coeffs] or [0.0]
                vals.append(sum(c * m_val ** k for k, c in enumerate(cs)))
            rows.append(vals)
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        ok = ok and abs(det) < 1e-9
    # the report's agreement flag is set strictly by the oracle: refuted
    checks = {c.check_id: c for c in run_suite("base-locus", RunConfig(m_expr="1"))}
    ok = ok and checks["base-locus/det/T/m-free-part"].agreement == REFUTED
    ok = ok and checks["base-locus/det/T/m-coefficient"].agreement == CONFIRMED
    ok = ok and checks["base-locus/system/T/matrix"].agreement == CONFIRMED
    verdict(5, ok, "h=T matrix equals the printed one entry-for-entry; det is 0 "
                   "identically (oracle), so the printed -20r^2+4r+10 is refuted")


def test_criterion_06_symmetry(family):
    ok = SIGMA.order() == 4
    ok = ok and fixed_line_check(SIGMA2, LINE_R)[0]
    ok = ok and fixed_line_check(SIGMA2, LINE_R_PRIME)[0]
    perm = family.sigma_index_map
    ok = ok and sorted(perm) == [0, 1, 2, 3]
    ok = ok and all(apply_map(family.cubics[i], SIGMA) == family.cubics[j]
                    for i, j in enumerate(perm))
    verdict(6, ok, "sigma has order 4, sigma^2 fixes both lines pointwise, "
                   f"and composition permutes the cubics ({perm})")


def test_criterion_07_divisor_calculus():
    lat = DEFAULT_LATTICE
    k = lat.canonical()
    ok = all(lat.exceptional_multiplicity(n) == -n for n in (1, 2, 3, 5))
    ok = ok and lat.pair(k, k) == 1
    ok = ok and all(lat.pair(n * k, n * k) == n * n for n in (1, 2, 3, 5))
    ok = ok and lat.adjunction_genus(lat.exceptional(0)) == 1
    verdict(7, ok, "n_i = -n for n in {1,2,3,5}; K^2 = 1; (nK)^2 = n^2; genus(E_i) = 1")


def test_criterion_08_genus_formulas():
    ok = ci_genus(5, 5) == 76 and rh_relation(3, 1) == 4
    verdict(8, ok, "ci_genus(5,5) = 76 and rh_relation(3,1) = 4")


def test_criterion_09_feasibility_branches():
    b4 = quotient_feasibility(AccountingScenario(p_a=76, fibers=4, ram_deg=4))
    ok = b4.status == "infeasible" and "divisibility by 4" in b4.violated and b4.delta_total == 75
    b2 = quotient_feasibility(AccountingScenario(p_a=76, fibers=4, ram_deg=2))
    ok = ok and b2.status == "arithmetically-feasible-unresolved" and b2.s_q == 19
    checks = {c.check_id: c for c in run_suite("genus", RunConfig())}
    ok = ok and checks["genus/feasibility/ram-deg-4"].agreement == CONFIRMED
    ok = ok and checks["genus/feasibility/ram-deg-2"].agreement != CONFIRMED
    verdict(9, ok, "R=4 infeasible by the 4-divides-75 obstruction; R=2 reported "
                   "unresolved-by-the-source, never confirmed")


def test_criterion_10_witness_pencil(family):
    first, second, _, _ = pencil_factorization(family)
    pencil = pencil_on_line(family.at_m(M1))
    found = z4_witness_search(pencil, 5)
    ok = first and second and found is not None
    if found:
        lam, mu, count = found
        ok = ok and count >= 4
        ok = ok and witness_pencil_analysis(pencil, lam, mu) == count
    verdict(10, ok, "the XY(lambda X Qbar0 - mu Y Qbar1) identity holds symbolically; "
                    f"bound-5 scan finds {found} with >= 4 distinct points")


def test_criterion_11_quintuple_condition():
    ok = quintuple_root_condition(quintuple_family_coeffs())
    verdict(11, ok, "a2^2 a3^2 = 400 a0 a1 a4 a5 holds identically on (X - aY)^5")


def test_criterion_12_property_suites(family):
    rng = random.Random(1212)
    ok = True
    # 1000-case field axioms
    for _ in range(1000):
        a, b, c = (random_nfelem(rng, span=10, den=5) for _ in range(3))
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * (b + c) == a * b + a * c
        if not a.is_zero():
            ok = ok and a * nf_invert(a) == NFElem(1)
    # substitution homomorphism and Leibniz
    assignment = {"X": MPoly.var("Y") + 1, "m": MPoly.var("Z")}
    for _ in range(50):
        terms = {tuple(rng.randint(0, 2) for _ in range(5)): random_nfelem(rng, 6, 3)
                 for _ in range(3)}
        f, g = MPoly(terms), MPoly({(1, 0, 0, 0, 0): random_nfelem(rng, 6, 3),
                                    (0, 0, 0, 0, 2): random_nfelem(rng, 6, 3)})
        ok = ok and (f + g).substitute(assignment) == f.substitute(assignment) + g.substitute(assignment)
        ok = ok and (f * g).substitute(assignment) == f.substitute(assignment) * g.substitute(assignment)
        ok = ok and (f * g).partial("X") == f * g.partial("X") + g * f.partial("X")
    # squarefree / gcd contracts
    for _ in range(50):
        f = UPoly(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 6))))
        g = UPoly(tuple(Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 6))))
        if f.is_zero() and g.is_zero():
            continue
        h = upoly_gcd(f, g)
        for p in (f, g):
            ok = ok and (p.is_zero() or (p % h).is_zero())
        if not f.is_zero():
            s = squarefree_part(f)
            ok = ok and (s.degree() < 1 or upoly_gcd(s, s.derivative()).degree() == 0)
    # parser round-trip
    for _ in range(100):
        terms = {tuple(rng.randint(0, 3) for _ in range(5)): random_nfelem(rng, 9, 4)
                 for _ in range(rng.randint(0, 5))}
        p = MPoly(terms)
        ok = ok and parse_poly(str(p)) == p
    # deterministic reports
    cfg = RunConfig(m_expr="1", survey=10)
    ok = ok and (render_text("all", cfg, run_suite("all", cfg))
                 == render_text("all", cfg, run_suite("all", cfg)))
    # distinct_points scaling and swap invariance
    from cgv.genus import BinaryForm, distinct_points
    for text in ("X^5", "X*Y*(X^3+Y^3)", "(X-Y)^2*(X+Y)^3"):
        bf = BinaryForm.from_mpoly(parse_poly(text))
        n = distinct_points(bf)
        c = random_nfelem_nonzero(rng)
        ok = ok and distinct_points(scale_form(bf, c)) == n
        ok = ok and distinct_points(swap_xy(bf)) == n
    verdict(12, ok, "field axioms (1000 cases), substitution/Leibniz, gcd/squarefree "
                    "contracts, parser round-trip, byte-identical reports, "
                    "distinct-point invariances")
