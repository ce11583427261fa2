"""Check reports, run configuration, and the deterministic text/JSON emitters.

Reports are a pure function of (suite, config): identical inputs produce
byte-identical output.  The elapsed field is emitted as the exact string "0"
to keep that contract.  Every numeric value in JSON output is an exact
string, never a float.  JSON reports have one fixed shape and are written
directly as text, with strings quoted by the C function that `json.dumps`
itself uses; the bytes equal those of `json.dumps` with `indent=2` on the
same document, which the tests compare.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii

from .nf import NFElem
from .parsing import parse_poly

CONFIRMED = "confirmed"
REFUTED = "refuted"
INDETERMINATE = "indeterminate"


# claim_value and citation are None without a claim; error marks a check that did not complete
CheckReport = namedtuple("CheckReport", "check_id computed claim_value citation agreement notes error")


def make_check(check_id: str, computed: str, claim=None,
               notes=(), ambiguous: bool = False) -> CheckReport:
    """Build a report; the agreement flag follows strictly from the data.

    confirmed only when the computed value equals the claimed value exactly;
    indeterminate whenever there is no claim or the claim is ambiguous.
    """
    if claim is None or claim.value is None or ambiguous:
        agreement = INDETERMINATE
    elif computed == claim.value:
        agreement = CONFIRMED
    else:
        agreement = REFUTED
    return CheckReport(
        check_id=check_id,
        computed=computed,
        claim_value=None if claim is None else claim.value,
        citation=None if claim is None else claim.quote,
        agreement=agreement,
        notes=tuple(notes),
        error=False,
    )


def error_check(check_id: str, exc: BaseException) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        computed=f"internal error: {type(exc).__name__}: {exc}",
        claim_value=None,
        citation=None,
        agreement=INDETERMINATE,
        notes=("the check did not complete; this is a defect in the toolkit, not a verdict",),
        error=True,
    )


class RunConfig:
    """The options of `cgv check`, validated, with m parsed when given."""

    def __init__(self, m_expr: str | None, seed: int, survey: int, bound: int):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        if survey < 1:
            raise ValueError("survey size must be >= 1")
        if bound < 1:
            raise ValueError("witness bound must be >= 1")
        # the text report prints m on its config line
        if m_expr is not None and m_expr.splitlines() not in ([], [m_expr]):
            raise ValueError("m must not contain a line break")
        self.m_expr = m_expr
        self.seed = seed
        self.survey = survey
        self.bound = bound
        self.m_value = None if m_expr is None else parse_poly(m_expr).as_nfelem()

    def m_or_default(self):
        """Scalar m for checks that need one: --m if given, else 1."""
        return self.m_value if self.m_value is not None else NFElem(1)


def summarize(checks):
    counts = {CONFIRMED: 0, REFUTED: 0, INDETERMINATE: 0}
    errors = 0
    for c in checks:
        counts[c.agreement] += 1
        if c.error:
            errors += 1
    return {
        "confirmed": counts[CONFIRMED],
        "refuted": counts[REFUTED],
        "indeterminate": counts[INDETERMINATE],
        "errors": errors,
    }


def render_text(suite: str, config: RunConfig, checks) -> str:
    lines = []
    lines.append(f"suite: {suite}")
    m_show = config.m_expr if config.m_expr is not None else "-"
    lines.append(f"config: m={m_show} seed={config.seed} survey={config.survey} bound={config.bound}")
    lines.append("")
    for c in checks:
        lines.append(f"[{c.agreement:<13}] {c.check_id}")
        lines.append(f"    computed : {c.computed}")
        if c.claim_value is not None:
            lines.append(f"    claim    : {c.claim_value}")
        if c.citation is not None:
            lines.append(f'    citation : "{c.citation}"')
        for n in c.notes:
            lines.append(f"    note     : {n}")
        lines.append("    elapsed  : 0")
    s = summarize(checks)
    lines.append("")
    lines.append("summary: confirmed={confirmed} refuted={refuted} indeterminate={indeterminate} errors={errors}".format(**s))
    return "\n".join(lines) + "\n"


def _json_str(s: str | None) -> str:
    return "null" if s is None else encode_basestring_ascii(s)


def _check_json(c: CheckReport) -> str:
    claim = "null"
    if c.claim_value is not None or c.citation is not None:
        claim = (f'{{\n        "value": {_json_str(c.claim_value)},\n'
                 f'        "citation": {_json_str(c.citation)}\n      }}')
    notes = "[]"
    if c.notes:
        notes = "[\n" + ",\n".join("        " + _json_str(n) for n in c.notes) + "\n      ]"
    return (f'    {{\n      "check-id": {_json_str(c.check_id)},\n'
            f'      "computed": {_json_str(c.computed)},\n'
            f'      "paper-claim": {claim},\n'
            f'      "agreement": {_json_str(c.agreement)},\n'
            f'      "notes": {notes},\n'
            f'      "elapsed": "0"\n    }}')


def render_json(suite: str, config: RunConfig, checks) -> str:
    """The report as `json.dumps` with `indent=2` prints it, written directly."""
    checks_json = "[]"
    if checks:
        checks_json = "[\n" + ",\n".join(_check_json(c) for c in checks) + "\n  ]"
    summary = ",\n".join(f'    "{k}": "{v}"' for k, v in summarize(checks).items())
    return (f'{{\n  "suite": {_json_str(suite)},\n'
            f'  "config": {{\n    "m": {_json_str(config.m_expr)},\n'
            f'    "seed": "{config.seed}",\n    "survey": "{config.survey}",\n'
            f'    "bound": "{config.bound}"\n  }},\n'
            f'  "checks": {checks_json},\n'
            f'  "summary": {{\n{summary}\n  }}\n}}\n')
