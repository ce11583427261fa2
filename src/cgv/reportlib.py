"""Check reports, run configuration, and the deterministic text/JSON emitters.

Reports are a pure function of (suite, config): identical inputs produce
byte-identical output.  The elapsed field is emitted as the exact string "0"
to keep that contract.  Every numeric value in JSON output is an exact
string, never a float.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .claims import Claim
from .nf import NFElem
from .parsing import parse_scalar

CONFIRMED = "confirmed"
REFUTED = "refuted"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    computed: str
    claim_value: str | None = None
    citation: str | None = None
    agreement: str = INDETERMINATE
    notes: tuple = ()
    error: bool = False


def make_check(check_id: str, computed: str, claim: Claim | None = None,
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
    )


def error_check(check_id: str, exc: BaseException) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        computed=f"internal error: {type(exc).__name__}: {exc}",
        agreement=INDETERMINATE,
        notes=("the check did not complete; this is a defect in the toolkit, not a verdict",),
        error=True,
    )


@dataclass
class RunConfig:
    m_expr: str | None = None
    seed: int = 1
    survey: int = 100
    bound: int = 5
    m_value: NFElem | None = field(init=False, default=None)

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.survey < 1:
            raise ValueError("survey size must be >= 1")
        if self.bound < 1:
            raise ValueError("witness bound must be >= 1")
        if self.m_expr is not None:
            self.m_value = parse_scalar(self.m_expr)

    def m_or_default(self):
        """Scalar m for checks that need one: --m if given, else 1."""
        return self.m_value if self.m_value is not None else NFElem(1)

    def m_defaulted(self) -> bool:
        return self.m_value is None


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


def check_to_json(c: CheckReport) -> dict:
    claim = None
    if c.claim_value is not None or c.citation is not None:
        claim = {"value": c.claim_value, "citation": c.citation}
    return {
        "check-id": c.check_id,
        "computed": c.computed,
        "paper-claim": claim,
        "agreement": c.agreement,
        "notes": list(c.notes),
        "elapsed": "0",
    }


def render_json(suite: str, config: RunConfig, checks) -> str:
    s = summarize(checks)
    doc = {
        "suite": suite,
        "config": {
            "m": config.m_expr,
            "seed": str(config.seed),
            "survey": str(config.survey),
            "bound": str(config.bound),
        },
        "checks": [check_to_json(c) for c in checks],
        "summary": {k: str(v) for k, v in s.items()},
    }
    return json.dumps(doc, indent=2) + "\n"
