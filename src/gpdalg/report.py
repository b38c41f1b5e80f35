"""Uniform result reporting for the command line.

Two renderings of the same analysis: a text form for reading, with the
full justification and citation tags, and a machine form with one
key=value pair per line and a fixed key set

    noetherian, artinian, semisimple, shape, verified_pairs,
    oracle_agreement

plus a witness= line whenever a non-semisimplicity witness exists.
Values are deterministic, so repeated runs on the same input are byte
identical.
"""
from __future__ import annotations

from .value import Value

ORACLE_AGREE = "agree"
ORACLE_SKIPPED = "skipped"
ORACLE_UNSUPPORTED = "unsupported"


class VerificationReport(Value):
    """Outcome of an exhaustive check: how many unit checks ran, and a
    witness string per failure; every other check passed."""

    __slots__ = ("description", "total", "failures")

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"{self.passed}/{self.total} {self.description}"


class AnalysisReport(Value):
    __slots__ = (
        "kind",           # "groupoid", "graph", or "isg"
        "header",         # (label, value) pairs describing the input
        "ring_name",
        "verdict",        # Verdict
        "verification",   # VerificationReport, or a skip marker string
        "oracle_status",
        "oracle_detail",  # empty when nothing ran
        "witness",        # str or None
    )


def _flag(b: bool) -> str:
    return "yes" if b else "no"


def render_report_text(r: AnalysisReport) -> str:
    lines = []
    for label, value in r.header:
        lines.append(f"{label}: {value}")
    lines.append(f"ring: {r.ring_name}")
    lines.append(f"shape: {r.verdict.shape_string}")
    lines.append(f"noetherian: {_flag(r.verdict.noetherian)}")
    lines.append(f"artinian: {_flag(r.verdict.artinian)}")
    lines.append(f"semisimple: {_flag(r.verdict.semisimple)}")
    lines.append("justification:")
    for j in r.verdict.justification:
        lines.append(f"  - {j}")
    if isinstance(r.verification, VerificationReport):
        lines.append(f"verification: {r.verification.summary()}")
        for f in r.verification.failures:
            lines.append(f"  failed: {f}")
    else:
        lines.append(f"verification: {r.verification}")
    if r.oracle_detail:
        lines.append(f"oracle: {r.oracle_status} ({r.oracle_detail})")
    else:
        lines.append(f"oracle: {r.oracle_status}")
    if r.witness is not None:
        lines.append(f"witness: {r.witness}")
    return "\n".join(lines) + "\n"


def render_report_machine(r: AnalysisReport) -> str:
    if isinstance(r.verification, VerificationReport):
        pairs = f"{r.verification.passed}/{r.verification.total}"
    else:
        pairs = r.verification
    lines = [
        f"noetherian={'true' if r.verdict.noetherian else 'false'}",
        f"artinian={'true' if r.verdict.artinian else 'false'}",
        f"semisimple={'true' if r.verdict.semisimple else 'false'}",
        f"shape={r.verdict.shape_string}",
        f"verified_pairs={pairs}",
        f"oracle_agreement={r.oracle_status}",
    ]
    if r.witness is not None:
        lines.append(f"witness={r.witness}")
    return "\n".join(lines) + "\n"
