"""Evaluation outcomes and structured error reasons.

Both evaluators report through these types so a differential harness can
compare results with plain equality. Reasons produced by the compiled runtime
always render selectors in their unmangled form.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .values import Value

# Step budget of a run when the caller names none; ``metrics.DIFF_FUEL`` is the
# smaller default of differential runs.
DEFAULT_FUEL = 1_000_000


class StuckReason:
    __slots__ = ()

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class DoesNotUnderstand(StuckReason):
    class_name: str
    selector: str

    def __str__(self) -> str:
        return f"{self.class_name} does not understand '{self.selector}'"


@dataclass(frozen=True)
class NilReceiver(StuckReason):
    selector: str

    def __str__(self) -> str:
        return f"message '{self.selector}' sent to nil"


@dataclass(frozen=True)
class UnknownVariable(StuckReason):
    name: str

    def __str__(self) -> str:
        return f"unbound variable '{self.name}'"


@dataclass(frozen=True)
class UnknownField(StuckReason):
    class_name: str
    field: str

    def __str__(self) -> str:
        return f"unknown field '{self.field}' in {self.class_name}"


@dataclass(frozen=True)
class UnknownClass(StuckReason):
    class_name: str

    def __str__(self) -> str:
        return f"unknown class '{self.class_name}'"


@dataclass(frozen=True)
class ArityMismatch(StuckReason):
    class_name: str
    selector: str
    expected: int
    got: int

    def __str__(self) -> str:
        return (f"'{self.selector}' on {self.class_name} expects "
                f"{self.expected} argument(s), got {self.got}")


@dataclass(frozen=True)
class PrimitiveFailure(StuckReason):
    selector: str
    detail: str

    def __str__(self) -> str:
        return f"primitive '{self.selector}' failed: {self.detail}"


class Outcome:
    __slots__ = ()


@dataclass(frozen=True)
class Completed(Outcome):
    value: Value


@dataclass(frozen=True)
class Errored(Outcome):
    reason: StuckReason


@dataclass(frozen=True)
class FuelExhausted(Outcome):
    pass


@dataclass(frozen=True)
class EvalResult:
    """Outcome of a run plus the number of reductions it took.

    Both evaluators count the same events (allocations, field reads/writes,
    message activations, let bindings), so step counts and fuel budgets are
    directly comparable between them.
    """

    outcome: Outcome
    steps: int


def outcome_to_json(outcome: Outcome) -> dict:
    if isinstance(outcome, Completed):
        from .values import IntVal, Nil, Oid, int_text

        v = outcome.value
        if isinstance(v, Nil):
            rendered: object = None
        elif isinstance(v, IntVal):
            # A JSON number is decimal text; a hexadecimal one is a string.
            text = int_text(v.n)
            rendered = text if "x" in text else v.n
        elif isinstance(v, Oid):
            rendered = f"oid:{v.oid}"
        else:
            rendered = repr(v)
        return {"outcome": "value", "value": rendered}
    if isinstance(outcome, Errored):
        payload = {"kind": outcome.reason.kind}
        payload.update(asdict(outcome.reason))
        return {"outcome": "error", "error": payload}
    if isinstance(outcome, FuelExhausted):
        return {"outcome": "fuel-exhausted"}
    raise TypeError(f"not an outcome: {outcome!r}")
