"""Workload builders that only the tests use.

Each returns a send-heavy program; ``protolite.bench.deep_send_workload``
stays in the package, because the overhead script and criterion 7 run it.
"""

from protolite.bench import deep_send_workload
from protolite.syntax import (
    ClassDef,
    Expr,
    IntLit,
    Let,
    MethodDef,
    New,
    Program,
    SelfRef,
    Send,
    Var,
)


def polymorphic_workload(n_classes: int = 6, repeats: int = 50) -> Program:
    """Unrelated classes answering one selector; main cycles through them."""
    classes = tuple(
        ClassDef(f"P{i}", "Object", (), (
            MethodDef("probe", (), IntLit(i)),
        ))
        for i in range(n_classes)
    )
    sends: Expr = IntLit(0)
    for r in range(repeats):
        for i in range(n_classes):
            sends = Let(f"_p{r}_{i}", Send(New(f"P{i}"), "probe", ()), sends)
    return Program(classes, sends)


def dual_route_workload(depth: int = 5, repeats: int = 50) -> Program:
    """Selectors reached both through self-sends and object-sends.

    Under worst-case double registration the self-send route dispatches the
    mangled selector while the object-send route keeps the plain one, so the
    same source selector can contribute two lookup keys. Classes here use no
    protection of their own.
    """
    program = deep_send_workload(depth=depth, repeats=repeats,
                                 protected_levels=False)
    leaf = f"L{depth - 1}"
    cross = MethodDef(
        "cross", (),
        Send(Send(SelfRef(), "base", ()), "+",
             (Send(New(leaf), "base", ()),)))
    classes = tuple(
        ClassDef(c.name, c.superclass, c.fields, c.methods + (cross,))
        if c.name == leaf else c
        for c in program.classes
    )
    main: Expr = Let("obj", New(leaf),
                     _interleave_sends(Var("obj"), ("bump", "cross"), repeats))
    return Program(classes, main)


def _interleave_sends(receiver: Expr, selectors: tuple[str, ...],
                      times: int) -> Expr:
    body: Expr = Send(receiver, selectors[0], ())
    i = 0
    for _ in range(times):
        for sel in selectors:
            body = Let(f"_i{i}", Send(receiver, sel, ()), body)
            i += 1
    return body
