"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import CGPolicy, Mutator, Program, Runtime, RuntimeConfig


def make_runtime(
    heap_words: int = 1 << 16,
    cg: CGPolicy | None = None,
    tracing: str = "marksweep",
    gc_period_ops: int | None = None,
    paranoid: bool = True,
    dispatch: str | None = None,
    **cg_overrides,
) -> Runtime:
    """A runtime with paranoid CG checking on by default (tests only).

    ``dispatch`` defaults to the ``REPRO_DISPATCH`` env knob (falling back
    to the runtime default), so CI can sweep the whole suite across the
    table and tiered dispatch modes without touching any test.
    """
    if cg is None:
        cg = CGPolicy(paranoid=paranoid, **cg_overrides)
    if dispatch is None:
        dispatch = os.environ.get("REPRO_DISPATCH", "tiered")
    config = RuntimeConfig(
        heap_words=heap_words,
        cg=cg,
        tracing=tracing,
        gc_period_ops=gc_period_ops,
        dispatch=dispatch,
    )
    runtime = Runtime(config)
    define_test_classes(runtime.program)
    return runtime


#: A ``promote_after`` no test program reaches: tiered then runs only its
#: closure half (on cleared codegen caches — a warm cache promotes a
#: method at its first visit whatever the threshold).
NEVER_PROMOTE = 1_000_000

#: ``(dispatch, promote_after)`` for every cross-dispatch parity leg: the
#: ``table`` oracle, then ``tiered`` never promoting, promoting at each
#: method's first visit, and at the default threshold.
DISPATCH_LEGS = (
    ("table", RuntimeConfig.promote_after),
    ("tiered", NEVER_PROMOTE),
    ("tiered", 1),
    ("tiered", RuntimeConfig.promote_after),
)


def dispatch_sweep(run) -> dict:
    """``{leg: outcome}`` over :data:`DISPATCH_LEGS`, ``"table"`` first.

    ``run(dispatch, promote_after)`` builds and runs one runtime and
    returns ``(outcome, runtime)``.  The never-promote leg starts on
    cleared codegen caches and must promote nothing, so the closure half
    really runs.
    """
    from repro.jvm.compiledcode import clear_codegen_caches

    outcomes = {}
    for dispatch, promote_after in DISPATCH_LEGS:
        never = dispatch == "tiered" and promote_after == NEVER_PROMOTE
        if never:
            clear_codegen_caches()
        outcome, runtime = run(dispatch, promote_after)
        if never:
            assert runtime.interpreter.methods_promoted == 0
        leg = dispatch if dispatch == "table" else f"tiered@{promote_after}"
        outcomes[leg] = outcome
    return outcomes


def assert_dispatch_parity(run) -> None:
    """Every :func:`dispatch_sweep` leg's outcome equals the table oracle's."""
    outcomes = dispatch_sweep(run)
    reference = outcomes["table"]
    for leg, outcome in outcomes.items():
        assert outcome == reference, leg


def define_test_classes(program: Program) -> None:
    """The small class library most tests share."""
    program.define_class("Node", fields=["next", "payload"])
    program.define_class("Pair", fields=["first", "second"])
    program.define_class("Box", fields=["value"])
    program.define_class("Big", fields=[f"f{i}" for i in range(14)])


@pytest.fixture
def rt() -> Runtime:
    return make_runtime()


@pytest.fixture
def rt_no_tracing() -> Runtime:
    return make_runtime(tracing="none")


@pytest.fixture
def m(rt: Runtime) -> Mutator:
    return Mutator(rt)


def assert_clean(runtime: Runtime) -> None:
    """Heap accounting and equilive invariants all hold."""
    runtime.check_heap_accounting()
    runtime.check_cg_invariants()
