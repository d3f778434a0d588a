"""The service contract's first driver: a Hypothesis state machine whose
every rule is one ``step`` of :mod:`repro.fuzz.service` (which the
``serve-stress`` sweep drives too), on a fake clock with two slots and a
queue of two. Deadlines and clock steps never meet exactly."""

from __future__ import annotations

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule, run_state_machine_as_test

from repro.fuzz.service import CLASSES, CONFIG, EVENTS, KINDS, READS, Rig, ServiceModel
from repro.fuzz.service import conclude, step

picks = st.integers(0, 1000)
reads = st.sampled_from(sorted(READS))
classes = st.sampled_from(sorted(CLASSES))
timeouts = st.sampled_from((None, 1.5, 4.5))


class ServedDatabase(RuleBasedStateMachine):
    #: The action kinds and model events every example saw; one per run.
    seen: Counter

    def __init__(self) -> None:
        super().__init__()
        self.rig = Rig(CONFIG)
        self.model = ServiceModel(CONFIG)

    def teardown(self) -> None:
        try:
            conclude(self.rig, self.model)
        finally:
            self.rig.close()
            self.seen.update(self.model.seen)

    def _step(self, *action) -> None:
        step(self.rig, self.model, action)

    @rule(op=reads, qclass=classes, timeout=timeouts, gated=st.booleans())
    def sql(self, op, qclass, timeout, gated):  # a gated read has no deadline
        self._step("sql", op, qclass, None if gated else timeout, gated)

    @rule(qclass=classes, timeout=timeouts, bad=st.booleans())
    def publish(self, qclass, timeout, bad):
        self._step("publish", qclass, timeout, bad)

    @rule()
    def insert(self):
        self._step("insert")

    @precondition(lambda self: self.model.holders())
    @rule(pick=picks, how=st.sampled_from(("read", "read", "abandon", "cancel")))
    def release(self, pick, how):
        self._step("release", pick, how)

    @rule(seconds=st.sampled_from((1.0, 3.0)))
    def advance(self, seconds):
        self._step("advance", seconds)

    @precondition(lambda self: any(call.kind == "sql" for call in self.model.waiting()))
    @rule(pick=picks)
    def cancel(self, pick):
        self._step("cancel", pick)

    @precondition(lambda self: not self.model.stopped)
    @rule(pick=picks)
    def contend(self, pick):
        # Streams fill the slots and reads the queue until one is shed;
        # those lapse. Of two gated reads queued next, the later one has
        # the better priority: a freed slot must go to it, and the other
        # is cancelled. Two more are left waiting.
        while self.model.free:
            self._step("publish", "batch", None, False)
        while self.model.calls[-1].state != "shed":
            self._step("sql", "sum", "interactive", 1.5, False)
        self._step("advance", 3.0)
        self._step("sql", "count", "batch", None, True)
        self._step("sql", "gapply", "interactive", None, True)
        self._step("release", pick, "read")
        if any(call.kind == "sql" for call in self.model.waiting()):
            self._step("cancel", pick)
        self._step("sql", "count", "interactive", None, False)
        self._step("sql", "sum", "batch", None, False)

    @precondition(lambda self: not self.model.stopped)
    @rule()
    def abandon_streams(self):
        while self.model.free:
            self._step("publish", "interactive", None, False)
        self._step("sql", "count", "batch", None, False)
        self.shutdown(drain=False)

    @precondition(lambda self: self.model.holders() or self.model.queue)
    @rule(drain=st.booleans())
    def shutdown(self, drain):
        # A gated read (granted, not executing) must be counted and end
        # before shutdown returns: only a drain lets it.
        while not drain and any(call.gated for call in self.model.holders()):
            gated = [call.gated for call in self.model.holders()]
            self._step("release", gated.index(True), "read")
        self._step("shutdown", drain)


def test_the_service_is_its_model():
    seen: Counter = Counter()
    machine = type("ServedDatabase", (ServedDatabase,), {"seen": seen})
    run_state_machine_as_test(
        machine,
        settings=settings(max_examples=40, stateful_step_count=25, deadline=None),
    )
    assert {*KINDS, *EVENTS} <= {key for key, n in seen.items() if n}
