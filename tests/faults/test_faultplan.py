"""FaultSpec/FaultPlan semantics: schedules, parsing, fingerprints."""

import pickle

import pytest

from repro.faults import (
    FAULT_SITES,
    FaultError,
    FaultPlan,
    FaultReport,
    FaultSpec,
    TrapFault,
)


class TestFaultSpecValidation:
    def test_unknown_site_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'heap.alloc'"):
            FaultSpec("heap.aloc", "oom")

    def test_unknown_kind_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'trap'"):
            FaultSpec("interp.step", "trp")

    def test_kind_must_match_site(self):
        with pytest.raises(ValueError, match="fault kind for heap.alloc"):
            FaultSpec("heap.alloc", "crash")

    def test_bad_schedule_fields(self):
        with pytest.raises(ValueError, match="after"):
            FaultSpec("heap.alloc", "oom", after=-1)
        with pytest.raises(ValueError, match="every"):
            FaultSpec("heap.alloc", "oom", every=0)
        with pytest.raises(ValueError, match="count"):
            FaultSpec("heap.alloc", "oom", count=0)

    def test_parse_full_spec(self):
        spec = FaultSpec.parse("heap.alloc:oom:after=100:every=10:count=inf")
        assert spec.site == "heap.alloc"
        assert spec.kind == "oom"
        assert spec.after == 100
        assert spec.every == 10
        assert spec.count is None

    def test_parse_rejects_unknown_option(self):
        with pytest.raises(ValueError, match="did you mean 'count'"):
            FaultSpec.parse("heap.alloc:oom:coutn=3")

    def test_parse_rejects_bare_site(self):
        with pytest.raises(ValueError, match="site:kind"):
            FaultSpec.parse("heap.alloc")


class TestFiringSchedule:
    def test_after_every_count(self):
        plan = FaultPlan([FaultSpec("heap.alloc", "oom",
                                    after=2, every=3, count=2)])
        # Hits 0,1 pass; hit 2 fires; hits 3,4 pass; hit 5 fires; then done.
        fires = [plan.should_fire("heap.alloc") for _ in range(10)]
        assert fires == [False, False, True, False, False, True,
                         False, False, False, False]
        assert plan.fired("heap.alloc") == 2

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan([FaultSpec("heap.alloc", "oom")])
        assert not any(plan.should_fire("interp.step") for _ in range(5))
        assert plan.hits_until_fire("interp.step") is None

    def test_rearm_replays_identically(self):
        plan = FaultPlan([FaultSpec("heap.alloc", "oom", after=1, count=1)])
        first = [plan.should_fire("heap.alloc") for _ in range(4)]
        plan.rearm()
        second = [plan.should_fire("heap.alloc") for _ in range(4)]
        assert first == second == [False, True, False, False]

    def test_hits_until_fire_and_bulk_charge(self):
        plan = FaultPlan([FaultSpec("interp.step", "trap", after=10)])
        assert plan.hits_until_fire("interp.step") == 10
        plan.charge("interp.step", 7)
        assert plan.hits_until_fire("interp.step") == 3
        plan.charge("interp.step", 3)
        assert plan.hits_until_fire("interp.step") == 0
        assert plan.consume_fire("interp.step") == 1
        assert plan.hits_until_fire("interp.step") is None  # count=1 spent

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([FaultSpec("heap.alloc", "oom"),
                       FaultSpec("heap.alloc", "oom", after=5)])


class TestPlanIdentity:
    def test_fingerprint_ignores_firing_state(self):
        plan = FaultPlan([FaultSpec("heap.alloc", "oom", after=1)])
        before = plan.fingerprint()
        plan.should_fire("heap.alloc")
        plan.should_fire("heap.alloc")
        assert plan.fingerprint() == before

    def test_different_plans_differ(self):
        a = FaultPlan([FaultSpec("heap.alloc", "oom", after=1)])
        b = FaultPlan([FaultSpec("heap.alloc", "oom", after=2)])
        assert a.fingerprint() != b.fingerprint()

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError, match="empty fault plan"):
            FaultPlan.parse(" ; ")

    def test_every_site_parses(self):
        for site in FAULT_SITES:
            from repro.faults import SITE_KINDS

            kind = SITE_KINDS[site][0]
            assert FaultPlan.parse(f"{site}:{kind}").arms(site)


class TestErrorsPickle:
    def test_fault_error_report_survives_pickling(self):
        report = FaultReport(site="interp.step", kind="trap",
                             message="boom", firing=3,
                             context={"thread": "main"})
        err = TrapFault(report)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, TrapFault)
        assert isinstance(clone, FaultError)
        assert clone.report.to_dict() == report.to_dict()
        assert str(clone) == "boom"
