"""The in-memory codegen cache across requests: cold starts start empty.

The cache is process-wide, so in-process repeats promote on the first
visit and skip source generation; a ``cold_start`` request clears it
first and pays the fresh-process codegen bill again.
"""

from repro.api import RunRequest, execute, request_from_dict, request_to_dict


class TestColdStartRequests:
    def test_cold_start_clears_warm_cache(self):
        # Two identical in-process runs share the module-level cache; a
        # cold_start request starts from scratch and pays codegen again.
        warmup = execute(RunRequest("bc-loop", 1, "cg-compiled"))
        warm = execute(RunRequest("bc-loop", 1, "cg-compiled"))
        cold = execute(RunRequest("bc-loop", 1, "cg-compiled",
                                  cold_start=True))
        assert warm.ops == cold.ops == warmup.ops
        warm_gen = warm.metrics["counters"]["vm.compile.codegenned"]
        cold_gen = cold.metrics["counters"]["vm.compile.codegenned"]
        assert warm_gen == 0
        assert cold_gen > 0

    def test_cold_start_round_trips_the_wire(self):
        request = RunRequest("bc-loop", 1, "cg-compiled", cold_start=True)
        restored = request_from_dict(request_to_dict(request))
        assert restored.cold_start is True
        assert request_from_dict(
            request_to_dict(RunRequest("bc-loop", 1, "cg"))
        ).cold_start is False
