"""The conformance chaos lane (``repro.conformance.chaos``, DESIGN.md §16).

The acceptance bar of the fault-tolerance work: a pinned batch of ≥200
seeded (program, fault-schedule) pairs across the file and compiled
backends, where every run must either **recover** to
the byte-identical fault-free bag or surface one **clean positioned
fault** — zero hangs, zero corrupt bags, zero raw tracebacks.
"""

from repro.conformance import run_chaos
from repro.conformance.chaos import LANES
from repro.runtime.faults import RATE_KEYS


class TestChaosBatch:
    """One full pinned batch; the class-level cache keeps it to a
    single run however many assertions examine it."""

    _result = None

    @classmethod
    def batch(cls):
        if cls._result is None:
            cls._result = run_chaos(
                seed=0, count=34, fault_seed=7, variants=3
            )
        return cls._result

    def test_no_contract_violations(self):
        result = self.batch()
        details = [f.describe() for f in result.failures]
        assert result.failures == [], details

    def test_batch_is_large_enough(self):
        # The acceptance floor: ≥200 fault-injected pairs, spread over
        # every lane (34 programs × 2 lanes × 3 variants, minus skips).
        result = self.batch()
        assert result.pairs >= 200
        assert result.programs + result.skipped == 34
        assert result.pairs == result.programs * len(LANES) * 3

    def test_both_outcomes_are_exercised(self):
        # A batch that only recovers never tested clean-fault surfacing;
        # one that only faults never tested retry.  The pinned seed
        # exercises both, and every pair lands in exactly one bucket.
        result = self.batch()
        assert result.recovered > 0
        assert result.faulted > 0
        assert result.recovered + result.faulted == result.pairs

    def test_json_artifact_shape(self):
        doc = self.batch().to_json()
        assert doc["seed"] == 0 and doc["fault_seed"] == 7
        assert doc["pairs"] == self.batch().pairs
        assert doc["failures"] == []

    def test_summary_mentions_status(self):
        assert "OK" in self.batch().summary()


class TestChaosDeterminism:
    def test_same_seeds_same_outcome(self):
        kwargs = dict(seed=3, count=4, fault_seed=5, variants=2)
        first = run_chaos(**kwargs).to_json()
        second = run_chaos(**kwargs).to_json()
        first.pop("seconds")
        second.pop("seconds")
        assert first == second

    def test_progress_callback_sees_every_program(self):
        seen = []
        run_chaos(
            seed=0,
            count=3,
            fault_seed=1,
            variants=1,
            progress=lambda index, result: seen.append(index),
        )
        assert seen == [0, 1, 2]


class TestInjectionActuallyLands:
    def test_zero_rates_recover_everything(self):
        # With every rate forced to zero the "chaos" batch degenerates
        # to the plain differential check: all pairs recover.
        rates = {key: 0.0 for key in RATE_KEYS}
        result = run_chaos(
            seed=0, count=5, fault_seed=7, variants=1, rates=rates
        )
        assert result.failures == []
        assert result.faulted == 0
        assert result.recovered == result.pairs
