"""Tests for the CEP package: pattern builder, NFA semantics, operator."""

import pytest

from repro.api import Environment
from repro.cep import NFA, CEPOperator, Pattern


def event(kind, value=0):
    return {"kind": kind, "value": value}


def kinds(pattern_events):
    return {name: e["kind"] for name, e in pattern_events.items()}


class TestPatternBuilder:
    def test_builder_accumulates_stages(self):
        pattern = (Pattern.begin("a", lambda e: True)
                   .followed_by("b", lambda e: True)
                   .next("c", lambda e: True)
                   .within(100))
        assert pattern.length == 3
        assert pattern.within_ms == 100
        assert [s.contiguity for s in pattern.stages] == [
            "followed_by", "followed_by", "next"]

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            Pattern.begin("a", lambda e: True).followed_by("a",
                                                           lambda e: True)

    def test_invalid_within(self):
        with pytest.raises(ValueError):
            Pattern.begin("a", lambda e: True).within(0)

    def test_patterns_are_immutable_builders(self):
        base = Pattern.begin("a", lambda e: True)
        extended = base.followed_by("b", lambda e: True)
        assert base.length == 1
        assert extended.length == 2


class TestNFASemantics:
    def _ab_pattern(self, within=None):
        pattern = (Pattern.begin("a", lambda e: e["kind"] == "A")
                   .followed_by("b", lambda e: e["kind"] == "B"))
        return pattern.within(within) if within else pattern

    def test_simple_sequence(self):
        nfa = NFA(self._ab_pattern())
        assert nfa.advance(event("A"), 0) == []
        matches = nfa.advance(event("B"), 10)
        assert len(matches) == 1
        assert kinds(matches[0].events) == {"a": "A", "b": "B"}
        assert (matches[0].start_ts, matches[0].end_ts) == (0, 10)

    def test_relaxed_contiguity_skips_noise(self):
        nfa = NFA(self._ab_pattern())
        nfa.advance(event("A"), 0)
        nfa.advance(event("X"), 5)
        assert len(nfa.advance(event("B"), 10)) == 1

    def test_strict_contiguity_dies_on_noise(self):
        pattern = (Pattern.begin("a", lambda e: e["kind"] == "A")
                   .next("b", lambda e: e["kind"] == "B"))
        nfa = NFA(pattern)
        nfa.advance(event("A"), 0)
        nfa.advance(event("X"), 5)   # kills the partial
        assert nfa.advance(event("B"), 10) == []

    def test_within_expires_partials(self):
        nfa = NFA(self._ab_pattern(within=50))
        nfa.advance(event("A"), 0)
        assert nfa.advance(event("B"), 100) == []  # too late

    def test_overlapping_matches_all_found(self):
        nfa = NFA(self._ab_pattern())
        nfa.advance(event("A", 1), 0)
        nfa.advance(event("A", 2), 10)
        matches = nfa.advance(event("B"), 20)
        assert len(matches) == 2
        starts = sorted(m.start_ts for m in matches)
        assert starts == [0, 10]

    def test_relaxed_branch_allows_repeated_completion(self):
        # a followed_by b: after a B completes a match, the original A
        # can still pair with a later B (no after-match skipping).
        nfa = NFA(self._ab_pattern())
        nfa.advance(event("A"), 0)
        assert len(nfa.advance(event("B"), 10)) == 1
        assert len(nfa.advance(event("B"), 20)) == 1

    def test_single_stage_pattern_matches_immediately(self):
        pattern = Pattern.begin("only", lambda e: e["kind"] == "Z")
        nfa = NFA(pattern)
        matches = nfa.advance(event("Z"), 7)
        assert len(matches) == 1
        assert matches[0].start_ts == matches[0].end_ts == 7

    def test_three_stage_chain_with_captures(self):
        pattern = (Pattern.begin("low", lambda e: e["value"] < 10)
                   .followed_by("mid", lambda e: 10 <= e["value"] < 100)
                   .followed_by("high", lambda e: e["value"] >= 100))
        nfa = NFA(pattern)
        nfa.advance(event("t", 5), 0)
        nfa.advance(event("t", 50), 1)
        matches = nfa.advance(event("t", 500), 2)
        assert len(matches) == 1
        captured = matches[0].events
        assert (captured["low"]["value"], captured["mid"]["value"],
                captured["high"]["value"]) == (5, 50, 500)

    def test_prune_discards_expired_partials(self):
        nfa = NFA(self._ab_pattern(within=50))
        nfa.advance(event("A"), 0)
        nfa.advance(event("A"), 100)
        nfa.prune(watermark_ts=90)
        assert nfa.live_partial_matches == 1

    def test_snapshot_restore(self):
        nfa = NFA(self._ab_pattern())
        nfa.advance(event("A"), 0)
        state = nfa.snapshot()
        restored = NFA(self._ab_pattern())
        restored.restore(state)
        assert len(restored.advance(event("B"), 5)) == 1


class TestCEPPipeline:
    def test_detect_on_keyed_stream(self):
        # Churn-risk pattern: a purchase followed by two support
        # contacts within 1 minute, per user.
        events = [
            ("u1", "purchase", 0),
            ("u1", "support", 10_000),
            ("u2", "purchase", 15_000),
            ("u1", "support", 20_000),     # match for u1
            ("u2", "view", 21_000),
            ("u2", "support", 30_000),
            ("u2", "support", 200_000),    # too late: within 60s fails
        ]
        pattern = (Pattern.begin("buy", lambda e: e[1] == "purchase")
                   .followed_by("s1", lambda e: e[1] == "support")
                   .followed_by("s2", lambda e: e[1] == "support")
                   .within(60_000))
        env = Environment()
        matches = (env.from_collection([(e, e[2]) for e in events],
                                       timestamped=True)
                   .key_by(lambda e: e[0])
                   .detect(pattern)
                   .collect())
        env.execute()
        found = matches.get()
        assert len(found) == 1
        assert found[0].key == "u1"
        assert found[0].events["s2"][2] == 20_000

    def test_requires_timestamps(self):
        env = Environment()
        pattern = Pattern.begin("any", lambda e: True)
        (env.from_collection(["x"])
            .key_by(lambda e: e)
            .detect(pattern)
            .collect())
        with pytest.raises(ValueError):
            env.execute()

    def test_watermark_pruning_bounds_state(self):
        # Many pattern starts that never complete: watermarks must prune.
        events = [("k", "open", ts) for ts in range(0, 100_000, 100)]
        pattern = (Pattern.begin("open", lambda e: e[1] == "open")
                   .followed_by("close", lambda e: e[1] == "close")
                   .within(1_000))
        from repro.time.watermarks import WatermarkStrategy
        env = Environment()
        strategy = WatermarkStrategy.for_monotonic_timestamps(
            lambda e: e[2])
        (env.from_collection(events)
            .assign_timestamps_and_watermarks(strategy)
            .key_by(lambda e: e[0])
            .detect(pattern)
            .collect())
        env.execute()
        engine = env.last_engine
        max_partials = max(
            chained.ctx.metrics.gauge("cep_partial_matches").max_value
            for task in engine.tasks
            for chained in task.chain
            if "cep" in getattr(chained.operator, "name", ""))
        # Without pruning this would reach ~1000; with it, ~within/gap.
        assert max_partials < 50
