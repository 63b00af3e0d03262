"""QueryShareCache: database-level query coalescing and result memoing.

Unit-level contracts — coalesce/hit/miss classification, zero-cost
follower delivery, cancellation and failure protocols, memo bounds — on
a bare :class:`IdealDatabase`.  The end-to-end guarantees (identical
decision values, dispatch-mode invariance, shard travel) live in the
differential suites.
"""

from __future__ import annotations

import pytest

from repro.simdb.database import IdealDatabase, QueryShareCache
from repro.simdb.des import Simulation


def make_cache(memo_limit: int = 64, failure_prob: float = 0.0, seed: int = 0):
    sim = Simulation()
    database = IdealDatabase(sim, failure_prob=failure_prob, seed=seed)
    return sim, database, QueryShareCache(database, memo_limit=memo_limit)


class Recorder:
    def __init__(self):
        self.calls: list[tuple[int, bool]] = []

    def __call__(self, processed: int, completed: bool) -> None:
        self.calls.append((processed, completed))


class TestClassification:
    def test_miss_dispatches_to_the_database(self):
        sim, database, cache = make_cache()
        done = Recorder()
        cache.submit(("q", 3), 3, done)
        sim.run()
        assert done.calls == [(3, True)]
        assert database.total_units == 3
        assert (cache.misses, cache.coalesced, cache.hits) == (1, 0, 0)

    def test_inflight_duplicate_coalesces(self):
        sim, database, cache = make_cache()
        first, second = Recorder(), Recorder()
        cache.submit(("q", 3), 3, first)
        cache.submit(("q", 3), 3, second)
        sim.run()
        # One real query; the follower completes with zero units of work.
        assert database.total_units == 3
        assert first.calls == [(3, True)]
        assert second.calls == [(0, True)]
        assert (cache.misses, cache.coalesced, cache.hits) == (1, 1, 0)

    def test_completed_result_served_from_memo(self):
        sim, database, cache = make_cache()
        cache.submit(("q", 3), 3, Recorder())
        sim.run()
        late = Recorder()
        cache.submit(("q", 3), 3, late)
        assert late.calls == []  # delivery is event-driven, not synchronous
        sim.run()
        assert late.calls == [(0, True)]
        assert database.total_units == 3
        assert (cache.misses, cache.coalesced, cache.hits) == (1, 0, 1)

    def test_distinct_keys_do_not_share(self):
        sim, database, cache = make_cache()
        cache.submit(("a", 2), 2, Recorder())
        cache.submit(("b", 2), 2, Recorder())
        sim.run()
        assert database.total_units == 4
        assert cache.misses == 2

    def test_cost_below_one_rejected(self):
        _, _, cache = make_cache()
        with pytest.raises(ValueError):
            cache.submit(("q", 0), 0, Recorder())


class TestFollowerHandles:
    def test_follower_does_not_count_for_parallelism(self):
        sim, _, cache = make_cache()
        cache.submit(("q", 2), 2, Recorder())
        follower = cache.submit(("q", 2), 2, Recorder())
        assert follower.counts_for_parallelism is False

    def test_cancelled_follower_resolves_as_cancelled(self):
        sim, database, cache = make_cache()
        primary_done, follower_done = Recorder(), Recorder()
        cache.submit(("q", 3), 3, primary_done)
        follower = cache.submit(("q", 3), 3, follower_done)
        follower.cancel()
        sim.run()
        assert primary_done.calls == [(3, True)]
        assert follower_done.calls == [(0, False)]
        assert database.queries_completed == 1

    def test_cancelled_memo_hit_resolves_as_cancelled(self):
        sim, _, cache = make_cache()
        cache.submit(("q", 1), 1, Recorder())
        sim.run()
        late = Recorder()
        follower = cache.submit(("q", 1), 1, late)
        follower.cancel()
        sim.run()
        assert late.calls == [(0, False)]

    def test_waiter_count_tracks_primary(self):
        sim, _, cache = make_cache()
        primary = cache.submit(("q", 4), 4, Recorder())
        assert cache.waiter_count(primary) == 0
        follower = cache.submit(("q", 4), 4, Recorder())
        assert cache.waiter_count(primary) == 1
        assert cache.waiter_count(follower) == 0
        sim.run()
        assert cache.waiter_count(primary) == 0

    def test_cancelled_followers_do_not_pin_the_primary(self):
        """Once every waiter is itself cancelled, waiter_count must drop
        to zero so cancel-unneeded can cancel the primary instead of
        forcing the unneeded query to run to completion."""
        sim, database, cache = make_cache()
        primary = cache.submit(("q", 4), 4, Recorder())
        follower = cache.submit(("q", 4), 4, Recorder())
        follower.cancel()
        assert cache.waiter_count(primary) == 0
        primary.cancel()
        sim.run()
        assert database.total_units == 1  # cancelled at the unit boundary
        assert cache.reissues == 0


class TestCancellationAndFailure:
    def test_cancelled_primary_reissues_for_live_followers(self):
        sim, database, cache = make_cache()
        primary_done, follower_done = Recorder(), Recorder()
        primary = cache.submit(("q", 4), 4, primary_done)
        cache.submit(("q", 4), 4, follower_done)
        primary.cancel()
        sim.run()
        # The issuer sees its cancellation; the follower is answered by a
        # fresh full-cost reissue (the database did real work twice).
        assert primary_done.calls == [(1, False)]
        assert follower_done.calls == [(0, True)]
        assert cache.reissues == 1
        assert database.total_units == 1 + 4
        assert ("q", 4) in cache._memo

    def test_cancelled_primary_with_only_cancelled_followers_skips_reissue(self):
        sim, database, cache = make_cache()
        primary_done, follower_done = Recorder(), Recorder()
        primary = cache.submit(("q", 4), 4, primary_done)
        follower = cache.submit(("q", 4), 4, follower_done)
        follower.cancel()
        primary.cancel()
        sim.run()
        assert primary_done.calls == [(1, False)]
        assert follower_done.calls == [(0, False)]
        assert cache.reissues == 0
        assert database.total_units == 1

    def test_failed_primary_marks_followers_failed_and_skips_memo(self):
        sim, database, cache = make_cache(failure_prob=1.0)
        cache.submit(("q", 2), 2, Recorder())
        follower = cache.submit(("q", 2), 2, Recorder())
        sim.run()
        assert follower.failed is True
        assert cache.memo_size == 0  # failures are retried, never memoized
        retry = cache.submit(("q", 2), 2, Recorder())
        assert retry is not follower
        assert cache.misses == 2


class TestMemoBounds:
    def test_memo_is_lru_bounded(self):
        sim, _, cache = make_cache(memo_limit=2)
        for name in ("a", "b", "c"):
            cache.submit((name, 1), 1, Recorder())
        sim.run()
        assert cache.memo_size == 2
        # "a" (oldest) was evicted; "b"/"c" still hit.
        cache.submit(("b", 1), 1, Recorder())
        cache.submit(("a", 1), 1, Recorder())
        sim.run()
        assert cache.hits == 1
        assert cache.misses == 4

    def test_repeat_hits_within_an_instant_keep_the_order(self):
        sim, _, cache = make_cache(memo_limit=2)
        for name in ("a", "b"):
            cache.submit((name, 1), 1, Recorder())
        sim.run()
        for name in ("a", "b", "a"):  # the second "a" hit is a repeat
            cache.submit((name, 1), 1, Recorder())
        sim.run()
        cache.submit(("c", 1), 1, Recorder())  # evicts "a", not "b"
        sim.run()
        cache.submit(("b", 1), 1, Recorder())
        sim.run()
        assert (cache.hits, cache.misses) == (4, 3)

    def test_keys_hit_this_instant_outlive_it(self):
        class EveryKeyL2:
            def probe(self, key):
                return True

        sim, _, cache = make_cache(memo_limit=1)
        cache.submit(("a", 1), 1, Recorder())
        sim.run()
        cache.submit(("a", 1), 1, Recorder())
        cache.l2 = EveryKeyL2()
        cache.submit(("b", 1), 1, Recorder())  # promotion must not evict "a"
        cache.submit(("a", 1), 1, Recorder())
        assert cache.memo_size == 2
        assert (cache.hits, cache.l2_hits) == (2, 1)
        sim.run()
        cache.l2 = None
        cache.submit(("c", 1), 1, Recorder())
        sim.run()  # inserting "c" one instant later trims to the limit
        assert cache.memo_size == 1

    def test_hit_refreshes_recency(self):
        sim, _, cache = make_cache(memo_limit=2)
        for name in ("a", "b"):
            cache.submit((name, 1), 1, Recorder())
        sim.run()
        cache.submit(("a", 1), 1, Recorder())  # refresh "a"
        sim.run()
        cache.submit(("c", 1), 1, Recorder())  # evicts "b", not "a"
        sim.run()
        cache.submit(("a", 1), 1, Recorder())
        sim.run()
        assert cache.hits == 2

    def test_memo_limit_validated(self):
        sim = Simulation()
        database = IdealDatabase(sim)
        with pytest.raises(ValueError):
            QueryShareCache(database, memo_limit=0)

    def test_repr_mentions_counters(self):
        _, _, cache = make_cache()
        text = repr(cache)
        assert "hits=0" in text and "memo=0" in text


# -- the shared L2 tier, at the cache level ------------------------------------


def make_l2_cache(tier=None, failure_prob: float = 0.0):
    from repro.runtime.l2cache import SharedQueryTier

    tier = tier if tier is not None else SharedQueryTier()
    sim = Simulation()
    database = IdealDatabase(sim, failure_prob=failure_prob, seed=0)
    view = tier.view()
    return sim, database, QueryShareCache(database, l2=view), tier, view


class TestL2Probe:
    def test_l2_hit_serves_zero_cost_and_promotes_to_l1(self):
        sim, database, cache, tier, _ = make_l2_cache()
        tier.commit([[("q", 3)]])  # committed by "another shard", last round
        done = Recorder()
        cache.submit(("q", 3), 3, done)
        assert done.calls == []  # delivery is event-driven, like a memo hit
        sim.run()
        assert done.calls == [(0, True)]
        assert database.total_units == 0  # no dispatch: the fleet already paid
        assert (cache.l2_hits, cache.l2_misses, cache.misses) == (1, 0, 0)
        # The hit was promoted into the local L1 memo: a re-issue is an
        # ordinary L1 hit and never consults the tier again.
        again = Recorder()
        cache.submit(("q", 3), 3, again)
        sim.run()
        assert again.calls == [(0, True)]
        assert (cache.hits, cache.l2_hits) == (1, 1)

    def test_l2_miss_dispatches_then_publishes_on_success(self):
        sim, database, cache, _, view = make_l2_cache()
        cache.submit(("q", 2), 2, Recorder())
        sim.run()
        assert database.total_units == 2
        assert (cache.l2_misses, cache.l2_promotions) == (1, 1)
        # Published keys buffer in the view until the round owner commits.
        assert view.probe(("q", 2)) is False
        assert view.drain() == [("q", 2)]

    def test_publish_invisible_until_commit(self):
        from repro.runtime.l2cache import SharedQueryTier

        tier = SharedQueryTier()
        sim, _, cache, _, view = make_l2_cache(tier)
        cache.submit(("q", 1), 1, Recorder())
        sim.run()
        # Mid-round: a sibling shard's view must not see the key yet.
        sibling = tier.view()
        assert sibling.probe(("q", 1)) is False
        tier.commit([view.drain()])
        assert sibling.probe(("q", 1)) is True
        assert tier.committed_size == 1

    def test_failures_never_reach_the_tier(self):
        sim, _, cache, _, view = make_l2_cache(failure_prob=1.0)
        cache.submit(("q", 2), 2, Recorder())
        sim.run()
        assert cache.memo_size == 0  # L1 did not memoize the failure
        assert view.drain() == []  # and nothing was published to L2
        assert cache.l2_promotions == 0

    def test_cancelled_primary_reissue_publishes_only_the_success(self):
        sim, database, cache, _, view = make_l2_cache()
        primary = cache.submit(("q", 4), 4, Recorder())
        cache.submit(("q", 4), 4, Recorder())  # live follower forces a reissue
        primary.cancel()
        sim.run()
        assert cache.reissues == 1
        assert database.total_units == 1 + 4
        assert view.drain() == [("q", 4)]  # one publish, from the reissue
        assert cache.l2_promotions == 1

    def test_duplicate_publishes_dedupe_in_the_view(self):
        from repro.runtime.l2cache import ShardL2View

        view = ShardL2View(set())
        assert view.publish("k") is True
        assert view.publish("k") is False  # already pending
        assert view.drain() == ["k"]
        view.apply_delta(["k"], [])
        assert view.publish("k") is False  # already committed

    def test_tier_commit_is_fifo_bounded_with_delta(self):
        from repro.runtime.l2cache import SharedQueryTier

        tier = SharedQueryTier(limit=2)
        tier.commit([["a", "b"]])
        assert tier.take_delta() == (["a", "b"], [])
        tier.commit([["c"], ["b", "d"]])  # "b" dedupes; "a" (oldest) evicts
        added, removed = tier.take_delta()
        assert added == ["c", "d"]
        assert removed == ["a", "b"]  # FIFO: the two oldest make room
        assert tier.committed_size == 2
        assert tier.take_delta() == ([], [])  # deltas ship exactly once

    def test_tier_limit_validated(self):
        from repro.runtime.l2cache import SharedQueryTier

        with pytest.raises(ValueError):
            SharedQueryTier(limit=0)


class TestVirtualMemoFollowers:
    """Cohort members counted in bulk behind a pending memo delivery."""

    def warm(self, memo_limit: int = 64):
        sim, database, cache = make_cache(memo_limit=memo_limit)
        cache.submit(("q", 3), 3, Recorder())
        sim.run()
        rep = Recorder()
        handle = cache.submit(("q", 3), 3, rep)
        return sim, cache, handle, rep

    def test_attach_counts_hits_and_pins_nothing(self):
        sim, cache, handle, rep = self.warm()
        assert cache.can_attach_virtual(handle, memo=True)
        assert not cache.can_attach_virtual(handle, memo=False)
        cache.attach_virtual(handle, 4)
        assert (cache.hits, cache.coalesced) == (5, 0)
        assert cache.waiter_count(handle) == 0
        cache.release_virtual(handle, 4)  # nothing to un-pin
        sim.run()
        assert rep.calls == [(0, True)]
        assert not cache.can_attach_virtual(handle, memo=True)  # delivered

    def test_materialize_schedules_one_delivery_each_without_recounting(self):
        sim, cache, handle, rep = self.warm()
        cache.attach_virtual(handle, 2)
        waiting, cancelled = Recorder(), Recorder()
        followers = cache.materialize_virtual(
            handle, [(3, waiting, False), (3, cancelled, True)]
        )
        assert [f.memo for f in followers] == [True, True]
        assert cache.hits == 3
        sim.run()
        assert rep.calls == [(0, True)]
        assert waiting.calls == [(0, True)]
        assert cancelled.calls == [(0, False)]

    def test_bulk_hits_leave_the_memo_as_one_by_one_hits_would(self):
        def drive(bulk: bool) -> tuple:
            sim, cache, handle, _ = self.warm(memo_limit=2)
            cache.submit(("b", 1), 1, Recorder())
            sim.run()  # "b" completes one instant later; the memo is full
            handle = cache.submit(("q", 3), 3, Recorder())
            cache.submit(("b", 1), 1, Recorder())  # a hit in between
            if bulk:
                cache.attach_virtual(handle, 1)
            else:
                cache.submit(("q", 3), 3, Recorder())
            sim.run()
            cache.submit(("c", 1), 1, Recorder())
            sim.run()  # inserting "c" evicts the older of "q" and "b"
            return list(cache._memo), cache.hits, cache.misses

        assert drive(bulk=True) == drive(bulk=False)

    def test_coalesced_follower_never_attaches(self):
        sim, database, cache = make_cache()
        primary = cache.submit(("q", 3), 3, Recorder())
        assert cache.can_attach_virtual(primary, memo=True)
        follower = cache.submit(("q", 3), 3, Recorder())
        assert not cache.can_attach_virtual(follower, memo=True)
        # ...and a real follower makes the primary order-inexact.
        assert not cache.can_attach_virtual(primary, memo=True)
