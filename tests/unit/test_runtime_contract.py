"""The Runtime contract: every engine declares and honours it."""

from __future__ import annotations

import pytest

from repro.core.actions import A_WAKE
from repro.net.runtime import NetOpRecord, NetRuntime, RecordTable
from repro.sim.async_runner import AsyncRunner
from repro.sim.metrics import Metrics
from repro.sim.process import Actor, Runtime
from repro.sim.sync_runner import SyncRunner


def _net_runtime() -> NetRuntime:
    return NetRuntime(send_remote=lambda dest, action, payload: None)


@pytest.mark.parametrize("factory", [SyncRunner, AsyncRunner, _net_runtime])
def test_every_engine_implements_the_contract(factory):
    engine = factory()
    assert isinstance(engine, Runtime)
    # the structural check plus the members isinstance() cannot see
    for name in ("send", "request_timeout", "call_later", "resolve", "wake",
                 "add_actor", "remove_actor", "kick", "close"):
        assert callable(getattr(engine, name)), name
    assert isinstance(engine.metrics, Metrics)
    assert isinstance(engine.now, float)
    assert isinstance(dict(engine.actors), dict)


@pytest.mark.parametrize("factory", [SyncRunner, AsyncRunner])
def test_close_drops_actors_and_queued_work(factory):
    engine = factory()
    actor = Actor(7, engine)
    engine.add_actor(actor)
    engine.send(7, 0, ())
    engine.request_timeout(7)
    engine.close()
    assert not engine.actors


class _Recorder(Actor):
    def __init__(self, aid, runtime):
        super().__init__(aid, runtime)
        self.seen = []
        self.timeouts = 0

    def handle(self, action, payload):
        self.seen.append((action, payload))

    def timeout(self):
        self.timeouts += 1


def test_net_runtime_delivers_locally_and_ships_remotely():
    import asyncio

    shipped = []
    runtime = NetRuntime(
        send_remote=lambda dest, action, payload: shipped.append((dest, action)),
        timeout_lag=0.001,
    )

    async def scenario():
        runtime.start(asyncio.get_running_loop())
        local = _Recorder(3, runtime)
        runtime.add_actor(local)
        runtime.send(3, 42, ("x",))       # local: via the event loop
        runtime.send(99, 7, ())           # remote: via send_remote
        runtime.request_timeout(3)
        runtime.request_timeout(3)        # deduplicated while pending
        await asyncio.sleep(0.06)
        assert local.seen == [(42, ("x",))]
        assert shipped == [(99, 7)]
        # one deduplicated explicit TIMEOUT and nothing else
        assert local.timeouts == 1
        runtime.close()

    asyncio.run(scenario())


class TestWakeDiscipline:
    """``Runtime.wake``: pushed cross-actor readiness, on every engine.

    The contract pinned here: ``wake(actor_id)`` schedules a TIMEOUT for
    the actor wherever it lives, follows forwarding addresses, draws no
    randomness (so waking a peer never perturbs a recorded schedule),
    deduplicates with a pending ``request_timeout``, and is the only
    thing that re-checks an actor — no engine sweeps its actors.
    """

    def test_sync_wake_runs_timeout_next_round_without_sweep(self):
        engine = SyncRunner()
        actor = _Recorder(7, engine)
        engine.add_actor(actor)
        engine.wake(7)
        engine.step()
        assert actor.timeouts == 1
        engine.step()  # no wake: nothing re-checks the actor
        assert actor.timeouts == 1

    def test_sync_wake_follows_forwarding_and_draws_no_randomness(self):
        engine = SyncRunner()
        departed, absorber = _Recorder(3, engine), _Recorder(5, engine)
        engine.add_actor(departed)
        engine.add_actor(absorber)
        engine.remove_actor(3, forward_to=5)
        state = engine._delivery_rng.getstate()
        engine.wake(3)
        assert engine._delivery_rng.getstate() == state
        engine.step()
        assert absorber.timeouts == 1
        assert departed.timeouts == 0

    def test_async_wake_deduplicates_and_draws_no_randomness(self):
        engine = AsyncRunner()
        actor = _Recorder(4, engine)
        engine.add_actor(actor)
        state = engine._delay_rng.getstate()
        engine.wake(4)
        engine.wake(4)             # deduplicated with the pending TIMEOUT
        engine.request_timeout(4)  # ... and with the actor's own request
        assert engine._delay_rng.getstate() == state
        engine.run_for(10.0)
        assert actor.timeouts == 1

    def test_net_wake_ships_a_wake_action_for_remote_actors(self):
        shipped = []
        runtime = NetRuntime(
            send_remote=lambda dest, action, payload: shipped.append(
                (dest, action, payload)
            )
        )
        runtime._forwards[5] = 99
        runtime.wake(99)
        runtime.wake(5)  # forwarded id resolves before shipping
        assert shipped == [(99, A_WAKE, ()), (99, A_WAKE, ())]
        runtime.close()
        runtime.wake(99)  # closed: dropped, not shipped
        assert len(shipped) == 2

    def test_net_wake_drives_local_timeout_with_the_sweep_disabled(self):
        import asyncio

        runtime = NetRuntime(
            send_remote=lambda dest, action, payload: None,
            timeout_lag=0.001,
        )

        async def scenario():
            runtime.start(asyncio.get_running_loop())
            local = _Recorder(3, runtime)
            runtime.add_actor(local)
            runtime.wake(3)
            runtime.wake(3)  # deduplicated while pending
            await asyncio.sleep(0.03)
            assert local.timeouts == 1
            runtime.close()

        asyncio.run(scenario())


def test_net_runtime_forwarding_addresses():
    runtime = _net_runtime()
    runtime._forwards[5] = 8
    runtime._forwards[8] = 11
    assert runtime.resolve(5) == 11
    assert runtime.resolve(4) == 4


class TestRecordTable:
    def test_local_records_resolve_and_complete(self):
        completions = []
        table = RecordTable(
            0, 2, notify_origin=lambda req, fields: completions.append(req)
        )
        rec = NetOpRecord(4, 0, 0, 0, "item", 0.0)
        done = []
        rec.on_completed = lambda r: done.append(r.req_id)
        table.add_local(rec)
        assert table[4] is rec
        rec.completed = True
        rec.completed = True  # idempotent: callback fires once
        assert done == [4]
        assert not completions

    def test_remote_ids_get_forwarding_stubs(self):
        completions = []
        table = RecordTable(
            0,
            2,
            notify_origin=lambda req, fields: completions.append((req, fields)),
        )
        stub = table[7]  # 7 % 2 == 1: owned by host 1
        assert table[7] is stub  # cached
        stub.completed = True
        stub.completed = True
        assert completions == [(7, {"done": True})]

    def test_stub_forwards_learned_fields_with_completion(self):
        completions = []
        table = RecordTable(
            0,
            2,
            notify_origin=lambda req, fields: completions.append((req, fields)),
        )
        stub = table[9]
        stub.result = (9, "payload")
        stub.completed = True
        assert completions == [(9, {"done": True, "result": (9, "payload")})]

    def test_adopt_wire_copy_forwards_value_and_completion(self):
        """An adopted record proxies every learned fact to the origin."""
        from repro.core.requests import OpRecord

        syncs = []
        table = RecordTable(
            0, 2, notify_origin=lambda req, fields: syncs.append((req, fields))
        )
        donor = OpRecord(5, 3, 1, 0, "x", 0.25)  # 5 % 2 == 1: remote origin
        adopted = table.adopt(donor)
        assert adopted is not donor
        assert table.adopt(donor) is adopted  # memoised
        assert table[5] is adopted  # GET replies find the same object
        adopted.value = 42  # stage 3 assigns the witness rank
        adopted.result = (5, "x")
        adopted.completed = True
        assert syncs == [
            (5, {"value": 42}),
            (5, {"done": True, "value": 42, "result": (5, "x")}),
        ]

    def test_adopt_local_origin_returns_the_canonical_record(self):
        table = RecordTable(0, 2, notify_origin=lambda req, fields: None)
        rec = NetOpRecord(6, 0, 0, 0, None, 0.0)
        table.add_local(rec)
        assert table.adopt(rec) is rec

    def test_foreign_req_id_rejected_and_unknown_local_raises(self):
        table = RecordTable(0, 2, notify_origin=lambda req, fields: None)
        with pytest.raises(ValueError):
            table.add_local(NetOpRecord(3, 1, 0, 0, None, 0.0))  # 3 % 2 != 0
        with pytest.raises(KeyError):
            table[2]  # local residue but never submitted
