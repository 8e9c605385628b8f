"""Host-side wire rules that need no sockets: `complete` sync frames and
the `HostConfig` JSON round trips (launcher -> host, coordinator ->
joining host)."""

from __future__ import annotations

import dataclasses

from repro.net.server import HostConfig, NodeHost


class TestCompleteFrames:
    def test_frame_without_done_does_not_mark_done(self):
        assert NodeHost._complete_fields({"op": "complete", "req": 7}) == {}

    def test_done_and_value_survive_the_round_trip(self):
        for fields in ({"done": True}, {"value": 3}):
            frame = NodeHost._complete_frame(7, fields)
            assert frame["req"] == 7
            assert NodeHost._complete_fields(frame) == fields


class TestHostConfigJson:
    def _config(self) -> HostConfig:
        return HostConfig(
            host_index=1, n_hosts=3, n_processes=9, seed=4, port=4711,
            structure="heap", id_slots=16, n_priorities=3, owned=[1, 4],
            ops_port=8080, codec="json", coalesce=False, trace_sample=0.1,
            trace_slow_ms=5.0, epoch=12.5,
        )

    def test_round_trip(self):
        config = self._config()
        assert HostConfig.from_json(config.to_json()) == config

    def test_join_config_rebuilds_every_shared_field(self):
        coordinator = self._config()
        joiner = HostConfig(
            host_index=5, bind_host="10.0.0.2", port=0, owned=[9, 10],
            ops_port=0, **coordinator.shared_json(),
        )
        per_host = {"host_index", "bind_host", "port", "owned", "ops_port"}
        for field in dataclasses.fields(HostConfig):
            if field.name not in per_host:
                assert getattr(joiner, field.name) == getattr(
                    coordinator, field.name
                ), field.name
        assert joiner.salt == coordinator.salt == "skueue-4"
