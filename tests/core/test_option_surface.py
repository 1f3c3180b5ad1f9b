"""Tripwire: the public option surface, pinned.

Every knob here is something a caller can set and a reader must
understand.  A PR that adds (or removes) one has to edit this file, so
the change shows up in a test diff and gets argued for — the ROADMAP's
"a PR that adds a concept must delete one" made mechanical.
"""

import inspect
from dataclasses import fields

from repro.core import Budget, ServerBudget, THINCServer
from repro.core.pipeline import PreparePlane
from repro.core.qos import QosConfig
from repro.core.resilience import ResilienceConfig
from repro.net import EventLoop


def test_server_constructor_parameters():
    # The ablation switches are held by the repro.bench.claims rows that
    # need them: compress_raw by ablation.compression-*,
    # offscreen_awareness by ablation.offscreen-*, scheduler_factory by
    # ablation.srsf-*.
    params = list(inspect.signature(THINCServer.__init__).parameters)
    assert params == [
        "self", "loop", "width", "height", "compress_raw",
        "offscreen_awareness", "scheduler_factory", "encrypt_key",
        "resilience", "budget", "server_budget", "adaptive_encoding",
        "qos"]
    # No class-level tunables hiding beside the constructor.
    assert [name for name, value in vars(THINCServer).items()
            if not name.startswith("_")
            and isinstance(value, (int, float))] == []


def test_qos_config_fields():
    assert [f.name for f in fields(QosConfig)] == [
        "degrade_polls", "recover_polls", "recover_jitter",
        "fps_divisor", "scale_shift", "qstep", "seed"]


def test_resilience_config_fields():
    assert [f.name for f in fields(ResilienceConfig)] == [
        "heartbeat_interval", "liveness_timeout", "check_interval",
        "detach_window", "backoff_base", "backoff_jitter", "seed",
        "token_start", "token_stride"]


def test_budget_fields():
    assert [f.name for f in fields(Budget)] == [
        "degrade_queue_bytes", "max_queue_bytes", "evict_queue_bytes",
        "coalesce_cooldown", "max_audio_backlog_bytes",
        "max_control_backlog_bytes", "max_journal_bytes",
        "uplink_msgs_per_sec", "uplink_burst", "max_uplink_dropped",
        "max_uplink_errors"]


def test_server_budget_fields():
    assert [f.name for f in fields(ServerBudget)] == [
        "max_sessions", "max_total_queue_bytes", "retry_after"]


def test_prepare_plane_settable_hooks():
    # The server wires policy, posture probe and read-back the same way
    # every time; only the cluster's shared cache is wired afterwards.
    plane = THINCServer(EventLoop(), 8, 8, adaptive_encoding=True).plane
    assert list(inspect.signature(PreparePlane.__init__).parameters) == [
        "self", "loop", "cost_model", "policy", "posture_of", "read_back",
        "cache_entries"]
    assert [name for name, value in vars(plane).items()
            if value is None and not name.startswith("_")] == [
        "shared_cache"]
