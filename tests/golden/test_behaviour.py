"""Golden outputs of the socket edge: fuzz, relay, migration, resync.

``behaviour.json`` pins, flattened to ``section/label[/key...]`` keys:

* ``fuzz`` — the three seed summary lines ``make fuzz`` prints (seeds
  1, 2 and 3 at 500 mutated inputs each) and its crash-corpus replay;
* ``cluster-smoke`` — every line ``make cluster-smoke`` prints (two
  shards, eight sessions, one live migration), the relay's and the
  coordinator's counters one key each;
* ``demo --shards 2`` — every line of ``python -m repro demo --shards
  2``, two editor sessions per shard behind the relay;
* ``resilience`` — the plane's, the resilient client's and the
  receiver's counters, plus hashes of both framebuffers, after three
  seeded chaos runs, a detach-window expiry and a journal overflow,
  and then after one live migration between two shards.

Every line comes from the simulated clock and seeded generators, so a
refactor of the dial prelude, the relay, the resilience plane or a
session's write path must pass this file unchanged.  A deliberate
change regenerates it (``PYTHONPATH=src:. python
tests/golden/test_behaviour.py``) and says so in its change note.
"""

import ast
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from repro import cli
from repro.cluster import smoke
from repro.core import Budget
from repro.core.resilience import ResilienceConfig
from repro.fuzz import __main__ as fuzz_cli
from repro.net.faults import FaultPlan, Partition
from tests.core.test_resilience import chaos_run
from tests.helpers import make_shard_rig

GOLDEN = Path(__file__).with_name("behaviour.json")
CORPUS = Path(__file__).parents[1] / "fuzz" / "corpus"


def _flat(prefix, value, out):
    """Flatten nested dicts into ``prefix/key`` entries of *out*."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flat(f"{prefix}/{key}", item, out)
    else:
        out[prefix] = value
    return out


def _printed(section, main, argv):
    """Run a command-line entry point in-process: each ``label: value``
    line it prints is one key, a dict value one key per entry."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    out = {}
    for line in text.getvalue().splitlines():
        label, _, value = line.partition(":")
        value = value.strip()
        if value.startswith("{"):
            value = ast.literal_eval(value)
        _flat(f"{section}/{label.strip()}", value, out)
    return out


def fuzz(crash_dir):
    return _printed("fuzz", fuzz_cli.main, [
        "--seeds", "1", "2", "3", "--frames", "500",
        "--crash-dir", str(crash_dir), "--replay", str(CORPUS)])


def cluster_smoke():
    return _printed("cluster-smoke", smoke.main, [
        "--shards", "2", "--sessions", "8", "--migrations", "1"])


def demo_shards():
    return _printed("demo --shards 2", cli.main, ["demo", "--shards", "2"])


def resilience():
    def fb(framebuffer):
        return hashlib.sha256(framebuffer.data.tobytes()).hexdigest()[:16]

    runs = [(f"chaos {s}", FaultPlan.random(s, horizon=1.2),
             dict(workload_seed=s)) for s in (11, 23, 47)]
    runs += [("window", FaultPlan([Partition(0.4, 1.5)], seed=3),
              dict(config=ResilienceConfig(
                  heartbeat_interval=0.1, liveness_timeout=0.35,
                  check_interval=0.05, backoff_base=0.05,
                  detach_window=0.3))),
             ("overflow", FaultPlan([Partition(0.4, 1.5)], seed=3),
              dict(budget=Budget(max_journal_bytes=600)))]
    out = {}
    for label, plan, kw in runs:
        loop, dial, server, ws, rc = chaos_run(plan, **kw)
        out[label] = {"plane": server.resilience.stats, "client": rc.stats,
                      "receiver": rc.client.stats,
                      "client fb": fb(rc.client.fb),
                      "screen fb": fb(ws.screen.fb)}
    loop, coord, screens, rcs = make_shard_rig(shards=2, clients=2)
    loop.run_until(1.0)
    source = coord.route_token(rcs[0].token)
    coord.migrate(rcs[0].token, (source + 1) % 2)
    loop.run_until(12.0)
    migration = {f"shard {i}": server.resilience.stats
                 for i, server in enumerate(coord.shards)}
    for i, rc in enumerate(rcs):
        migration[f"client {i}"] = {"token": rc.token, "client": rc.stats,
                                    "receiver": rc.client.stats,
                                    "client fb": fb(rc.client.fb)}
    migration["coordinator"] = {k: v for k, v in coord.stats().items()
                                if k != "per_shard"}
    out["migration"] = migration
    # Through JSON, as the golden was, so tuples compare as lists.
    return json.loads(json.dumps(_flat("resilience", out, {})))


def _assert_golden(current):
    section = next(iter(current)).split("/")[0]
    golden = {key: value for key, value in
              json.loads(GOLDEN.read_text()).items()
              if key.split("/")[0] == section}
    moved = {key: (golden.get(key), current.get(key))
             for key in {**golden, **current}
             if golden.get(key) != current.get(key)}
    assert not moved, "moved (golden, now): " + "".join(
        f"\n  {key}: {moved[key]}" for key in sorted(moved))


def test_fuzz_summaries_and_corpus_replay(tmp_path):
    _assert_golden(fuzz(tmp_path))


def test_cluster_smoke():
    _assert_golden(cluster_smoke())


def test_demo_behind_the_relay():
    _assert_golden(demo_shards())


def test_resilience_and_migration():
    _assert_golden(resilience())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as crash_dir:
        current = {**fuzz(crash_dir), **cluster_smoke(), **demo_shards(),
                   **resilience()}
    GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
