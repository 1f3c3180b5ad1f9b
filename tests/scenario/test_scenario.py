"""The Scenario itself: it serialises, replays identically, and the
``replay`` subcommand tells a clean bundle from a violating one."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.scenario import ClientSpec, Op, Scenario
from repro.core.governor import Budget, ServerBudget
from repro.net import LAN_DESKTOP, WAN_DESKTOP
from repro.net.faults import Corruption, Disconnect, LossBurst, Partition, Stall

from .machine import CLIP, QOS
from .test_regressions import ROWS

times = st.floats(0, 10, allow_nan=False)
events = st.one_of(
    st.builds(LossBurst, times, times, drop_rate=st.floats(0.1, 1.0)),
    st.builds(Stall, times, times, st.sampled_from(("down", "up", "both"))),
    st.builds(Partition, times, times), st.builds(Disconnect, times),
    st.builds(Corruption, times, times, flips=st.integers(1, 4)))
specs = st.builds(
    ClientSpec, st.sampled_from((LAN_DESKTOP, WAN_DESKTOP)),
    st.none() | st.tuples(st.integers(1, 200), st.integers(1, 200)),
    st.booleans(), st.lists(events, max_size=3).map(tuple),
    st.integers(0, 99), st.none() | st.integers(1, 1 << 16))
ops = st.one_of(
    st.builds(Op, times, st.just("hostile"), args=st.tuples(
        st.binary(max_size=40), st.booleans())),
    st.builds(Op, times, st.just("attach"), args=st.tuples(specs)),
    st.builds(Op, times, st.just("fault"), st.integers(0, 4),
              st.tuples(events)),
    st.builds(Op, times, st.sampled_from(("resize", "zoom", "migrate")),
              st.integers(0, 4), st.lists(st.integers(0, 99)).map(tuple)),
    st.builds(Op, times, st.just("play"), args=st.just(CLIP)))
scenarios = st.builds(
    Scenario, st.integers(32, 200), st.integers(32, 200), st.integers(0, 3),
    st.fixed_dictionaries({}, optional={
        "qos": st.just(QOS), "encrypt_key": st.binary(min_size=1, max_size=8),
        "budget": st.builds(Budget, st.integers(1, 1 << 20)),
        "server_budget": st.builds(ServerBudget, st.integers(1, 64)),
        "adaptive_encoding": st.booleans()}),
    st.lists(specs, max_size=3).map(tuple),
    st.sampled_from(((), ("scripted", {"end": 0.5, "seed": 3}), CLIP)),
    st.lists(ops, max_size=4).map(tuple), st.floats(0, 30))


@given(scenarios)
@settings(max_examples=60)
def test_json_round_trip_is_the_identity(scenario):
    assert Scenario.from_json(scenario.to_json()) == scenario


def test_replaying_a_bundle_twice_is_byte_identical():
    bundle = ROWS["migration-x-fan-out-x-chaos"][0].to_json()
    outcomes = []
    for _ in range(2):
        run = Scenario.from_json(bundle).build()
        run.quiesce()
        outcomes.append((run.check(), [
            run.viewer(i).fb.data.tobytes() for i in range(len(run.clients))]))
    assert outcomes[0] == outcomes[1]


def test_replay_subcommand_exits_by_the_verdict(tmp_path, capsys):
    clean = tmp_path / "clean.json"
    clean.write_text(ROWS["video-under-a-wall-tile"][0].to_json())
    assert main(["replay", str(clean)]) == 0
    assert "clients on 1 servers hold" in capsys.readouterr().out
    # A plain client has no way back from a dead socket: its session
    # keeps its backlog for ever.
    wedged = tmp_path / "wedged.json"
    wedged.write_text(Scenario(clients=(ClientSpec(),), ops=(
        Op(0.1, "disconnect"), Op(0.2, "draw", args=(3,)))).to_json())
    assert main(["replay", str(wedged)]) == 1
    assert "liveness: client 0" in capsys.readouterr().err
