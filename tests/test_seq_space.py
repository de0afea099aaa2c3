"""Sequence numbers and message ids never wrap: a flow resets cleanly
before either would pass its 32-bit header field."""

import pytest

from conftest import PollApp, connect_established, make_pair

from sidenet.channel import ESTABLISHED, RESET

MESSAGE = 5000  # four fragments
U32 = 2**32


def _flow_pair(client, server, handle):
    """The client flow of `handle` and its server peer (one engine each)."""
    tx = client.engines[0].flows[handle.key]
    rx = server.engines[0].flows[("10.0.0.1", handle.local_port, 80)]
    return tx, rx


@pytest.mark.parametrize("field,start", [("seq", U32 - 10),
                                         ("msg_id", U32 - 2)])
def test_flow_resets_before_its_seq_or_msg_id_passes_32_bits(field, start):
    """From a start where two 4-fragment messages still fit (seqs up to
    2**32 - 3, or message ids up to 2**32 - 1), the third message resets the
    flow with a reason instead of raising out of the run; a second flow on
    the same engine keeps delivering."""
    sim, client, server, cch, sch = make_pair(seed=4)
    doomed = connect_established(sim, client, cch)
    other = connect_established(sim, client, cch)
    sim.run_for(2000)
    tx, rx = _flow_pair(client, server, doomed)
    if field == "seq":
        tx.next_tx_seq = tx.snd_nxt = tx.acked_upto = rx.rx_next = start
    else:
        tx.next_msg_id = rx.rx_msg_id = start
    got = []
    sim.add_app(PollApp(lambda _: got.append(sch.recv()) if sch.rx_pending()
                        else 0))
    sent = [bytes([i]) * MESSAGE for i in range(3)]
    for payload in sent[:2]:
        client.send(cch, doomed, payload)
        sim.run_for(5000)
    assert [m.payload for m in got] == sent[:2]
    assert doomed.state == ESTABLISHED
    client.send(cch, doomed, sent[2])
    sim.run_for(5000)
    assert doomed.state == RESET
    assert "sequence space exhausted" in doomed.error
    assert doomed.key not in client.engines[0].flows
    assert len(got) == 2
    client.send(cch, other, b"still here")
    sim.run_for(5000)
    assert [m.payload for m in got[2:]] == [b"still here"]
    assert got[2].flow.remote_port == other.local_port
