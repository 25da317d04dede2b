"""Property tests: fused-batch FEC is byte-identical to per-group coding.

The batch pump feeds the FEC layer through :meth:`FecGroupEncoder.add_batch`
and :meth:`FecGroupDecoder.add_batch`, which fuse same-shaped groups into a
single GF(256) backend product (``add`` is a batch of one).  The fusing is an
optimisation only: over random group geometries (k, n, payload sizes, batch
split points, loss patterns, arrival order) the batched calls must produce
byte-for-byte the packets/payloads of an independent per-group oracle built
from :meth:`BlockErasureCode.encode` / :meth:`BlockErasureCode.decode` — and
the same stats as one call per packet.
"""

from hypothesis import given, settings, strategies as st

from repro.fec import (
    FLAG_PARITY,
    FLAG_UNCODED,
    BlockErasureCode,
    FecGroupDecoder,
    FecGroupEncoder,
    FecPacket,
    pad_block,
    unpad_block,
)

# Random group geometry: small codes keep hypothesis fast while still
# exercising k == n (no parity), single-payload groups, and ragged sizes.
CODES = st.tuples(st.integers(min_value=1, max_value=5),
                  st.integers(min_value=0, max_value=3)).map(
                      lambda kn: (kn[0], kn[0] + kn[1]))
PAYLOADS = st.lists(st.binary(min_size=1, max_size=120),
                    min_size=1, max_size=24)


def packet_key(packet):
    return (packet.group_id, packet.index, packet.k, packet.n,
            bytes(packet.payload), packet.flags)


def oracle_encode(payloads, k, n):
    """Reference encode, one group at a time: every full group of ``k``
    payloads is padded to its own block size and encoded alone; a trailing
    partial group goes out uncoded."""
    code = BlockErasureCode(k, n)
    packets = []
    full = len(payloads) - len(payloads) % k
    for group_id, start in enumerate(range(0, full, k)):
        group = payloads[start:start + k]
        block_size = max(len(p) for p in group) + 2
        blocks = code.encode([pad_block(p, block_size) for p in group])
        packets.extend(
            FecPacket(group_id=group_id, index=index, k=k, n=n, payload=block,
                      flags=FLAG_PARITY if index >= k else 0)
            for index, block in enumerate(blocks))
    packets.extend(
        FecPacket(group_id=full // k, index=index, k=k, n=n, payload=payload,
                  flags=FLAG_UNCODED)
        for index, payload in enumerate(payloads[full:]))
    return packets


def oracle_decode(packets):
    """Reference decode, one group at a time, in arrival order: a group is
    decoded alone the moment any k of its packets are in, later packets of
    it are dropped, uncoded packets pass straight through, and the flush
    surrenders the data packets of groups that never became decodable."""
    out, received, delivered = [], {}, set()
    for packet in packets:
        if packet.is_uncoded:
            out.append(packet.payload)
            continue
        if packet.group_id in delivered:
            continue
        group = received.setdefault(packet.group_id, {})
        group.setdefault(packet.index, packet.payload)
        if len(group) == packet.k:
            code = BlockErasureCode(packet.k, packet.n)
            out.extend(unpad_block(block) for block in code.decode(group))
            delivered.add(packet.group_id)
            del received[packet.group_id]
    for group_id in sorted(received):
        group = received[group_id]
        k = next(p.k for p in packets if p.group_id == group_id)
        out.extend(unpad_block(group[i]) for i in sorted(group) if i < k)
    return out


def encode_all(payloads, k, n):
    """One ``add`` per payload, then flush: the per-unit stats reference."""
    encoder = FecGroupEncoder(k=k, n=n)
    packets = []
    for payload in payloads:
        packets.extend(encoder.add(payload))
    packets.extend(encoder.flush())
    return packets, encoder.stats


class TestEncoderBatchEquivalence:
    @given(CODES, PAYLOADS)
    @settings(deadline=None, max_examples=60)
    def test_add_batch_matches_per_payload_add(self, code, payloads):
        k, n = code
        expected = oracle_encode(payloads, k, n)
        per_unit, expected_stats = encode_all(payloads, k, n)
        assert [packet_key(p) for p in per_unit] == \
            [packet_key(p) for p in expected]
        batched = FecGroupEncoder(k=k, n=n)
        packets = batched.add_batch(payloads)
        packets.extend(batched.flush())
        assert [packet_key(p) for p in packets] == \
            [packet_key(p) for p in expected]
        assert batched.stats == expected_stats

    @given(CODES, PAYLOADS, st.integers(min_value=1, max_value=7))
    @settings(deadline=None, max_examples=60)
    def test_batch_split_points_do_not_change_the_bytes(self, code, payloads,
                                                        step):
        # Feeding the same payloads as several smaller batches (arbitrary
        # split points, including splits inside a group) is equivalent to
        # one big batch: the encoder's pending state carries across calls.
        k, n = code
        expected = oracle_encode(payloads, k, n)
        _, expected_stats = encode_all(payloads, k, n)
        batched = FecGroupEncoder(k=k, n=n)
        packets = []
        for start in range(0, len(payloads), step):
            packets.extend(batched.add_batch(payloads[start:start + step]))
        packets.extend(batched.flush())
        assert [packet_key(p) for p in packets] == \
            [packet_key(p) for p in expected]
        assert batched.stats == expected_stats

    @given(CODES, st.lists(st.binary(min_size=1, max_size=200),
                           min_size=2, max_size=20))
    @settings(deadline=None, max_examples=40)
    def test_fused_cohorts_span_mixed_block_sizes(self, code, payloads):
        # Groups with different block sizes land in different hstack
        # cohorts; interleaving ragged payloads must not bleed bytes
        # between cohorts.
        k, n = code
        ragged = [p * (1 + i % 3) for i, p in enumerate(payloads)]
        expected = oracle_encode(ragged, k, n)
        batched = FecGroupEncoder(k=k, n=n)
        packets = batched.add_batch(ragged)
        packets.extend(batched.flush())
        assert [packet_key(p) for p in packets] == \
            [packet_key(p) for p in expected]


class TestDecoderBatchEquivalence:
    @given(CODES, PAYLOADS, st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=60)
    def test_add_batch_matches_per_packet_add_under_loss(self, code, payloads,
                                                         rng):
        k, n = code
        packets = oracle_encode(payloads, k, n)
        # Random loss and reordering: any subset, any arrival order.  The
        # decoders and the oracle see the identical packet sequence.
        survivors = [p for p in packets if rng.random() > 0.3]
        rng.shuffle(survivors)
        expected = oracle_decode(survivors)

        sequential = FecGroupDecoder()
        per_unit = []
        for packet in survivors:
            per_unit.extend(sequential.add(packet))
        per_unit.extend(sequential.flush())
        assert [bytes(p) for p in per_unit] == [bytes(p) for p in expected]

        batched = FecGroupDecoder()
        out = batched.add_batch(survivors)
        out.extend(batched.flush())

        assert [bytes(p) for p in out] == [bytes(p) for p in expected]
        assert batched.stats == sequential.stats

    @given(CODES, PAYLOADS, st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=60)
    def test_round_trip_recovers_everything_with_k_survivors(self, code,
                                                             payloads, rng):
        # Drop up to n-k packets per group (keeping >= k), deliver in
        # order: the batch decoder reconstructs every payload, in order.
        k, n = code
        encoder = FecGroupEncoder(k=k, n=n)
        packets = encoder.add_batch(payloads)
        packets.extend(encoder.flush())

        by_group = {}
        for packet in packets:
            by_group.setdefault(packet.group_id, []).append(packet)
        survivors = []
        for group in by_group.values():
            if any(p.is_uncoded for p in group):
                survivors.extend(group)  # tail flush: nothing to drop
                continue
            keep = sorted(rng.sample(range(n), k))
            survivors.extend(p for p in group if p.index in keep)

        decoder = FecGroupDecoder()
        out = decoder.add_batch(survivors)
        out.extend(decoder.flush())
        assert [bytes(p) for p in out] == [bytes(p) for p in payloads]
        assert decoder.stats.groups_unrecoverable == 0

    @given(CODES, PAYLOADS, st.integers(min_value=1, max_value=7),
           st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=40)
    def test_batch_split_points_do_not_change_decoding(self, code, payloads,
                                                       step, rng):
        # Same survivor sequence, chopped into arbitrary sub-batches:
        # group state carries across add_batch calls exactly as it does
        # across add calls (a group may fill in a later batch).
        k, n = code
        packets = oracle_encode(payloads, k, n)
        survivors = [p for p in packets if rng.random() > 0.3]
        rng.shuffle(survivors)

        one_shot = FecGroupDecoder()
        expected = one_shot.add_batch(survivors)
        expected.extend(one_shot.flush())
        assert [bytes(p) for p in expected] == \
            [bytes(p) for p in oracle_decode(survivors)]

        chunked = FecGroupDecoder()
        out = []
        for start in range(0, len(survivors), step):
            out.extend(chunked.add_batch(survivors[start:start + step]))
        out.extend(chunked.flush())

        assert [bytes(p) for p in out] == [bytes(p) for p in expected]
        assert chunked.stats == one_shot.stats


class TestFilterLevelEquivalence:
    @given(CODES, PAYLOADS)
    @settings(deadline=None, max_examples=20)
    def test_encoder_filter_batch_pump_matches_group_encoder(self, code,
                                                             payloads):
        # End to end through the packet filter's fused transform: framed
        # payloads in, the same framed FEC packets out as the plain group
        # encoder produces.
        from repro.core import CollectorSink, ControlThread, IterableSource
        from repro.filters import FecDecoderFilter, FecEncoderFilter

        k, n = code
        source = IterableSource(list(payloads), frame_output=True)
        sink = CollectorSink(expect_frames=True)
        control = ControlThread(source, sink, auto_start=False)
        control.add(FecEncoderFilter(k=k, n=n, name="enc"))
        control.add(FecDecoderFilter(name="dec"))
        control.start()
        assert control.wait_for_completion(timeout=30.0)
        assert [bytes(i) for i in sink.items()] == \
            [bytes(p) for p in payloads]
        control.shutdown()
