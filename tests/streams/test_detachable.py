"""Unit tests for detachable streams: connect, pause, reconnect, close."""

import threading
import time

import pytest

from repro.streams import (
    AlreadyConnectedError,
    DetachableInputStream,
    DetachableOutputStream,
    NotConnectedError,
    StreamClosedError,
    StreamTimeoutError,
    make_pipe,
)


class TestConnect:
    def test_connect_sets_both_sides(self):
        dos = DetachableOutputStream()
        dis = DetachableInputStream()
        dos.connect(dis)
        assert dos.connected and dis.connected
        assert dos.sink is dis
        assert dis.source is dos

    def test_connect_via_dis_delegates_to_dos(self):
        dos = DetachableOutputStream()
        dis = DetachableInputStream()
        dis.connect(dos)
        assert dos.sink is dis
        assert dis.source is dos

    def test_double_connect_raises(self):
        dos, dis = make_pipe()
        other = DetachableInputStream()
        with pytest.raises(AlreadyConnectedError):
            dos.connect(other)

    def test_connect_to_connected_dis_raises(self):
        _dos, dis = make_pipe()
        other = DetachableOutputStream()
        with pytest.raises(AlreadyConnectedError):
            other.connect(dis)

    def test_connect_none_raises(self):
        dos = DetachableOutputStream()
        with pytest.raises(ValueError):
            dos.connect(None)

    def test_make_pipe_returns_connected_pair(self):
        dos, dis = make_pipe("test")
        dos.write(b"abc")
        assert dis.read(3) == b"abc"


class TestWriteRead:
    def test_write_delivers_to_dis_buffer(self):
        dos, dis = make_pipe()
        dos.write(b"hello")
        assert dis.available() == 5
        assert dis.read(5) == b"hello"

    def test_write_returns_byte_count(self):
        dos, dis = make_pipe()
        assert dos.write(b"12345") == 5
        assert dos.write(b"") == 0

    def test_bytes_written_accumulates(self):
        dos, dis = make_pipe()
        dos.write(b"abc")
        dos.write(b"de")
        assert dos.bytes_written == 5
        assert dis.bytes_received == 5

    def test_receive_directly_into_dis(self):
        dis = DetachableInputStream()
        dis.receive(b"direct")
        assert dis.read(6) == b"direct"

    def test_read_blocks_until_data(self):
        dos, dis = make_pipe()
        result = []

        def reader():
            result.append(dis.read(10, timeout=2.0))

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        dos.write(b"late")
        thread.join(timeout=2.0)
        assert result == [b"late"]

    def test_read_times_out_without_data(self):
        _dos, dis = make_pipe()
        with pytest.raises(StreamTimeoutError):
            dis.read(10, timeout=0.05)

    def test_write_on_unconnected_dos_times_out(self):
        dos = DetachableOutputStream(reconnect_wait=0.05)
        with pytest.raises(NotConnectedError):
            dos.write(b"nowhere")

    def test_flush_is_safe_noop(self):
        dos, dis = make_pipe()
        dos.write(b"x")
        dos.flush()
        assert dis.read(1) == b"x"


class TestPauseReconnect:
    def test_pause_marks_both_sides_switching(self):
        dos, dis = make_pipe()
        dos.pause()
        assert not dos.connected and not dis.connected
        assert dos.switching and dis.switching

    def test_pause_waits_for_buffer_to_drain(self):
        dos, dis = make_pipe()
        dos.write(b"pending")
        paused = threading.Event()

        def pauser():
            dos.pause(drain_timeout=2.0)
            paused.set()

        thread = threading.Thread(target=pauser)
        thread.start()
        time.sleep(0.05)
        assert not paused.is_set(), "pause must not complete while data is buffered"
        assert dis.read(7) == b"pending"
        assert paused.wait(timeout=2.0)
        thread.join(timeout=2.0)

    def test_pause_times_out_if_never_drained(self):
        dos, dis = make_pipe()
        dos.write(b"stuck")
        with pytest.raises(StreamTimeoutError):
            dos.pause(drain_timeout=0.05)
        # The connection is restored so the caller can retry.
        assert dos.connected

    def test_pause_on_dis_delegates_to_dos(self):
        dos, dis = make_pipe()
        dis.pause()
        assert dos.switching and dis.switching

    def test_pause_idempotent(self):
        dos, dis = make_pipe()
        dos.pause()
        dos.pause()
        assert dos.switching

    def test_reconnect_to_new_partner(self):
        dos, dis = make_pipe()
        new_dis = DetachableInputStream()
        dos.pause()
        dos.reconnect(new_dis)
        dos.write(b"rerouted")
        assert new_dis.read(8) == b"rerouted"
        assert dis.available() == 0

    def test_reconnect_while_connected_raises(self):
        dos, _dis = make_pipe()
        other = DetachableInputStream()
        with pytest.raises(AlreadyConnectedError):
            dos.reconnect(other)

    def test_reconnect_to_connected_dis_raises(self):
        dos, dis = make_pipe()
        dos.pause()
        _dos2, dis2 = make_pipe()
        with pytest.raises(AlreadyConnectedError):
            dos.reconnect(dis2)

    def test_reconnect_clears_switch_flags(self):
        dos, dis = make_pipe()
        dos.pause()
        dos.reconnect(dis)
        assert not dos.switching and not dis.switching
        assert dos.connected and dis.connected

    def test_write_blocks_across_pause_and_resumes_after_reconnect(self):
        dos, dis = make_pipe()
        dos.pause()
        delivered = []

        def writer():
            dos.write(b"delayed", timeout=2.0)
            delivered.append(True)

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)
        assert not delivered, "write must block while the stream is paused"
        dos.reconnect(dis)
        thread.join(timeout=2.0)
        assert delivered == [True]
        assert dis.read(7) == b"delayed"

    def test_reader_blocked_across_pause_gets_data_from_new_source(self):
        dos, dis = make_pipe()
        result = []

        def reader():
            result.append(dis.read(10, timeout=2.0))

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        dos.pause()
        new_dos = DetachableOutputStream()
        new_dos.reconnect(dis)
        new_dos.write(b"fresh")
        thread.join(timeout=2.0)
        assert result == [b"fresh"]

    def test_splice_preserves_all_bytes(self):
        """Simulate the ControlThread splice: A->C becomes A->B->C."""
        a_dos, c_dis = make_pipe("ac")
        a_dos.write(b"first|")
        assert c_dis.read(6) == b"first|"
        a_dos.pause()

        b_dis = DetachableInputStream("b.in")
        b_dos = DetachableOutputStream("b.out")
        a_dos.reconnect(b_dis)
        b_dos.reconnect(c_dis)

        a_dos.write(b"second")
        assert b_dis.read(6) == b"second"
        b_dos.write(b"SECOND")
        assert c_dis.read(6) == b"SECOND"


class TestClose:
    def test_close_propagates_eof_to_reader(self):
        dos, dis = make_pipe()
        dos.write(b"tail")
        dos.close()
        assert dis.read(10) == b"tail"
        assert dis.read(10) == b""
        assert dis.at_eof()

    def test_write_after_close_raises(self):
        dos, _dis = make_pipe()
        dos.close()
        with pytest.raises(StreamClosedError):
            dos.write(b"nope")

    def test_close_is_idempotent(self):
        dos, _dis = make_pipe()
        dos.close()
        dos.close()
        assert dos.closed

    def test_dis_close_discards_buffer(self):
        dos, dis = make_pipe()
        dos.write(b"junk")
        dis.close()
        assert dis.read(10) == b""
        assert dis.closed

    def test_try_close_waits_out_a_pause(self):
        dos, first = make_pipe()
        dos.pause()
        assert dos.try_close() is False  # switching: nothing closed
        assert not dos.closed and not first.at_eof()
        second = DetachableInputStream()
        dos.reconnect(second)
        assert dos.try_close() is True
        assert dos.closed and second.at_eof()
        assert not first.at_eof()

    def test_pause_after_close_raises(self):
        dos, _dis = make_pipe()
        dos.close()
        with pytest.raises(StreamClosedError):
            dos.pause()

    def test_eof_wakes_blocked_reader(self):
        dos, dis = make_pipe()
        result = []

        def reader():
            result.append(dis.read(10, timeout=2.0))

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        dos.close()
        thread.join(timeout=2.0)
        assert result == [b""]


class TestConcurrentTransfer:
    def test_large_transfer_with_concurrent_reader(self):
        dos, dis = make_pipe(capacity=4096)
        payload = bytes(range(256)) * 512  # 128 KiB
        received = bytearray()

        def reader():
            while True:
                chunk = dis.read(8192, timeout=5.0)
                if not chunk:
                    return
                received.extend(chunk)

        thread = threading.Thread(target=reader)
        thread.start()
        for offset in range(0, len(payload), 4096):
            dos.write(payload[offset:offset + 4096], timeout=5.0)
        dos.close()
        thread.join(timeout=5.0)
        assert bytes(received) == payload

    def test_pause_reconnect_mid_transfer_loses_nothing(self):
        dos, dis = make_pipe(capacity=1024)
        total_chunks = 200
        received = bytearray()
        stop_reading = threading.Event()

        def reader():
            while not stop_reading.is_set() or dis.available():
                try:
                    chunk = dis.read(4096, timeout=0.05)
                except StreamTimeoutError:
                    continue
                if not chunk:
                    break
                received.extend(chunk)

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()

        def writer():
            for i in range(total_chunks):
                dos.write(f"chunk-{i:04d};".encode(), timeout=5.0)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()

        # Pause and immediately reconnect to the same DIS a few times while
        # the transfer is running: no bytes may be lost or duplicated.
        for _ in range(5):
            time.sleep(0.01)
            dos.pause(drain_timeout=5.0)
            dos.reconnect(dis)

        writer_thread.join(timeout=10.0)
        time.sleep(0.1)
        stop_reading.set()
        reader_thread.join(timeout=5.0)

        expected = b"".join(f"chunk-{i:04d};".encode() for i in range(total_chunks))
        assert bytes(received) == expected
