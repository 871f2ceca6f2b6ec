import ast
import io
import os
import signal
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import regarch
from regarch.forked import Child
from conftest import _frames, _no_child_left


def _send_all(send, messages):
    for message in messages:
        send(message)


def _raise(send):
    raise ValueError("the child's main failed")


def _exit_3(send):
    # the pipe closes well before the exit, which close() must wait for
    os.closerange(3, 1 << 16)
    time.sleep(0.2)
    os._exit(3)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


class TestChild:
    def test_frames_round_trip_in_order(self):
        # the 1 MiB message is larger than the pipe's buffer
        messages = [b"first", b"", bytes(range(256)) * 4096, ("last", None, 3)]
        child = Child(_send_all, messages)
        assert [child.receive() for _ in messages] == messages
        assert child.receive() is None
        assert child.close() == 0
        _no_child_left()

    def test_array_frames_arrive_writeable(self):
        # an array is sent from its own memory and read back into memory
        # that the received array may write to
        values = [np.arange(5), (np.linspace(0.0, 1.0, 3), np.ones((2, 3)))]
        child = Child(_send_all, values)
        received = child.receive()
        assert received.tolist() == values[0].tolist() and received.flags.writeable
        pair = child.receive()
        for sent, array in zip(values[1], pair):
            assert array.tolist() == sent.tolist() and array.flags.writeable
        assert child.receive() is None
        assert child.close() == 0
        _no_child_left()

    @pytest.mark.parametrize("arrays_sent", [0, 1])
    def test_message_cut_short_reads_as_none(self, monkeypatch, arrays_sent):
        # a child that stops between a message's pickle and its two array
        # frames has sent no message; the frames are read from memory, so no
        # process is needed
        frames = _frames(((np.arange(3.0), np.ones(2)), None))
        assert len(frames) == 3
        monkeypatch.delattr(os, "fork")
        child = Child(_send_all, [])
        child.pipe = io.BytesIO(b"".join(frames))
        arrays, error = child.receive()
        assert arrays[0].tolist() == [0.0, 1.0, 2.0] and error is None
        assert arrays[1].flags.writeable
        child.pipe = io.BytesIO(b"".join(frames[: 1 + arrays_sent]))
        assert child.receive() is None
        assert child.receive() is None

    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_no_child_without_a_fork(self, monkeypatch, fork):
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(
                os, "fork", mock.Mock(side_effect=BlockingIOError(11, "no pid"))
            )
        fds = _open_fds()
        child = Child(_send_all, [b"never sent"])
        assert child.pid is None
        assert child.receive() is None
        assert child.receive() is None
        assert _open_fds() == fds
        assert child.close() is None
        _no_child_left()

    @pytest.mark.parametrize("main, code", [(_raise, 1), (_exit_3, 3)])
    def test_close_returns_the_exit_code(self, main, code):
        child = Child(main)
        assert child.receive() is None
        assert child.close() == code
        _no_child_left()

    def test_close_stops_a_child_blocked_on_a_full_pipe(self):
        began = time.monotonic()
        child = Child(_send_all, [b"first", bytes(4 << 20)])
        assert child.receive() == b"first"
        # killed, or stopped by the broken pipe just before the kill
        assert child.close() in (-signal.SIGKILL, 1)
        assert time.monotonic() - began < 30
        _no_child_left()


_PROCESS_CALLS = {"fork", "pipe", "_exit", "kill"}


def test_forked_is_the_only_fork_site():
    # a second copy of the fork plumbing would call these itself
    callers = set()
    for path in Path(regarch.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in _PROCESS_CALLS:
                if isinstance(node.value, ast.Name) and node.value.id == "os":
                    callers.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                if _PROCESS_CALLS & {alias.name for alias in node.names}:
                    callers.add(path.name)
    assert callers == {"forked.py"}


def test_cli_is_the_only_freeze_site():
    # a frozen cycle waits for the process to end, so only the entry point
    # that ends it, cli.main, freezes
    sites = []
    for path in sorted(Path(regarch.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "freeze":
                if isinstance(node.value, ast.Name) and node.value.id == "gc":
                    sites.append(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                if "freeze" in {alias.name for alias in node.names}:
                    sites.append(path.name)
    assert sites == ["cli.py"]


def test_forked_is_the_only_module_importing_pickle():
    # a second wire format would pickle for itself
    importers = set()
    for path in Path(regarch.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("pickle", "_pickle") for name in names):
                importers.add(path.name)
    assert importers == {"forked.py"}
