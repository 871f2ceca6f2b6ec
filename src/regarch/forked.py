"""A forked child sending objects back through a pipe: the only code in
the package that calls ``os.fork``, ``os.pipe``, ``os._exit`` or
``os.kill`` (``compare``'s worker, ``write_csv``'s chunk child and
``load_ticks``'s reader child), and the only code that pickles."""

import io
import os
import pickle


class Child:
    """``main(send, *args)`` run in a forked child; its objects read here.

    ``send(obj)`` pickles ``obj`` with protocol 5 and writes the pickle,
    then each out-of-band buffer (the memory of a contiguous NumPy array,
    sent uncopied), as frames: a size in 8 bytes, then the bytes.
    :meth:`receive` reads each frame into a ``bytearray``, so the arrays it
    returns are writeable.  The child leaves through ``os._exit``, with code
    0 if ``main`` returned and 1 if it raised, so it runs no exit handler
    and flushes no buffer it inherited (a stream of the parent's may hold
    text the parent has yet to write).

    Where ``os.fork`` does not exist or raises :class:`OSError` there is no
    child: ``pid`` is None, no file descriptor stays open, and every
    :meth:`receive` returns None, so the caller does the work itself.
    """

    def __init__(self, main, *args):
        # no child reads as one that stopped before its first frame
        self.pid, self.pipe, self._stopped = None, io.BytesIO(), False
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except (AttributeError, OSError):  # no os.fork, or no process to spare
            os.close(read_fd)
            os.close(write_fd)
            return
        if self.pid == 0:
            os.close(read_fd)
            _run(write_fd, main, args)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def receive(self):
        """The child's next object; None, now and at every later call, when
        there is no child or it stopped short of a whole message."""
        frames = iter(self._frame, None)
        try:  # pickle takes from ``frames`` the buffers its message names
            return pickle.loads(next(frames), buffers=frames)
        except (StopIteration, pickle.UnpicklingError):
            return None

    def _frame(self):
        head = self.pipe.read(8)
        if len(head) == 8:
            body = bytearray(int.from_bytes(head, "little"))
            if self.pipe.readinto(body) == len(body):
                return body
        self._stopped = True
        return None

    def close(self):
        """Close the pipe, kill the child unless :meth:`receive` saw it stop
        (it may be blocked on a full pipe), reap it and return its exit
        code; None when there is no child."""
        self.pipe.close()
        if self.pid is None:
            return None
        if not self._stopped:
            import signal  # loaded only by a process that kills a child

            os.kill(self.pid, signal.SIGKILL)
        pid, self.pid = self.pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _send(pipe, obj):
    """Write ``obj`` to ``pipe`` as one message of :class:`Child`."""
    buffers = []
    body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    for frame in [body, *(buffer.raw() for buffer in buffers)]:
        pipe.writelines((len(frame).to_bytes(8, "little"), frame))
    pipe.flush()


def _run(fd, main, args):
    """The child's whole life: ``main`` with a sender writing to ``fd``."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            main(lambda obj: _send(pipe, obj), *args)
        code = 0
    finally:
        os._exit(code)
