"""The multi-process frontend of ``repro serve --workers N``.

One :class:`~repro.service.http.ServiceHTTPServer` is a threading server
over the GIL, so one slow ``/v1/grid`` can still starve the accept loop
and every CPU-bound handler shares one interpreter.  ``--workers N``
scales past that with the classic ``SO_REUSEPORT`` pre-fork model:

* the parent binds a *placeholder* socket first — bound with
  ``SO_REUSEPORT`` but never listening — which resolves ``--port 0`` to a
  concrete port and reserves the address for the group's lifetime (a
  bound, non-listening member keeps the reuseport group alive without
  receiving connections, which only listening sockets do);
* each forked worker builds its **own** :class:`AnalysisService` — its own
  session pool and fault injector — and binds a listening
  ``SO_REUSEPORT`` socket on the same address; the kernel distributes
  accepted connections among the workers;
* workers share only what is on disk: the ``--cache-dir`` spill tier
  (spills are atomic pid-suffixed renames, so concurrent workers never
  corrupt an artifact) — warm sessions are per-process, which keeps the
  failure domain per worker;
* SIGTERM/SIGINT to the parent fans out as SIGTERM to every worker; each
  worker drains in flight requests and spills exactly like a
  single-process ``repro serve``, and the parent exits 0 iff every worker
  exited 0.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import traceback
from typing import Callable

from repro.service.core import AnalysisService
from repro.service.http import make_server, run_server


def reuseport_supported() -> bool:
    """Whether this platform can run the ``--workers`` fan-out."""
    return hasattr(socket, "SO_REUSEPORT")


def _reserve_port(host: str, port: int) -> socket.socket:
    """Bind the placeholder socket that pins the group's address.

    Bound but never listening: it resolves ``port=0`` to a concrete port
    and keeps the reuseport group's address reserved while workers come
    and go, without ever being handed a connection itself.
    """
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        placeholder.bind((host, port))
    except BaseException:
        placeholder.close()
        raise
    return placeholder


def _child_main(
    placeholder: socket.socket,
    host: str,
    port: int,
    service_factory: Callable[[], AnalysisService],
    on_shutdown: Callable[[AnalysisService], None] | None,
    ready_fd: int,
    worker_index: int,
) -> None:
    """One worker process: build, bind, announce readiness, serve, drain.

    Never returns — exits the process directly (``os._exit``), so a
    worker can never fall through into the parent's post-fork code.
    """
    code = 1
    try:
        placeholder.close()
        # Tag this worker before the service (and its logger/metrics)
        # comes up: every log record and the /v1/stats + /v1/metrics
        # surfaces carry the index, making multi-worker output
        # attributable under the kernel's reuseport load balancing.
        os.environ["REPRO_WORKER_INDEX"] = str(worker_index)
        service = service_factory()
        server = make_server(service, host, port, reuseport=True)
        os.write(ready_fd, b"1")
        os.close(ready_fd)
        ready_fd = -1
        run_server(server, handle_sigterm=True)
        if on_shutdown is not None:
            on_shutdown(service)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        if ready_fd >= 0:
            try:
                os.close(ready_fd)
            except OSError:
                pass
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def serve_workers(
    workers: int,
    host: str,
    port: int,
    service_factory: Callable[[], AnalysisService],
    *,
    announce: Callable[[str, int, int], None] | None = None,
    on_shutdown: Callable[[AnalysisService], None] | None = None,
) -> int:
    """Fork ``workers`` reuseport servers and supervise them to exit.

    ``service_factory`` runs *in each worker* (each gets its own pool and
    injector; anything installed in this process before the call — e.g. a
    fault plan — is inherited by every worker as an independent copy).
    ``announce(host, port, ready)`` fires once every worker is up (or has
    died trying — ``ready`` says how many made it).  ``on_shutdown``
    runs in each worker after its clean drain (the spill hook).

    Returns the exit code: 0 iff every worker exited 0.  Must be called
    from the main thread of a process with no other children to reap.
    """
    if workers < 2:
        raise ValueError(f"serve_workers needs >= 2 workers, got {workers}")
    if not reuseport_supported():
        raise OSError("SO_REUSEPORT is not supported on this platform")
    placeholder = _reserve_port(host, port)
    bound_host, bound_port = placeholder.getsockname()[:2]
    read_fd, write_fd = os.pipe()
    children: list[int] = []
    try:
        for index in range(workers):
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child_main(
                    placeholder,
                    host,
                    bound_port,
                    service_factory,
                    on_shutdown,
                    write_fd,
                    index,
                )
                raise AssertionError("unreachable")  # pragma: no cover
            children.append(pid)
        os.close(write_fd)
        write_fd = -1
        # Wait for every worker to bind (one readiness byte each); a dead
        # worker closes its pipe end instead, which shows up as EOF once
        # all write ends are gone.
        ready = 0
        while ready < workers:
            chunk = os.read(read_fd, workers - ready)
            if not chunk:
                break
            ready += len(chunk)
        if announce is not None:
            announce(bound_host, bound_port, ready)

        def _forward(signum: int, frame: object) -> None:
            # One stop signal to the parent fans out as SIGTERM to every
            # worker; each drains and spills on its own (run_server's
            # handler), the parent just keeps waiting below.
            for child in children:
                try:
                    os.kill(child, signal.SIGTERM)
                except ProcessLookupError:
                    pass

        previous_term = signal.signal(signal.SIGTERM, _forward)
        previous_int = signal.signal(signal.SIGINT, _forward)
        try:
            code = 0
            for child in children:
                # PEP 475: waitpid retries after the forwarding handler
                # runs, so no EINTR loop is needed here.
                _, status = os.waitpid(child, 0)
                if os.waitstatus_to_exitcode(status) != 0:
                    code = 1
            return code
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)
    finally:
        if write_fd >= 0:
            os.close(write_fd)
        os.close(read_fd)
        placeholder.close()
