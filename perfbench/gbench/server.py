"""The serving process: ``Dataset.open`` behind ``repro.server``.

:func:`main` runs in its own process (``perfbench/serve.py``), so the
load generator and the server hold separate interpreter locks.  It
opens the saved block, registers it with a default :class:`GeoService`,
serves it through :class:`GeoHTTPServer` with the default
:class:`EdgeCache`, and announces its port by writing a ready file.
On SIGTERM it shuts down and writes a report: peak RSS, index size and,
when started with ``--trace``, every span it recorded.

:class:`ServerProcess` is the benchmark's handle on such a process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import signal
import subprocess
import sys
import threading
import time

from gbench.inputs import DATASET

SERVE_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "serve.py"
#: How long a server may take to open its block and bind.
START_TIMEOUT_S = 120.0


def _write_json(path: pathlib.Path, payload: object) -> None:
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(payload))
    os.replace(partial, path)


def index_size(dataset) -> dict:  # noqa: ANN001 - repro.api.Dataset
    """Block-plus-trie bytes and stored points of a dataset."""
    handle = dataset.handle
    return {
        "index_bytes": int(handle.memory_bytes()),
        "points": int(dataset.block.aggregates.counts.sum()),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM; ``ru_maxrss`` would
    include the parent's pages copied at fork)."""
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Serve one saved block over HTTP.")
    parser.add_argument("--block", required=True, type=pathlib.Path)
    parser.add_argument("--ready", required=True, type=pathlib.Path)
    parser.add_argument("--report", required=True, type=pathlib.Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from gbench.trace import Tracer, installed
    from repro.api import Dataset, GeoService
    from repro.server import EdgeCache, GeoHTTPServer

    tracer = Tracer()
    with installed(tracer) if args.trace else contextlib.nullcontext():
        service = GeoService()
        dataset = service.register(DATASET, Dataset.open(args.block))
        server = GeoHTTPServer(service, port=0, edge=EdgeCache())

        def stop(signum, frame) -> None:  # noqa: ANN001
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, stop)
        _write_json(args.ready, {"port": server.port})
        try:
            server.serve_forever()
        finally:
            server.server_close()
    report = {
        "peak_rss_mb": peak_rss_mb(),
        **index_size(dataset),
        "spans": tracer.export() if args.trace else [],
    }
    _write_json(args.report, report)
    return 0


class ServerProcess:
    """A launched serving process; :meth:`stop` returns its report."""

    def __init__(self, block: pathlib.Path, workdir: pathlib.Path, name: str, trace: bool) -> None:
        self.ready = workdir / f"{name}.ready"
        self.report = workdir / f"{name}.report"
        self.ready.unlink(missing_ok=True)
        self.report.unlink(missing_ok=True)
        command = [
            sys.executable,
            str(SERVE_SCRIPT),
            "--block", str(block),
            "--ready", str(self.ready),
            "--report", str(self.report),
        ]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdin=subprocess.DEVNULL)
        self.port = -1

    def wait_ready(self) -> int:
        """Block until the server listens; returns its port."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.ready.exists():
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode} before serving")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start in time")
            time.sleep(0.002)
        self.port = int(json.loads(self.ready.read_text())["port"])
        return self.port

    def stop(self) -> dict:
        """Shut down gracefully and return the server's report ({} if it
        wrote none)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.report.exists():
            return json.loads(self.report.read_text())
        return {}
