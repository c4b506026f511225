"""Traced ``repro serve``: wrap the program's public functions, then serve.

Usage (spawned by the driver, never by hand)::

    python3 perfbench/launcher.py SPANS_JSON serve ARGS...

The launcher installs one :class:`~perfbench.tracing.SpanRecorder` span
around each layer boundary listed in :data:`CHILD_SPANS`, then calls
``repro.cli.main(["serve", ...])``.  When the server returns from its
SIGTERM drain the aggregated spans are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.tracing import SpanRecorder, propagate_context_to_threads  # noqa: E402

#: (module, class or None, attribute, span name) of every wrapped boundary.
CHILD_SPANS = (
    ("repro.core.protocol", "SaeScheme", "query", "core.query"),
    ("repro.tom.scheme", "TomScheme", "query", "core.query"),
    ("repro.core.protocol", "SaeScheme", "apply_updates", "core.apply_updates"),
    ("repro.tom.scheme", "TomScheme", "apply_updates", "core.apply_updates"),
    ("repro.core.provider", "ServiceProvider", "execute", "core.sp_execute"),
    ("repro.tom.entities", "TomServiceProvider", "execute", "core.sp_execute"),
    ("repro.core.trusted_entity", "TrustedEntity", "generate_vt", "core.te_vt"),
    ("repro.core.client", "Client", "verify", "core.verify"),
    ("repro.tom.entities", "TomClient", "verify", "core.verify"),
    ("repro.dbms.table", "Table", "range_query", "dbms.range_query"),
    ("repro.tom.verification", None, "verify_vo", "tom.verify_vo"),
    ("repro.storage.buffer_pool", "BufferPool", "fetch", "storage.fetch"),
    ("repro.storage.node_codec", None, "decode_node", "storage.node_decode"),
    ("repro.storage.heapfile", "HeapFile", "get", "storage.heap_get"),
    ("repro.crypto.digest", "DigestScheme", "hash", "crypto.digest"),
    ("repro.crypto.encoding", None, "encode_record", "crypto.encode_record"),
    ("repro.crypto.signatures", "RSAVerifier", "verify", "crypto.rsa_verify"),
    ("repro.crypto.signatures", "RSASigner", "sign", "crypto.rsa_sign"),
    ("repro.network.wire", None, "outcome_to_wire", "network.encode"),
    ("repro.network.wire", None, "encode_frame", "network.encode"),
    ("repro.network.wire", None, "decode_value", "network.decode"),
)


def _request_span(server, kind, payload) -> str:
    """``server.query`` / ``server.update`` / ``server.other`` by frame kind."""
    from repro.network import wire

    if kind == wire.FRAME_QUERY:
        return "server.query"
    if kind == wire.FRAME_UPDATE:
        return "server.update"
    return "server.other"


def install(recorder: SpanRecorder) -> None:
    """Import every ``repro`` module, then wrap each boundary in CHILD_SPANS.

    The server's per-frame handler gets one span per request, named after
    the frame kind; a query's client span minus its server span is the
    time spent in sockets, event loops and admission.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    propagate_context_to_threads()
    from repro.network.server import SchemeServer

    recorder.patch(SchemeServer, "_serve_frame", _request_span)
    for module_name, class_name, attribute, span in CHILD_SPANS:
        module = sys.modules[module_name]
        owner = getattr(module, class_name) if class_name else module
        recorder.patch(owner, attribute, span)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: launcher.py SPANS_JSON serve ARGS...", file=sys.stderr)
        return 2
    spans_path, serve_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    status = repro_main(serve_args)
    with open(spans_path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(recorder.snapshot(), handle)
    os.replace(spans_path + ".tmp", spans_path)
    return int(status or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
