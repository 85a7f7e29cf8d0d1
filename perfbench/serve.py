"""The ``serve-mixed`` workload: an open-loop client against ``repro serve``.

Requests arrive on a seeded Poisson schedule at one fixed rate.  One
generator process (this one) sends them from ``nproc`` threads, each with
one keep-alive connection; a request's latency runs from when it was
*due*, so a stall also charges the requests queued behind it.  The server
runs in a child process (``serve_child.py``).

The mix:

* 60% ``/v1/spgemm`` on operands registered at set-up, by reference; half
  download the product as an ``x-repro-csr`` frame, half get metrics only;
* 15% ``/v1/gnn`` two-layer stacks over a registered graph;
* 25% ``/v1/spgemm`` with fresh inline-JSON operands, which miss the
  program cache (fingerprint, compile, verify); metrics only.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import oracle
from inputs import InputMaker, Profile
from workloads import Phase, nproc

WIRE = "application/x-repro-csr"
#: magic, version, flags, reserved, n_rows, n_cols, nnz, meta_len.
_HEADER = struct.Struct("<4sBBHqqqI")

MIX = (("ref-binary", 0.30), ("ref-json", 0.30), ("gnn", 0.15),
       ("fresh", 0.25))
GNN_BODY = {"layer_dims": [16, 16], "feature_dim": 16}
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# x-repro-csr frames, written and read here from the documented layout
# ----------------------------------------------------------------------
def encode_frame(m) -> bytes:
    head = _HEADER.pack(b"RCSR", 1, 0, 0, m.shape[0], m.shape[1],
                        len(m.data), 0)
    return b"".join([head, np.asarray(m.indptr, "<i8").tobytes(),
                     np.asarray(m.indices, "<i8").tobytes(),
                     np.asarray(m.data, "<f8").tobytes()])


def decode_frame(body: bytes) -> sp.csr_matrix:
    """The product carried by a response frame (its metadata is skipped)."""
    magic, version, _flags, _res, rows, cols, nnz, meta_len = \
        _HEADER.unpack_from(body)
    if magic != b"RCSR" or version != 1:
        raise ValueError(f"not an x-repro-csr v1 frame: {magic!r}")
    offset = _HEADER.size + meta_len
    arrays = []
    for count, dtype in ((rows + 1, "<i8"), (nnz, "<i8"), (nnz, "<f8")):
        arrays.append(np.frombuffer(body, dtype=dtype, count=count,
                                    offset=offset))
        offset += count * 8
    if offset != len(body):
        raise ValueError(f"frame is {len(body)} bytes, header says {offset}")
    indptr, indices, data = arrays
    return sp.csr_matrix((data, indices, indptr), shape=(rows, cols))


def _json_csr(m) -> dict:
    return {"indptr": m.indptr.tolist(), "indices": m.indices.tolist(),
            "data": m.data.tolist(), "shape": list(m.shape)}


# ----------------------------------------------------------------------
# Server child
# ----------------------------------------------------------------------
class ServerProcess:
    """``serve_child.py`` in a child process, on an ephemeral port."""

    def __init__(self, root: Path, trace_dir: Path | None) -> None:
        command = [sys.executable, str(Path(__file__).with_name(
            "serve_child.py")), "--src", str(root / "src")]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True, cwd=root)
        self.port = self._read_port()

    def _read_port(self) -> int:
        found: list[int] = []

        def read() -> None:
            for line in self.proc.stdout:
                if "listening on http://" in line:
                    found.append(int(line.split("http://", 1)[1]
                                     .split()[0].rsplit(":", 1)[1]))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(BOOT_TIMEOUT_S)
        if not found:
            self.stop()
            raise RuntimeError("server did not announce its port")
        return found[0]

    def stop(self) -> None:
        """SIGTERM (clean shutdown: spans get written), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=30)

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> tuple[int, bytes, str]:
        self.conn.request(method, path, body=body, headers=headers or {})
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, response.getheader("Content-Type", "")

    def json(self, method: str, path: str, payload: dict | None = None,
             accept: str | None = None) -> tuple[int, bytes, str]:
        headers = {"Content-Type": "application/json"}
        if accept:
            headers["Accept"] = accept
        body = json.dumps(payload).encode() if payload is not None else None
        return self.request(method, path, body, headers)

    def close(self) -> None:
        self.conn.close()


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
class ServeMixed:
    name = "serve-mixed"
    #: Open-loop queueing makes p90 of a 20 s run swing about twice as much
    #: as p75 with the machine's speed, so the tail stops at p75.
    tail_cap = 75.0

    def __init__(self, profile: Profile, root: Path) -> None:
        self.profile = profile
        self.root = root

    def setup(self, maker: InputMaker, seconds: float,
              trace_dir: Path | None = None) -> dict:
        p = self.profile
        refs = [maker.operand(g, i) for i, g in enumerate(p.serve_ref)]
        gnn_graph = maker.operand(p.serve_gnn, len(refs))
        server = ServerProcess(self.root, trace_dir)
        client = Client(server.port)
        fixture = {"seed": maker.seed, "server": server, "refs": refs,
                   "clients": [client]}
        try:
            digests = []
            for m in refs + [gnn_graph]:
                status, body, _ = client.request(
                    "PUT", "/v1/operands", encode_frame(m),
                    {"Content-Type": WIRE})
                if status != 200:
                    raise RuntimeError(f"operand upload failed: {status}")
                digests.append(json.loads(body)["ref"])
            fixture["digests"] = digests[:-1]
            fixture["gnn_digest"] = digests[-1]
            fixture["schedule"] = self._schedule(maker, seconds)
            fixture["bodies"] = self._bodies(fixture, maker)
            # Warm the program cache on every resident request shape.
            for kind, index in [("ref-binary", i) for i in range(len(refs))] \
                    + [("ref-json", i) for i in range(len(refs))] \
                    + [("gnn", 0)]:
                status = self._send(client, fixture, kind, index, None)[0]
                if status != 200:
                    raise RuntimeError(f"warm-up {kind} got {status}")
        except BaseException:
            self.close(fixture)
            raise
        return fixture

    def _schedule(self, maker: InputMaker, seconds: float
                  ) -> list[tuple[float, str, int]]:
        """Seeded (offset_s, kind, operand index) arrivals in
        ``[0, seconds)``: a Poisson process conditioned on its expected
        count (sorted uniform times), with the mix and the operands in
        exact proportions, shuffled, so every seed offers the same load."""
        rng = np.random.default_rng(maker.seed)
        n = max(1, round(self.profile.serve_rate_rps * seconds))
        offsets = np.sort(rng.uniform(0.0, seconds, size=n))
        kinds = [kind for kind, share in MIX
                 for _ in range(round(share * n))][:n]
        kinds += [MIX[0][0]] * (n - len(kinds))
        operands = np.arange(n) % len(self.profile.serve_ref)
        return [(float(t), kind, int(o)) for t, kind, o in
                zip(offsets, rng.permutation(kinds), rng.permutation(operands))]

    def _bodies(self, fixture, maker: InputMaker) -> dict:
        """Request bodies, serialised before timing starts; fresh operands
        get one never-seen matrix each."""
        bodies, fresh = {}, {}
        for i, (_t, kind, _o) in enumerate(fixture["schedule"]):
            if kind == "fresh":
                fresh[i] = maker.operand(self.profile.serve_fresh, 1000 + i)
                bodies[i] = json.dumps({"a": _json_csr(fresh[i]),
                                        "verify": False,
                                        "label": f"r{i}"}).encode()
        fixture["fresh"] = fresh
        return bodies

    def _send(self, client: Client, fixture, kind: str, index: int,
              i: int | None) -> tuple[int, bytes, str]:
        label = f"r{i}" if i is not None else "warm"
        if kind in ("ref-binary", "ref-json"):
            payload = {"a": {"ref": fixture["digests"][index]},
                       "verify": False, "label": label}
            accept = WIRE if kind == "ref-binary" else None
            return client.json("POST", "/v1/spgemm", payload, accept)
        if kind == "gnn":
            payload = dict(GNN_BODY, dataset={"ref": fixture["gnn_digest"]},
                           label=label)
            return client.json("POST", "/v1/gnn", payload)
        return client.request("POST", "/v1/spgemm", fixture["bodies"][i],
                              {"Content-Type": "application/json"})

    def prepare_oracle(self, fixture) -> None:
        fixture["ref_products"] = [oracle.reference_product(m)
                                   for m in fixture["refs"]]
        fixture["fresh_nnz"] = {i: oracle.reference_product(m).nnz
                                for i, m in fixture["fresh"].items()}
        fixture["gnn_repeat"] = oracle.RepeatCheck()

    def _check(self, fixture, kind: str, index: int, i: int,
               body: bytes, ctype: str, frames: dict) -> str | None:
        """Check one 200 reply.  Cheap checks run here; a binary product
        is fingerprinted and keyed, and one product per distinct key is
        checked against scipy after the phase (:meth:`_check_frames`), so
        the client spends almost no time between requests."""
        if kind == "ref-binary":
            if ctype != WIRE:
                return f"expected {WIRE}, got {ctype!r}"
            meta_len = _HEADER.unpack_from(body)[-1]
            key = (index, hashlib.sha1(
                memoryview(body)[_HEADER.size + meta_len:]).hexdigest())
            frames.setdefault(key, body)
            return key
        row = json.loads(body)
        if kind == "gnn":
            counters = {k: row.get(k) for k in (
                "layers", "total_cycles", "aggregation_cycles",
                "output_shape")}
            return fixture["gnn_repeat"].mismatch("gnn", counters)
        want = (fixture["ref_products"][index].nnz if kind == "ref-json"
                else fixture["fresh_nnz"][i])
        if row.get("output_nnz") != want:
            return f"output_nnz {row.get('output_nnz')} != {want}"
        return None

    def _check_frames(self, fixture, frames: dict) -> dict:
        """Verdict per (operand, product fingerprint) key."""
        verdicts = {}
        for (index, digest), body in frames.items():
            try:
                verdicts[(index, digest)] = oracle.product_mismatch(
                    decode_frame(body), fixture["ref_products"][index])
            except ValueError as err:
                verdicts[(index, digest)] = f"undecodable frame: {err}"
        return verdicts

    def server_stats(self, fixture) -> dict:
        status, body, _ = fixture["clients"][0].json("GET", "/stats")
        return json.loads(body) if status == 200 else {}

    def run(self, fixture, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        schedule = [(i, t, kind, o)
                    for i, (t, kind, o) in enumerate(fixture["schedule"])]
        limit_s = self.profile.serve_limit_ms / 1e3
        n_threads = nproc()
        while len(fixture["clients"]) < n_threads:
            fixture["clients"].append(Client(fixture["server"].port))
        lock = threading.Lock()
        cursor = iter(schedule)
        records: list[dict] = []
        frames: dict = {}
        before = self.server_stats(fixture)
        start = time.perf_counter() + 0.05

        def worker(client: Client) -> None:
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                i, offset, kind, index = item
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                rec = {"i": i, "kind": kind, "due": due, "sent": sent}
                try:
                    if tracer is not None:
                        with tracer.span("op", "bench", op=f"r{i}"):
                            status, body, ctype = self._send(
                                client, fixture, kind, index, i)
                    else:
                        status, body, ctype = self._send(client, fixture,
                                                         kind, index, i)
                except (OSError, http.client.HTTPException) as err:
                    rec.update(done=time.perf_counter(), status=None,
                               error=f"{type(err).__name__}: {err}")
                else:
                    rec.update(done=time.perf_counter(), status=status,
                               bytes=len(body))
                    if status == 200:
                        try:
                            rec["mismatch"] = self._check(
                                fixture, kind, index, i, body, ctype, frames)
                        except (ValueError, KeyError, struct.error) as err:
                            rec["mismatch"] = f"undecodable reply: {err}"
                    else:
                        rec["error"] = f"HTTP {status}: {body[:200]!r}"
                with lock:
                    records.append(rec)

        threads = [threading.Thread(target=worker, args=(c,))
                   for c in fixture["clients"][:n_threads]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = self.server_stats(fixture)
        verdicts = self._check_frames(fixture, frames)
        for rec in records:
            if isinstance(rec.get("mismatch"), tuple):
                rec["mismatch"] = verdicts[rec["mismatch"]]

        records.sort(key=lambda r: r["i"])
        ok = 0
        for rec in records:
            phase.attempted += 1
            if rec.get("error"):
                phase.fail(f"r{rec['i']} {rec['kind']}: {rec['error']}")
                continue
            if rec.get("mismatch"):
                phase.fail(f"r{rec['i']} {rec['kind']}: {rec['mismatch']}",
                           mismatch=True)
                continue
            latency = rec["done"] - rec["due"]
            phase.latencies_s.append(latency)
            ok += latency <= limit_s
        phase.wall_s = max(r["done"] for r in records) - start \
            if records else 0.0
        by_kind: dict[str, list[float]] = {}
        for r in records:
            if r.get("status") == 200:
                by_kind.setdefault(r["kind"], []).append(
                    (r["done"] - r["due"]) * 1e3)
        lags = [(r["sent"] - r["due"]) * 1e3 for r in records]
        codes: dict[str, int] = {}
        for r in records:
            key = str(r.get("status"))
            codes[key] = codes.get(key, 0) + 1
        refused = sum(v for k, v in codes.items() if k in ("429", "503"))
        lag_p50 = float(np.median(lags)) if lags else 0.0
        lag_max = max(lags, default=0.0)
        phase.extra.update({
            "slo_ok_frac": ok / len(records) if records else 0.0,
            "latency_limit_ms": self.profile.serve_limit_ms,
            "rate_rps": self.profile.serve_rate_rps,
            "sent": len(records),
            "succeeded": len(phase.latencies_s),
            "failed": phase.failed,
            "refused": refused,
            "status_counts": codes,
            "latency_p50_ms_by_kind": {k: float(np.median(v))
                                       for k, v in sorted(by_kind.items())},
            "gen_lag_p50_ms": lag_p50,
            "gen_lag_max_ms": lag_max,
            # The generator fell behind when even the median request went
            # out later than the latency limit allows.
            "valid": lag_p50 <= self.profile.serve_limit_ms,
            "server_delta": {k: after.get(k, 0) - before.get(k, 0)
                             for k in ("requests", "responses", "coalesced",
                                       "batches", "bytes_out", "bytes_in",
                                       "cache_hits", "cache_misses")},
        })
        return phase

    def close(self, fixture) -> None:
        """Close every client connection first, so no keep-alive handler
        is still open when the server shuts down, then stop the server."""
        for client in fixture.get("clients", []):
            client.close()
        fixture["server"].stop()

