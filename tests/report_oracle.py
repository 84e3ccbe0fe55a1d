"""The CLI report encoder that encoded a result up to four times, kept
as an oracle.

``emit`` builds the whole report as one dict (``to_dict``), hashes its
canonical serialization, dumps the dict again for stdout and the result
once more for ``-o``; ``gen`` fingerprints its result by a further
encoding.  ``mvb.cli`` encodes a result once and streams the pieces;
the differential test in ``test_cli.py`` compares the bytes of the two.
"""

import hashlib
import json
import time


def canonical_bytes(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def to_dict(report, result):
    """The report body: ``result`` is the command's result as a JSON value."""
    fingerprint = report.fingerprint
    if report.command == "gen":
        fingerprint = hashlib.sha256(canonical_bytes(result)).hexdigest()
    body = {
        "command": report.command,
        "fingerprint": fingerprint,
        "status": report.status,
        "certificates": report.certificates,
        "counterexamples": report.counterexamples,
    }
    if result is not None:
        body["result"] = result
    body["report_hash"] = hashlib.sha256(canonical_bytes(body)).hexdigest()
    body["timing_ms"] = int((time.monotonic() - report.started) * 1000)
    return body


def emit(report, result, output, outfile, write):
    """Write the report as ``output`` ("json" or "text") with ``write``, and
    the result to ``outfile`` when one is given."""
    body = to_dict(report, result)
    if output == "json":
        write(json.dumps(body, sort_keys=True, separators=(",", ":")))
        write("\n")
    else:
        lines = [
            "command: %s" % body["command"],
            "fingerprint: %s" % body["fingerprint"],
            "status: %s" % body["status"],
        ]
        for cert in body["certificates"]:
            lines.append("certificate: %s: %s" % (cert.get("claim"), cert.get("status")))
        for ce in body["counterexamples"]:
            lines.append("counterexample: %s" % json.dumps(ce, sort_keys=True))
        if "result" in body:
            lines.append("result: %s" % json.dumps(body["result"], sort_keys=True,
                                                   separators=(",", ":")))
        lines.append("report_hash: %s" % body["report_hash"])
        lines.append("timing_ms: %d" % body["timing_ms"])
        write("\n".join(lines) + "\n")
    if outfile and result is not None:
        with open(outfile, "wb") as handle:
            handle.write(canonical_bytes(result))
            handle.write(b"\n")
