#!/usr/bin/env python
"""CI smoke test: kill/resume bit-identity of a sharded job.

Usage::

    python scripts/kill_resume_smoke.py campaign [--timeout S] [--out PATH]
    python scripts/kill_resume_smoke.py infer    [--timeout S] [--out PATH]

Stdlib only.  Both job kinds (``repro campaign`` and the E19
``repro infer`` frontier) run on the same sharded-job runner, so they
share these phases:

A. A clean reference run (no checkpoint).
B. The same run with ``--checkpoint-dir``, SIGKILLed once the shard
   checkpoint holds at least two completed shards — the re-run must
   resume those shards (not recompute them), say so on stderr, and
   write JSON byte-identical to the uninterrupted reference.
C. ``infer`` only — frontier shape checks on the reference: undefended,
   the best statistical classifier beats the exact-match baseline, and
   the defense ladder's byte overhead is monotone.

Exit code 0 only if every phase holds.  The reference JSON is left at
``--out`` (default ``<kind>_smoke.json``) for upload as a CI artifact.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (sessions, shard size) per job kind: enough shards that the run is
#: still going when two of them are checkpointed.
SIZES = {"campaign": (30_000, 1_500), "infer": (120, 10)}
MIN_SHARDS_BEFORE_KILL = 2


def _env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _command(kind, json_out, checkpoint_dir=None, workers=2):
    sessions, shard_size = SIZES[kind]
    command = [
        sys.executable, "-m", "repro", kind,
        "--sessions", str(sessions), "--shard-size", str(shard_size),
        "--seed", "7", "--workers", str(workers),
        "--json", json_out,
    ]
    if checkpoint_dir:
        command += ["--checkpoint-dir", checkpoint_dir]
    return command


def _run(command, timeout):
    completed = subprocess.run(
        command, cwd=REPO_ROOT, env=_env(), timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    print(completed.stdout)
    print(completed.stderr, file=sys.stderr)
    if completed.returncode != 0:
        raise SystemExit(
            f"FAIL: {' '.join(command)} exited {completed.returncode}"
        )
    return completed


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _checkpoint_shards(kind, checkpoint_dir):
    """Completed shard count in the (single) checkpoint file of the job."""
    paths = glob.glob(os.path.join(checkpoint_dir, f"{kind}-*.json"))
    if not paths:
        return 0
    try:
        return len(json.loads(_read(paths[0])).get("results", {}))
    except (ValueError, OSError):
        return 0  # mid-replace; retry next poll


def phase_a(kind, workdir, timeout):
    print(f"== Phase A: {kind} reference run ==", flush=True)
    reference_path = os.path.join(workdir, "reference.json")
    _run(_command(kind, reference_path), timeout)
    return _read(reference_path)


def phase_b(kind, workdir, reference, timeout):
    print(f"== Phase B: kill the {kind} run, then resume ==", flush=True)
    out_path = os.path.join(workdir, "resumed.json")
    checkpoint_dir = os.path.join(workdir, "checkpoints")
    os.makedirs(checkpoint_dir, exist_ok=True)
    process = subprocess.Popen(
        _command(kind, out_path, checkpoint_dir=checkpoint_dir),
        cwd=REPO_ROOT, env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    completed_before_kill = 0
    deadline = time.monotonic() + timeout
    while process.poll() is None and time.monotonic() < deadline:
        completed_before_kill = _checkpoint_shards(kind, checkpoint_dir)
        if completed_before_kill >= MIN_SHARDS_BEFORE_KILL:
            process.send_signal(signal.SIGKILL)
            break
        time.sleep(0.1)
    process.wait(timeout=30)
    if completed_before_kill < MIN_SHARDS_BEFORE_KILL:
        raise SystemExit(
            f"FAIL: the {kind} run finished before the checkpoint held "
            f"{MIN_SHARDS_BEFORE_KILL} shards to interrupt (nothing was "
            "tested) — lower its shard size or raise its sessions"
        )
    print(
        f"killed {kind} run with {completed_before_kill} shard(s) "
        "checkpointed", flush=True,
    )

    # Resume: checkpointed shards must be reused, output must match.
    completed = _run(
        _command(kind, out_path, checkpoint_dir=checkpoint_dir), timeout
    )
    resumed_after = _checkpoint_shards(kind, checkpoint_dir)
    if resumed_after < completed_before_kill:
        raise SystemExit("FAIL: resume lost checkpointed shards")
    if "resumed" not in completed.stderr:
        raise SystemExit("FAIL: resume did not report resumed shards")
    if _read(out_path) != reference:
        raise SystemExit("FAIL: resumed output differs from reference")
    print(
        "phase B OK: resume reused the checkpoint, output identical",
        flush=True,
    )


def phase_c(reference):
    print("== Phase C: frontier shape checks ==", flush=True)
    summary = reference["summary"]
    objects = summary["objects"]
    off = summary["levels"][0]
    exact = off["correct"]["exact"]
    statistical = {
        name: correct for name, correct in off["correct"].items()
        if name != "exact"
    }
    best_name = max(statistical, key=lambda name: (statistical[name], name))
    print(
        f"undefended over {objects} objects: exact {exact}, "
        f"best statistical ({best_name}) {statistical[best_name]}"
    )
    if statistical[best_name] <= exact:
        raise SystemExit(
            "FAIL: undefended, no statistical classifier beat the "
            "exact-match baseline"
        )

    previous = -1
    for level in summary["levels"]:
        extra = (
            level["defended_bytes"] + level["chaff_bytes"]
            - level["base_bytes"]
        )
        permille = extra * 1000 // level["base_bytes"]
        print(f"  {level['name']}: byte overhead {permille} permille")
        if permille < previous:
            raise SystemExit(
                f"FAIL: byte overhead not monotone at {level['name']}"
            )
        previous = permille
    print("phase C OK: frontier shapes hold", flush=True)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("kind", choices=sorted(SIZES),
                        help="the sharded job to kill and resume")
    parser.add_argument(
        "--workdir", default=None,
        help="directory for checkpoints and JSON outputs "
             "(default <kind>_smoke)",
    )
    parser.add_argument(
        "--out", default=None,
        help="where to leave the reference JSON (default <kind>_smoke.json)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-phase wall-clock budget in seconds",
    )
    args = parser.parse_args()
    kind = args.kind
    out = args.out or f"{kind}_smoke.json"

    workdir = os.path.abspath(args.workdir or f"{kind}_smoke")
    os.makedirs(workdir, exist_ok=True)
    reference = phase_a(kind, workdir, args.timeout)
    phase_b(kind, workdir, reference, args.timeout)
    reference_json = json.loads(reference)
    if kind == "infer":
        phase_c(reference_json)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(reference_json, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{kind} smoke passed; reference JSON at {out}")


if __name__ == "__main__":
    main()
