"""Record the expected output digests the benchmark checks against.

    python3 layerbench/make_golden.py [--part attack-tcp|attack-quic|infer]

Computes every digest serially, in-process, without checkpoints, and
merges the parts it computed into ``layerbench/golden.json``.  Rerun it
only when a change to the program is meant to change its outputs; a
change that claims only speed must leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1]),
                str(Path(__file__).resolve().parents[1] / "src")]

from layerbench import workloads  # noqa: E402

PARTS = ("attack-tcp", "attack-quic", "infer")


def attack_digests(name: str):
    workload = workloads.build(name, seed=0, workdir="")
    table = {}
    for round_index in workloads.ROUNDS:
        row = [workloads.output_digest(workload.operation(round_index, kind).run())
               for kind in workloads.ATTACK_KINDS]
        table[str(round_index)] = row
        print(f"{name} round {round_index}: {row}", file=sys.stderr)
    return table


def infer_digests():
    from repro.infer import campaign

    digests = {}
    for seed in workloads.INFER_SEEDS:
        config = workloads.InferWorkload(seed, golden=None).config
        digests[str(config.seed)] = campaign.run_infer_campaign(
            config, workers=1).summary.digest()
        print(f"infer seed {config.seed}: {digests[str(config.seed)]}",
              file=sys.stderr)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", choices=PARTS, action="append",
                        help="compute only this part (repeatable)")
    parts = parser.parse_args().part or PARTS
    workloads.clear_program_settings()
    path = workloads.GOLDEN_PATH
    golden = (json.loads(path.read_text()) if path.exists()
              else {"format": workloads.GOLDEN_FORMAT})
    golden["pool"] = workloads.pool_identity()
    for part in parts:
        if part == "infer":
            golden["infer"] = infer_digests()
        else:
            transport = part.split("-")[1]
            golden.setdefault("attack", {})[transport] = attack_digests(part)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
