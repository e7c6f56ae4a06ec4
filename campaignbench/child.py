"""The program side of a workload: one campaign or one re-check per process.

Usage (the runner starts these; the spec is all the program sees)::

    python3 campaignbench/child.py setup SPEC
    python3 campaignbench/child.py campaign SPEC STORE OUT [--seconds S]
    python3 campaignbench/child.py campaign SPEC STORE OUT --trace
    python3 campaignbench/child.py check SPEC REPORT OUT --check-seed N

Every mode first parses and plans the spec and then prints ``ready``:
the end of set-up, which the runner times from process start.
``campaign`` then runs ``run_campaign`` against a fresh ``RunStore``
under STORE (the ``repro campaign --store`` path), again and again with
a new store each time while the next campaign is expected to end
within S seconds of campaign wall-clock (at least once; exactly once,
under the per-layer ledger, with ``--trace``). It writes to OUT each
campaign's wall-clock and the digests of its returned and stored
report, the peak RSS after the first campaign (what a one-campaign
process reaches), and the first campaign's unit reports. ``check``
re-checks the unit reports in REPORT (``check.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("setup", "campaign", "check"))
    parser.add_argument("spec")
    parser.add_argument("paths", nargs="*")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--check-seed", type=int)
    args = parser.parse_args(argv)

    from repro.parallel.campaign import CampaignSpec, plan_campaign, run_campaign
    from repro.store import RunStore

    spec = CampaignSpec.from_dict(json.loads(Path(args.spec).read_text()))
    plan_campaign(spec)
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    if args.mode == "setup":
        return 0
    from campaignbench.check import check_units, digest

    if args.mode == "check":
        report_path, out_path = args.paths
        units = json.loads(Path(report_path).read_text())["problems"]
        result = check_units(units, args.check_seed)
        Path(out_path).write_text(json.dumps(result))
        return 0

    store_dir, out_path = args.paths
    ledger = None
    if args.trace:
        from campaignbench import ledger as layers

        ledger = layers.Ledger()
        uninstall = layers.install(ledger)
        ledger.enter(layers.ROOT)
    campaigns = []
    while True:
        store_path = Path(store_dir) / str(len(campaigns))
        start = time.perf_counter()
        store = RunStore(store_path)
        report = run_campaign(spec, store=store)
        campaign_s = time.perf_counter() - start
        if ledger is not None:
            ledger.exit()
            uninstall()
        if not campaigns:
            first = report
            # ru_maxrss is in KiB on Linux
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        stored = store.campaign(report["campaign_id"])["report"]
        campaigns.append(
            {
                "campaign_s": campaign_s,
                "digest": digest(report),
                "stored_digest": digest(stored) if stored is not None else None,
            }
        )
        del store, report, stored
        shutil.rmtree(store_path, ignore_errors=True)
        spent = [c["campaign_s"] for c in campaigns]
        if args.trace or sum(spent) + max(spent) > args.seconds:
            break

    out = {
        "campaigns": campaigns,
        "peak_rss_mb": peak_rss_mb,
        "problems": first["problems"],
    }
    if ledger is not None:
        out["layers"] = layers.layer_metrics(ledger, first)
        out["buckets"] = ledger.buckets()
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
