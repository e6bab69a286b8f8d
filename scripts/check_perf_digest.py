#!/usr/bin/env python3
"""Compare a fresh perf_baseline run against the committed artifact.

Usage: check_perf_digest.py <fresh.json> <committed.json>

Fails (exit 1) if any circuit's routing decisions (per-engine unit
counts) or final costs (conflicts/stitches) differ from the committed
BENCH_pipeline.json, or if the training digest (final per-head losses,
labeled/deduped unit counts) drifts. The digest fields are deterministic
given the model seed and the GEMM microkernel. When the two runs used
different kernels (`fp_kernel`), the comparison is skipped: the forward
pass's last bits differ legitimately, so threshold decisions near the
boundary may too.

perf_baseline records no timings (perfbench measures time). Its
`budgeted` counts come from a 1 ms wall-clock deadline per unit, so they
depend on the host and its load: they are informational, not digest
fields, and are not compared.
"""

import json
import sys


def check_serving(fresh) -> bool:
    """Internal consistency of the fresh run's serving section.

    Served digests are asserted equal to the serial adaptive run inside
    the harness binary (cost, engine usage, warm-request inference
    counts); here the guard re-checks the recorded flags and that the
    warm pass actually exercised the cross-request caches. Returns True
    when something diverged.
    """
    serving = fresh.get("serving")
    if serving is None:
        print("fresh run lacks a serving section")
        return True
    bad = False
    for row in serving.get("per_circuit", []):
        if not row.get("cost_equal"):
            print(f"serving[{row.get('name')}]: cost_equal is not true")
            bad = True
        if row.get("units", 0) > 0 and row.get("warm_routing_memo_hits", 0) == 0:
            print(
                f"serving[{row.get('name')}]: warm request missed the "
                "cross-request routing memo"
            )
            bad = True
    memo = serving.get("routing_memo", {})
    if memo.get("hits", 0) == 0:
        print("serving: the shared routing memo recorded no hits at all")
        bad = True
    if not bad:
        n = len(serving.get("per_circuit", []))
        print(f"serving tier consistent with the serial run ({n} circuits)")
    return bad


def check_serving_resume(fresh) -> bool:
    """Internal consistency of the fresh run's serving_resume section.

    The harness runs a journaled job cold, tears the journal to the
    torn-append state a mid-write SIGKILL leaves, and re-submits the
    same job id to a fresh serve loop. The guard requires that the
    resumed run actually reused surviving records and stayed
    bit-identical to the cold run (asserted in-binary, recorded as
    digest_equal_cold). Returns True when something diverged.
    """
    resume = fresh.get("serving_resume")
    if resume is None:
        print("fresh run lacks a serving_resume section")
        return True
    bad = False
    if not resume.get("digest_equal_cold"):
        print("serving_resume: digest_equal_cold is not true")
        bad = True
    if resume.get("resumed_units", 0) <= 0:
        print("serving_resume: the restarted job reused no journal records")
        bad = True
    kept = resume.get("journal_records_kept", 0)
    if kept <= 0:
        print("serving_resume: the torn journal kept no whole records")
        bad = True
    if resume.get("resumed_units", 0) > kept:
        print(
            f"serving_resume: resumed {resume.get('resumed_units')} units "
            f"but only {kept} records survived the tear"
        )
        bad = True
    if not bad:
        print(
            f"serving_resume consistent: {resume.get('resumed_units')} of "
            f"{kept} surviving records reused on {resume.get('circuit')}"
        )
    return bad


def check_library(fresh) -> bool:
    """Internal consistency of the fresh run's library (persistent
    store) section.

    The harness asserts in-binary that a warm store-backed engine — a
    fresh process sharing only the store directory — reproduced the cold
    run's digests bit-for-bit; the guard re-checks the recorded flags
    and the flywheel's effectiveness: the warm pass must re-solve at
    least 80% fewer tail units than the cold pass, and the store load
    must have contributed actual records. Returns True when something
    diverged.
    """
    lib = fresh.get("library")
    if lib is None:
        print("fresh run lacks a library section")
        return True
    bad = False
    if not lib.get("digests_equal"):
        print("library: digests_equal is not true")
        bad = True
    cold = lib.get("cold_tail_solves", 0)
    warm = lib.get("warm_tail_solves", 0)
    if cold <= 0:
        print("library: the cold run recorded no fresh tail solves")
        bad = True
    elif warm * 5 > cold:
        print(
            f"library: warm run re-solved {warm} of {cold} tail units "
            "(needs >=80% served from the store)"
        )
        bad = True
    if lib.get("loaded_solves", 0) <= 0:
        print("library: the warm engine loaded no solves from the store")
        bad = True
    if not lib.get("lib_loaded"):
        print("library: the warm engine rebuilt the graph library")
        bad = True
    if not bad:
        print(
            f"library store consistent: {cold} -> {warm} fresh tail solves "
            f"({lib.get('loaded_solves')} loaded)"
        )
    return bad


def check_chip_scale(fresh, committed) -> bool:
    """Internal consistency of the fresh run's chip_scale section, plus
    a cross-run comparison of its deterministic fields.

    The harness asserts in-binary that the tiled parity probe's digest
    equals the serial one and that the boundary cost audit came back
    clean; the guard re-checks the recorded flags. When the committed
    artifact ran the same target size and seed, the deterministic
    geometry/graph/cost fields must match exactly — the generator, the
    tiler, and the solve are all seed-keyed. Returns True when something
    diverged.
    """
    chip = fresh.get("chip_scale")
    if chip is None:
        print("fresh run lacks a chip_scale section")
        return True
    bad = False
    if not chip.get("boundary_audit_clean"):
        print("chip_scale: boundary_audit_clean is not true")
        bad = True
    probe = chip.get("parity_probe") or {}
    if not probe.get("digest_equal_serial"):
        print("chip_scale: parity_probe.digest_equal_serial is not true")
        bad = True
    if chip.get("rects", 0) < chip.get("target_rects", 0):
        print(
            f"chip_scale: generated {chip.get('rects')} rects, "
            f"below the {chip.get('target_rects')} target"
        )
        bad = True
    if chip.get("tiles", 0) <= 1:
        print("chip_scale: layout degenerated to a single tile")
        bad = True
    ref = (committed or {}).get("chip_scale")
    if ref is not None and ref.get("target_rects") == chip.get("target_rects"):
        for key in (
            "rects",
            "features",
            "tiles",
            "edges",
            "boundary_edges",
            "boundary_resolves",
            "units",
            "conflicts",
            "stitches",
            "objective",
        ):
            if chip.get(key) != ref.get(key):
                print(
                    f"chip_scale.{key} = {chip.get(key)} differs from "
                    f"committed {ref.get(key)}"
                )
                bad = True
    elif ref is not None:
        print(
            f"chip_scale target mismatch ({chip.get('target_rects')} vs "
            f"{ref.get('target_rects')}): cross-run comparison skipped"
        )
    if not bad:
        print(
            f"chip_scale consistent: {chip.get('rects')} rects over "
            f"{chip.get('tiles')} tiles, audit clean"
        )
    return bad


def main() -> int:
    fresh_path, committed_path = sys.argv[1], sys.argv[2]
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(committed_path) as f:
        committed = json.load(f)

    # Internal consistency first: each section is checked within the
    # fresh run itself (host- and knob-independent), so these gates apply
    # even when cross-run comparison is skipped.
    serving_bad = committed.get("serving") is not None and check_serving(fresh)
    if serving_bad:
        print("serving tier DIVERGED from the fresh run's own serial digests")
    resume_bad = committed.get("serving_resume") is not None and check_serving_resume(
        fresh
    )
    if resume_bad:
        print("serving_resume tier DIVERGED from the fresh run's own cold digest")
    library_bad = committed.get("library") is not None and check_library(fresh)
    if library_bad:
        print("library tier DIVERGED from the fresh run's own cold digests")
    # Chip-scale: the audit/parity flags are host-independent; the
    # deterministic cross-run fields are only comparable when both runs
    # generated from the same seed.
    chip_ref = committed if fresh.get("seed") == committed.get("seed") else None
    chip_bad = committed.get("chip_scale") is not None and check_chip_scale(
        fresh, chip_ref
    )
    if chip_bad:
        print("chip_scale tier DIVERGED (audit, parity probe, or digest)")
    sections_bad = serving_bad or resume_bad or library_bad or chip_bad

    if fresh.get("fp_kernel") != committed.get("fp_kernel"):
        print(
            f"fp_kernel mismatch ({fresh.get('fp_kernel')} vs "
            f"{committed.get('fp_kernel')}): skipping digest comparison"
        )
        return 1 if sections_bad else 0
    if fresh.get("seed") != committed.get("seed"):
        print(
            f"seed mismatch ({fresh.get('seed')} vs {committed.get('seed')}): "
            "skipping digest comparison"
        )
        return 1 if sections_bad else 0
    # Training config determines the model weights and hence routing;
    # quick runs (MPLD_EPOCHS / MPLD_TRAIN_CAP overrides) are not
    # comparable to the committed full run.
    for knob in ("train_cap", "epochs"):
        if fresh.get(knob) != committed.get(knob):
            print(
                f"{knob} mismatch ({fresh.get(knob)} vs "
                f"{committed.get(knob)}): skipping digest comparison"
            )
            return 1 if sections_bad else 0

    committed_rows = {
        r["name"]: r for r in committed["adaptive"]["per_circuit"]
    }
    bad = False
    compared = 0
    for row in fresh["adaptive"]["per_circuit"]:
        ref = committed_rows.get(row["name"])
        if ref is None:
            continue
        compared += 1
        for key in ("units", "conflicts", "stitches", "engines"):
            if row.get(key) != ref.get(key):
                print(
                    f"{row['name']}: {key} = {row.get(key)} differs from "
                    f"committed {ref.get(key)}"
                )
                bad = True
    if compared == 0:
        print("no overlapping circuits to compare")
        return 1

    # Training digest: the final per-head losses and the labeled/deduped
    # unit counts are deterministic given seed + kernel + training
    # config, so any drift means the training pipeline changed behavior
    # (dedup miscopying labels, batching perturbing the trajectory, ...).
    ft, ct = fresh.get("training"), committed.get("training")
    if ft is not None and ct is not None:
        if ft.get("train_seed") != ct.get("train_seed"):
            print(
                f"train_seed mismatch ({ft.get('train_seed')} vs "
                f"{ct.get('train_seed')}): skipping training digest"
            )
        else:
            for key in ("labeled_units", "deduped_units"):
                if ft.get(key) != ct.get(key):
                    print(
                        f"training.{key} = {ft.get(key)} differs from "
                        f"committed {ct.get(key)}"
                    )
                    bad = True
            for head, loss in (ft.get("final_losses") or {}).items():
                ref_loss = (ct.get("final_losses") or {}).get(head)
                if loss != ref_loss:
                    print(
                        f"training.final_losses.{head} = {loss} differs "
                        f"from committed {ref_loss}"
                    )
                    bad = True
    elif ct is not None:
        print("fresh run lacks a training section")
        bad = True

    if sections_bad:
        bad = True

    if bad:
        print("routing/cost/training digest DIVERGED from the committed artifact")
        return 1
    print(
        f"routing/cost/training digest matches the committed artifact "
        f"({compared} circuits)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
