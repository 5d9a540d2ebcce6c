"""Build perfbench/reference.json, the expected outputs the benchmark checks.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It computes every reference, then cross-checks each corpus group of order
at most 5040 with the element-level oracle (``oracle_equivalence_sweep``),
and only then writes the file.  The oracle step dominates: about half an
hour on one core of a 2-vCPU machine, most of it on S7.
"""
from __future__ import annotations

import json
import sys
import time

import corpus

sys.path.insert(0, str(corpus.BENCH_DIR.parent / "src"))

from fszd import Session, all_indicators, construct_group, fsz_test, gamma, reduce_gamma_params  # noqa: E402
from fszd.oracle import oracle_equivalence_sweep  # noqa: E402

# Seeds whose relabelings must give the same labeling-invariant outputs.
CHECK_SEEDS = (corpus.DEFAULT_SEED, 2, 3)
ORACLE_MAX_ORDER = 5040
# A reduced pool entry is kept only if the cmc backend's work,
# k * |roots| * (sum of root class sizes) element products, stays under this
# limit; beyond it a single cold query takes seconds (S8 with z = 1 and
# most m take over a minute).
CMC_WORK_LIMIT = 150_000


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def check_generators() -> None:
    for name, text in corpus.GENERATORS.items():
        if name == "SL(2,3)":
            continue  # only ever given as explicit generators
        built = ";".join(g.cycle_string() for g in construct_group(name).generators)
        if built != text:
            raise SystemExit(f"{name}: construct_group gives {built!r}, corpus has {text!r}")


def sweep_references(names) -> dict:
    out = {}
    for name in names:
        summaries = set()
        for seed in CHECK_SEEDS:
            text = all_indicators(Session(construct_group(corpus.relabeled_spec(name, seed)))).to_json()
            summaries.add(corpus.report_summary(text))
            if seed == corpus.DEFAULT_SEED:
                digest = corpus.sha256(text.encode())
        if len(summaries) != 1:
            raise SystemExit(f"{name}: report summary depends on the labeling")
        (simples, summary), = summaries
        out[name] = {"simples": simples, "summary": summary, "digest": digest}
        log(f"sweep reference {name}: {simples} simples")
    return out


def fsz_references() -> dict:
    out = {}
    for name, d in corpus.FSZ_DECIDE:
        results = [fsz_test(construct_group(corpus.relabeled_spec(name, s)), d) for s in CHECK_SEEDS]
        verdicts = {r.verdict for r in results}
        if len(verdicts) != 1:
            raise SystemExit(f"{name}: FSZ verdict depends on the labeling")
        witness = results[0].witness
        out[f"{name}/{d}"] = {
            "verdict": results[0].verdict,
            "witness": list(witness) if witness is not None else None,
        }
        log(f"fsz reference {name} d={d}: {results[0].verdict}")
    return out


def _cmc_work(session: Session, z: int, m: int) -> int:
    ccs = session.centralizer_classes(z)
    rep = session.classes.classes[z].rep
    roots = [a for a in range(len(ccs)) if ccs.classes[a].rep ** m == rep]
    return len(ccs) * len(roots) * sum(ccs.classes[a].size for a in roots)


def gamma_pool() -> dict:
    out = {}
    for name in corpus.GAMMA_COUNTS:
        session = Session(construct_group(corpus.spec(name)))
        entries, dropped = [], 0
        for z in range(len(session.classes)):
            for m in session.divisors:
                red = reduce_gamma_params(session, z, m)
                if red.kind == "reduced" and _cmc_work(session, z, red.m_reduced) > CMC_WORK_LIMIT:
                    dropped += 1
                    continue
                vectors = {
                    tuple(v.as_integer() for v in gamma(session, z, m, backend).values)
                    for backend in corpus.BACKENDS
                }
                if len(vectors) != 1:
                    raise SystemExit(f"{name} z={z} m={m}: gamma backends disagree")
                entries.append([z, m, red.kind, list(vectors.pop())])
        out[name] = entries
        log(f"gamma pool {name}: {len(entries)} entries, {dropped} dropped by the cmc work limit")
    return out


def oracle_check(names) -> dict:
    out = {}
    for name in names:
        G = construct_group(corpus.spec(name))
        if G.order() > ORACLE_MAX_ORDER:
            continue
        start = time.perf_counter()
        sweep = oracle_equivalence_sweep(G)
        if sweep.mismatches or not sweep.values_checked:
            raise SystemExit(f"{name}: oracle mismatch {sweep.mismatches[:3]}")
        out[name] = sweep.values_checked
        log(f"oracle {name}: {sweep.values_checked} values agree ({time.perf_counter() - start:.0f} s)")
    return out


def main() -> None:
    check_generators()
    reference = {
        "sweep": sweep_references(corpus.SWEEP_NONABELIAN + corpus.SWEEP_ABELIAN),
        "fsz": fsz_references(),
        "gamma_pool": gamma_pool(),
    }
    names = sorted(
        set(corpus.SWEEP_NONABELIAN + corpus.SWEEP_ABELIAN + tuple(corpus.GAMMA_COUNTS))
        | {name for name, _ in corpus.FSZ_DECIDE},
        key=lambda n: construct_group(corpus.spec(n)).order(),
    )
    reference["oracle_values_checked"] = oracle_check(names)
    with open(corpus.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    log(f"wrote {corpus.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
