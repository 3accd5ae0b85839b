//! Micro-benchmarks of the packed-state kernels introduced by the
//! branchless/allocation-free redesign: the nibble-packed replacement-rank
//! update, the paged shadow-table lookup (vs. the `FxHashMap` it replaced),
//! and the oracle predictor's arena-cursor generation advance.
//!
//! These isolate the per-access primitives that `end_to_end` in
//! `simulator.rs` pays millions of times per run; regressions here show up
//! before they wash out in whole-simulation noise.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use edbp_core::{
    FxHashMap, LeakagePredictor, OraclePredictor, OracleRecorder, PagedTable, TickOutcome,
};
use ehs_cache::probe::probe;
use ehs_cache::{AccessKind, BlockId, Cache, CacheConfig, ReplacementPolicy};
use ehs_sim::{
    build_lane, record_generation_trace, run_lane, run_lockstep, Scheme, Simulation, SystemConfig,
};
use ehs_units::Voltage;
use ehs_workloads::{build, AppId, Scale};
use std::hint::black_box;

const BLOCK: u64 = 16;

/// The tag probe, per associativity. Every d-cache access pays exactly one
/// of these. The mix alternates hits and misses so the comparison outcome
/// is not branch-predictable into irrelevance.
fn tag_probe(c: &mut Criterion) {
    const PROBES: u64 = 1024;
    let mut group = c.benchmark_group("tag_probe");
    group.throughput(Throughput::Elements(PROBES));
    for ways in [1usize, 2, 4, 8, 16] {
        let tags: Vec<u64> = (0..ways as u64).map(|w| 0x1000 + w).collect();
        // Cycles through every way plus one guaranteed miss.
        let needle = |i: u64| 0x1000 + i % (ways as u64 + 1);
        group.bench_function(&format!("probe_w{ways}"), |b| {
            b.iter(|| {
                let mut acc = 0u32;
                for i in 0..PROBES {
                    acc ^= probe(black_box(&tags), black_box(needle(i)));
                }
                acc
            })
        });
    }
    group.finish();
}

/// The per-hit replacement-rank update. Every policy keeps its per-set rank
/// state in one packed `u64` word (4-bit lane per way), so a hit's
/// promotion is a handful of shifts and masks; this measures that update
/// across the three policies on an all-resident set stream.
fn policy_rank_update(c: &mut Criterion) {
    const HITS: u64 = 1024;
    let mut group = c.benchmark_group("policy_update");
    group.throughput(Throughput::Elements(HITS));
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Fifo,
    ] {
        group.bench_function(policy.name(), |b| {
            let mut cache = Cache::new(CacheConfig::paper_dcache().with_policy(policy));
            for i in 0..256u64 {
                cache.lookup(i * BLOCK, AccessKind::Read);
                cache.fill(i * BLOCK, &[0u8; BLOCK as usize], false);
            }
            b.iter(|| {
                let mut hits = 0u64;
                for i in 0..HITS {
                    // Stride of 7 blocks keeps consecutive hits off the MRU
                    // way, so every lookup actually rewrites the rank word.
                    let addr = (i * 7 % 256) * BLOCK;
                    hits += u64::from(cache.lookup(black_box(addr), AccessKind::Read).is_hit());
                }
                hits
            })
        });
    }
    group.finish();
}

/// The shadow-table primitive behind the prediction ledger, reuse flags,
/// parked set, AMC and zombie bookkeeping: a two-level paged direct-index
/// table, benchmarked against the `FxHashMap` it replaced, on the same
/// block-aligned resident-set stream (4096 blocks, strided probes).
fn shadow_table_lookup(c: &mut Criterion) {
    const RESIDENT: u64 = 4096;
    const PROBES: u64 = 1024;
    let probe_addr = |i: u64| (i * 31 % RESIDENT) * BLOCK;

    let mut group = c.benchmark_group("shadow_table");
    group.throughput(Throughput::Elements(PROBES));

    group.bench_function("paged_get_1k", |b| {
        let mut table: PagedTable<u32> = PagedTable::for_block_bytes(BLOCK as u32);
        for i in 0..RESIDENT {
            table.insert(i * BLOCK, i as u32);
        }
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..PROBES {
                acc += table.get(black_box(probe_addr(i))).copied().unwrap_or(0) as u64;
            }
            acc
        })
    });
    group.bench_function("fxhash_get_1k", |b| {
        let mut table: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..RESIDENT {
            table.insert(i * BLOCK, i as u32);
        }
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..PROBES {
                acc += table.get(&black_box(probe_addr(i))).copied().unwrap_or(0) as u64;
            }
            acc
        })
    });

    group.bench_function("paged_insert_remove_1k", |b| {
        let mut table: PagedTable<u32> = PagedTable::for_block_bytes(BLOCK as u32);
        for i in 0..RESIDENT {
            table.insert(i * BLOCK, i as u32);
        }
        b.iter(|| {
            for i in 0..PROBES {
                let addr = probe_addr(i);
                table.remove(addr);
                table.insert(addr, i as u32);
            }
            table.len()
        })
    });
    group.bench_function("paged_remove_batch_1k", |b| {
        // The batch cursor on its target shape: an ascending block-aligned
        // drain (resident-set walks, tick gate lists) resolves each
        // 1024-slot page once instead of per address.
        let mut table: PagedTable<u32> = PagedTable::for_block_bytes(BLOCK as u32);
        b.iter(|| {
            table.fill_batch((0..PROBES).map(|i| i * BLOCK), 1);
            let mut drained = 0u64;
            table.remove_batch((0..PROBES).map(|i| i * BLOCK), |_, _| drained += 1);
            drained
        })
    });
    group.bench_function("paged_remove_scalar_1k", |b| {
        let mut table: PagedTable<u32> = PagedTable::for_block_bytes(BLOCK as u32);
        b.iter(|| {
            for i in 0..PROBES {
                table.insert(i * BLOCK, 1);
            }
            let mut drained = 0u64;
            for i in 0..PROBES {
                drained += u64::from(table.remove(i * BLOCK).is_some());
            }
            drained
        })
    });
    group.bench_function("fxhash_insert_remove_1k", |b| {
        let mut table: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..RESIDENT {
            table.insert(i * BLOCK, i as u32);
        }
        b.iter(|| {
            for i in 0..PROBES {
                let addr = probe_addr(i);
                table.remove(&addr);
                table.insert(addr, i as u32);
            }
            table.len()
        })
    });
    group.finish();
}

/// The oracle's replay path: each fill advances a per-address `(next, end)`
/// cursor into the flattened generation arena, each access decrements the
/// live budget, each eviction retires the generation. One iteration replays
/// 512 addresses x 4 generations x 3 accesses against a cloned predictor,
/// then drains the kill queue through a `tick`.
fn oracle_generation_advance(c: &mut Criterion) {
    const ADDRS: u64 = 512;
    const GENS: usize = 4;

    let mut rec = OracleRecorder::new();
    for _ in 0..GENS {
        for a in 0..ADDRS {
            let addr = a * BLOCK;
            rec.on_fill(addr);
            rec.on_hit(addr);
            rec.on_hit(addr);
            rec.on_evict(addr);
        }
    }
    let oracle = OraclePredictor::new(rec.finish());
    let dummy = BlockId { set: 0, way: 0 };

    let mut group = c.benchmark_group("oracle");
    group.throughput(Throughput::Elements(ADDRS * GENS as u64));
    group.bench_function("generation_advance_2k", |b| {
        let cache = Cache::new(CacheConfig::paper_dcache());
        let mut scratch = Cache::new(CacheConfig::paper_dcache());
        let mut out = TickOutcome::default();
        b.iter_batched(
            || oracle.clone(),
            |mut o| {
                for _ in 0..GENS {
                    for a in 0..ADDRS {
                        let addr = a * BLOCK;
                        o.on_fill(&cache, dummy, black_box(addr));
                        o.on_hit(&cache, dummy, addr);
                        o.on_hit(&cache, dummy, addr);
                        o.on_evict(addr);
                    }
                }
                out.clear();
                o.tick_into(&mut scratch, Voltage::from_volts(3.2), 0, &mut out);
                black_box(out.gated.len())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The enum-to-generic dispatch payoff, measured end to end on a bounded
/// run: the legacy `Box<dyn LeakagePredictor>` `Simulation` vs the
/// monomorphized lane `build_lane` resolves for the same scheme. The two
/// produce bit-identical results (`kernel_matrix` asserts it); this measures
/// what routing every per-access predictor hook through static dispatch is
/// worth in instructions per second.
fn dispatch_dyn_vs_mono(c: &mut Criterion) {
    const BUDGET: u64 = 40_000;
    let mut config = SystemConfig::paper_default();
    config.max_instructions = BUDGET;
    let workload = build(AppId::Crc32, Scale::Tiny);

    let mut group = c.benchmark_group("dispatch");
    group.throughput(Throughput::Elements(BUDGET));
    group.bench_function("dyn_simulation", |b| {
        b.iter(|| {
            Simulation::new(&config, Scheme::DecayEdbp, workload.clone(), None)
                .run_collecting()
                .result
                .committed
        })
    });
    group.bench_function("mono_lane", |b| {
        b.iter(|| {
            let lane = build_lane(&config, Scheme::DecayEdbp, workload.clone(), None, false)
                .expect("paper-default energy configuration is valid");
            run_lane(lane).result.committed
        })
    });
    group.finish();
}

/// Lockstep amortization: the same bounded workload replayed by 1, 4 and 9
/// scheme lanes through [`run_lockstep`]. Throughput counts *total*
/// committed instructions, so the wide rosters show how much
/// per-instruction cost the shared stream amortizes away.
fn lockstep_scaling(c: &mut Criterion) {
    const BUDGET: u64 = 20_000;
    let mut config = SystemConfig::paper_default();
    config.max_instructions = BUDGET;
    let workload = build(AppId::Crc32, Scale::Tiny);
    let oracle = record_generation_trace(&config, workload.clone());

    let lanes = |schemes: &[Scheme]| {
        schemes
            .iter()
            .map(|&scheme| {
                let trace = scheme.needs_oracle_trace().then(|| oracle.clone());
                build_lane(&config, scheme, workload.clone(), trace, false)
                    .expect("paper-default energy configuration is valid")
            })
            .collect::<Vec<_>>()
    };

    let mut group = c.benchmark_group("lockstep");
    for (label, schemes) in [
        ("lanes_1", &[Scheme::DecayEdbp][..]),
        (
            "lanes_4",
            &[Scheme::Baseline, Scheme::Decay, Scheme::Edbp, Scheme::Ideal][..],
        ),
        ("lanes_9", &Scheme::ALL[..]),
    ] {
        group.throughput(Throughput::Elements(BUDGET * schemes.len() as u64));
        group.bench_function(label, |b| {
            b.iter(|| {
                run_lockstep(lanes(schemes))
                    .iter()
                    .map(|o| o.result.committed)
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    tag_probe,
    policy_rank_update,
    shadow_table_lookup,
    oracle_generation_advance,
    dispatch_dyn_vs_mono,
    lockstep_scaling
);
criterion_main!(kernels);
