//! Library-level usage: drive a cache and the EDBP predictor by hand, no
//! full-system simulator — useful for studying the predictor's decisions in
//! isolation (unit-test style exploration).
//!
//! Run with: `cargo run --release --example predictor_playground`

use edbp_repro::cache::{AccessKind, Cache, CacheConfig};
use edbp_repro::edbp::{Edbp, EdbpConfig, LeakagePredictor};
use edbp_repro::units::Voltage;

fn main() {
    let mut cache = Cache::new(CacheConfig::paper_dcache());
    let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
    println!(
        "armed thresholds: {:?} V",
        edbp.thresholds()
            .iter()
            .map(|t| t.as_volts())
            .collect::<Vec<_>>()
    );

    // Fill one set completely: addresses 0x400 apart collide (64 sets, 16 B).
    for (i, addr) in [0x000u64, 0x400, 0x800, 0xC00].iter().enumerate() {
        cache.lookup(*addr, AccessKind::Read, |_, _| {});
        let frame = cache.fill(*addr, &[i as u8; 16], false);
        edbp.on_fill(&cache, frame, *addr);
    }
    // Touch 0x000 so it becomes MRU.
    if let edbp_repro::cache::LookupResult::Hit(block) =
        cache.lookup(0x000, AccessKind::Read, |_, _| {})
    {
        edbp.on_hit(&cache, block, 0x000);
    }

    println!("\nvoltage decays toward the outage:");
    for millivolts in [3450, 3290, 3260, 3230] {
        let v = Voltage::from_milli_volts(f64::from(millivolts));
        let outcome = edbp.tick(&mut cache, v, 0);
        let gated: Vec<String> = outcome
            .gated
            .iter()
            .map(|g| format!("{:#05x}{}", g.addr, if g.dirty { " (dirty)" } else { "" }))
            .collect();
        println!(
            "  {:.2} V -> level {} gated {:?} ({} frames dark)",
            v.as_volts(),
            edbp.level(),
            gated,
            cache.gated_blocks()
        );
    }
    println!(
        "\nMRU block 0x000 still resident: {}",
        cache.contains(0x000).is_some()
    );

    // Power failure: the cache dies, EDBP re-arms and adapts.
    cache.power_fail();
    edbp.on_reboot(&cache);
    println!(
        "after reboot: level {} | FPR of last cycle {:.1}%",
        edbp.level(),
        edbp.false_positive_rate() * 100.0
    );
}
