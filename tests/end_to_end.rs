//! Cross-crate integration tests: the full pipeline from codecs through
//! the 2D engine to the protected cache, exercised the way a downstream
//! user would.

use ecc::{Bits, CodeKind, Decoded};
use memarray::{ErrorShape, TwoDArray, TwoDConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twod_cache::{CacheConfig, ProtectedCache, TwoDScheme};

#[test]
fn codeword_survives_storage_and_interleaving() {
    // Encode with every paper code, store through the interleaved layout,
    // read back, decode — the full storage path.
    let mut rng = StdRng::seed_from_u64(1);
    for kind in CodeKind::paper_set() {
        let code = kind.build(64);
        let layout = memarray::RowLayout::new(64, code.check_bits(), 4);
        let mut row = Bits::zeros(layout.row_cols());
        let mut reference = Vec::new();
        for w in 0..4 {
            let data = Bits::from_u64(rng.gen(), 64);
            let check = code.encode(&data);
            layout.place_word(&mut row, w, &data, &check);
            reference.push(data);
        }
        for w in 0..4 {
            let data = layout.extract_data(&row, w);
            let check = layout.extract_check(&row, w);
            assert_eq!(
                code.decode(&data, &check),
                Decoded::Clean,
                "{kind} word {w}"
            );
            assert_eq!(data, reference[w]);
        }
    }
}

#[test]
fn cache_workload_with_interleaved_faults() {
    // Run a pseudo-random working set against a protected cache while
    // injecting faults between batches; every read must stay correct.
    let mut rng = StdRng::seed_from_u64(2);
    let mut cache = ProtectedCache::new(CacheConfig {
        sets: 32,
        ways: 2,
        ..CacheConfig::l1_64kb()
    });
    let mut shadow = std::collections::HashMap::new();
    for batch in 0..6 {
        for _ in 0..64 {
            let addr = (rng.gen_range(0..512u64)) * 8;
            let value: u64 = rng.gen();
            cache.write(addr, value).unwrap();
            shadow.insert(addr, value);
        }
        // Inject an escalating clustered error each batch.
        let size = 4 * (batch + 1);
        cache.inject_data_error(ErrorShape::Cluster {
            row: rng.gen_range(0..16),
            col: rng.gen_range(0..128),
            height: size.min(32),
            width: size.min(32),
        });
        for (&addr, &value) in &shadow {
            assert_eq!(
                cache.read(addr).unwrap(),
                value,
                "batch {batch} addr {addr:#x}"
            );
        }
    }
    assert!(cache.audit());
}

#[test]
fn yield_mode_cache_absorbs_hard_errors() {
    // SECDED horizontal + vertical parity: stuck cells are corrected
    // in-line, soft clusters on top are recovered, reads never lie.
    let mut cache = ProtectedCache::new(CacheConfig {
        sets: 32,
        ways: 2,
        data_scheme: TwoDScheme::yield_mode(),
        tag_scheme: TwoDScheme {
            data_bits: CacheConfig::l1_64kb().tag_scheme.data_bits,
            ..TwoDScheme::yield_mode()
        },
    });
    let mut rng = StdRng::seed_from_u64(3);
    let mut shadow = std::collections::HashMap::new();
    for _ in 0..128 {
        let addr = (rng.gen_range(0..256u64)) * 8;
        let value: u64 = rng.gen();
        cache.write(addr, value).unwrap();
        shadow.insert(addr, value);
    }
    // Manufacture-time hard errors: several stuck cells.
    for _ in 0..4 {
        cache.inject_data_hard_error(
            ErrorShape::Single {
                row: rng.gen_range(0..32),
                col: rng.gen_range(0..128),
            },
            rng.gen(),
        );
    }
    // Plus an in-field soft cluster.
    cache.inject_data_error(ErrorShape::Cluster {
        row: 8,
        col: 8,
        height: 8,
        width: 8,
    });
    for (&addr, &value) in &shadow {
        assert_eq!(cache.read(addr).unwrap(), value, "addr {addr:#x}");
    }
}

#[test]
fn recovery_latency_scales_with_rows() {
    // The paper likens 2D recovery to a BIST march: latency proportional
    // to the number of rows scanned.
    let mut costs = Vec::new();
    for rows in [64usize, 128, 256] {
        let mut bank = TwoDArray::new(TwoDConfig {
            rows,
            horizontal: CodeKind::Edc(8),
            data_bits: 64,
            interleave: 4,
            vertical_rows: 32,
        });
        let word = Bits::from_u64(0xABCD, 64);
        for r in 0..rows {
            bank.write_word(r, 0, &word);
        }
        bank.inject(ErrorShape::Single { row: 5, col: 2 });
        let report = bank.recover().unwrap();
        costs.push(report.cycles);
    }
    assert!(costs[1] >= costs[0] * 2 - 16, "{costs:?}");
    assert!(costs[2] >= costs[1] * 2 - 16, "{costs:?}");
}

#[test]
fn figure_pipeline_smoke() {
    // The analysis pipelines behind Figures 1, 7, and 8 compose without
    // panicking and preserve their headline orderings.
    use cachegeom::{energy_overhead, storage_overhead, CacheSpec, CostModel, Objective};
    use reliability::{FieldModel, RepairScheme, YieldModel};
    use twod_cache::analysis::{figure7, ComparedScheme};

    let model = CostModel::default();
    let spec = CacheSpec::l1_64kb();
    assert!(storage_overhead(CodeKind::Oecned, 64) > storage_overhead(CodeKind::Secded, 64));
    assert!(
        energy_overhead(&model, &spec, CodeKind::Oecned, Objective::Balanced)
            > energy_overhead(&model, &spec, CodeKind::Secded, Objective::Balanced)
    );

    let reports = figure7(&model, &spec, &ComparedScheme::figure7_l1_set());
    assert!(reports[0].dynamic_power < reports[3].dynamic_power);

    let ym = YieldModel::l2_16mb();
    assert!(
        ym.yield_probability(2000, RepairScheme::EccPlusSpares(32))
            > ym.yield_probability(2000, RepairScheme::EccOnly)
    );
    assert!(FieldModel::paper_system(0.005e-2).success_without_2d(5.0) < 0.5);
}

#[test]
fn simulator_and_engine_agree_on_extra_read_fraction() {
    // Fig. 6 says 2D adds ~20% more cache accesses. The cycle simulator
    // and the functional engine measure this independently; both must
    // land in the same band for write-heavy workloads.
    use cachesim::{run_sim, ProtectionPolicy, SystemConfig, WorkloadProfile};

    let stats = run_sim(
        SystemConfig::fat_cmp(),
        ProtectionPolicy::full(),
        WorkloadProfile::ocean(),
        30_000,
        11,
    );
    let sim_fraction = stats.l1_extra_2d as f64
        / (stats.l1_read_data + stats.l1_write + stats.l1_fill_evict + stats.l1_extra_2d) as f64;

    let mut bank = TwoDArray::new(TwoDConfig {
        rows: 64,
        horizontal: CodeKind::Edc(8),
        data_bits: 64,
        interleave: 4,
        vertical_rows: 16,
    });
    let mut rng = StdRng::seed_from_u64(4);
    // Ocean-like mix: ~2 reads per write.
    for _ in 0..3000 {
        let r = rng.gen_range(0..64);
        let w = rng.gen_range(0..4);
        if rng.gen_bool(0.33) {
            bank.write_word(r, w, &Bits::from_u64(rng.gen(), 64));
        } else {
            let _ = bank.read_word(r, w).unwrap();
        }
    }
    let engine_fraction = bank.stats().extra_read_fraction();
    assert!(
        (sim_fraction - engine_fraction).abs() < 0.15,
        "simulator {sim_fraction:.3} vs engine {engine_fraction:.3}"
    );
}
