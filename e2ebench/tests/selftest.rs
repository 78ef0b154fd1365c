//! The benchmark's own checks: determinism of the simulated metrics,
//! metric naming, agreement with `BENCHMARK.json`, and that the
//! correctness checks really catch corruption.

use bullet_e2ebench::report::{valid_name, Outcome};
use bullet_e2ebench::run::{run, Opts};
use bullet_e2ebench::workload::Kind;

/// A short run: a cut-down fixed sequence, two set-ups, a brief host
/// phase.
fn short(kind: Kind, seed: u64, trace: bool) -> Outcome {
    let mut o = Opts::new(kind, seed, 0.2, trace);
    o.fixed_steps = Some(match kind {
        Kind::WarmRead => 3000,
        Kind::ColdLarge => 60,
        Kind::SmallChurn => 600,
    });
    o.setups = 2;
    o.out_dir = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/selftest"));
    run(&o)
}

/// Metric names listed under `section` ("end_to_end" or "per_layer") in
/// the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &text[start..];
    let end = rest.find(']').expect("section closes");
    rest[..end]
        .split("\"name\"")
        .skip(1)
        .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(o: &Outcome) -> Vec<String> {
    o.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn same_seed_repeats_every_sim_metric_exactly() {
    for kind in Kind::ALL {
        let a = short(kind, 42, false);
        let b = short(kind, 42, false);
        assert!(
            a.correct && b.correct,
            "{}: {:?} {:?}",
            kind.name(),
            a.errors,
            b.errors
        );
        let sims: Vec<_> = a
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("sim_"))
            .collect();
        assert!(sims.len() >= 6, "{}: sim metrics reported", kind.name());
        for m in sims {
            assert_eq!(
                Some(m.value),
                b.get(&m.name),
                "{} {} differs",
                kind.name(),
                m.name
            );
        }
        assert_eq!(
            a.get("space_amp"),
            b.get("space_amp"),
            "{} space_amp differs",
            kind.name()
        );
    }
}

#[test]
fn metric_names_are_valid_carry_units_and_match_the_declaration() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for kind in Kind::ALL {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let o = short(kind, 7, trace);
            assert!(o.correct, "{} trace={trace}: {:?}", kind.name(), o.errors);
            for m in &o.metrics {
                assert!(valid_name(&m.name), "bad metric name {}", m.name);
                assert!(!m.unit.is_empty(), "{} has no unit", m.name);
                assert!(m.value.is_finite(), "{} is not finite", m.name);
            }
            let mut got = names(&o);
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(
                got,
                want,
                "{} trace={trace}: reported vs declared",
                kind.name()
            );
        }
    }
}

#[test]
fn a_flipped_byte_fails_the_correctness_check() {
    let mut o = Opts::new(Kind::ColdLarge, 3, 0.2, false);
    o.fixed_steps = Some(40);
    o.setups = 2;
    o.corrupt = true;
    let out = run(&o);
    assert!(!out.correct, "corruption went unnoticed");
    assert!(out.failed > 0);
    assert!(out.json().starts_with("{\"correct\": false"));
}
