//! The seeded generator and the cost counts: the same seed replays the
//! same inputs and counts; another seed changes the inputs, not the
//! counts. Also keeps `BENCHMARK.json` in step with the catalogue.

use qr3d_core::session::Session;
use qr3d_machine::Clock;
use qr3d_matrix::Matrix;
use qr3d_perfbench::gen::{stream_order, RequestMix};
use qr3d_perfbench::report::{Better, END_TO_END, PER_LAYER};
use qr3d_perfbench::run::cost_per_op;
use qr3d_perfbench::spec::Workload;
use qr3d_perfbench::workloads::Inputs;

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn same_inputs(a: &Inputs, b: &Inputs) -> bool {
    let (a, b) = (a.matrices(), b.matrices());
    a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| bits(x) == bits(y))
}

fn cost(w: Workload, seed: u64) -> Clock {
    let inputs = Inputs::generate(w, seed);
    let mut session = Session::new(w.procs(), w.params());
    cost_per_op(w, &inputs, seed, &mut session).expect("workload inputs factor")
}

#[test]
fn a_seed_replays_its_inputs_and_another_seed_changes_them() {
    for w in Workload::ALL {
        let a = Inputs::generate(w, 11);
        assert!(same_inputs(&a, &Inputs::generate(w, 11)), "{}", w.name());
        let b = Inputs::generate(w, 12);
        let (ma, mb) = (a.matrices(), b.matrices());
        assert_eq!(ma.len(), mb.len());
        assert!(
            ma.iter().zip(&mb).all(|(x, y)| bits(x) != bits(y)),
            "{}: every input changes with the seed",
            w.name()
        );
    }
    let mix: Vec<_> = RequestMix::new(5).take(200).collect();
    assert_eq!(mix, RequestMix::new(5).take(200).collect::<Vec<_>>());
    assert_ne!(mix, RequestMix::new(6).take(200).collect::<Vec<_>>());
    assert_eq!(stream_order(5, 3), stream_order(5, 3));
    assert_ne!(stream_order(5, 3), stream_order(6, 3));
    assert_ne!(stream_order(5, 3), stream_order(5, 4));
}

#[test]
fn cost_counts_repeat_exactly_and_ignore_the_seed() {
    for w in Workload::ALL {
        let first = cost(w, 21);
        assert!(first.flops > 0.0 && first.words > 0.0 && first.msgs > 0.0);
        assert_eq!(first, cost(w, 21), "{}: same seed", w.name());
        assert_eq!(first, cost(w, 22), "{}: another seed", w.name());
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
        assert!(json.contains(&entry), "missing workload entry {entry}");
    }
    for (catalogue, bounded) in [(END_TO_END, true), (PER_LAYER, false)] {
        for (name, unit, better, _) in catalogue {
            let dir = if *better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{dir}\"");
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("missing metric {entry}"));
            let rest = &json[at + entry.len()..];
            assert_eq!(rest.starts_with(", \"bound\": "), bounded, "{name}: bound");
        }
    }
    let declared = json.matches("\"unit\": ").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len(),
        "no metric beyond the catalogue"
    );
}
