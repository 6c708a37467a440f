//! The benchmark's own checks, on scaled-down copies of the workloads:
//! counted outputs follow the seed and nothing else, the traced run's
//! instruments do not change what they observe, and the metric names
//! match `BENCHMARK.json`.

use std::path::PathBuf;

use distclass_obs::Json;
use perfbench::measure::Calibrator;
use perfbench::report::{end_to_end, per_layer};
use perfbench::workloads::{run_unit, Counts, Layers, Sizes, Unit, Workload};

const SMALL: Sizes = Sizes {
    fig2_n: 80,
    centroid_n: 300,
    replay_n: 200,
    replay_rounds: 30,
};

const ROUND_SIM: [Workload; 3] = [
    Workload::Fig2Gm,
    Workload::CentroidDense,
    Workload::TraceReplay,
];

fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
}

fn unit(w: Workload, seed: u64, layers: Option<&mut Layers>) -> Unit {
    let u = run_unit(w, seed, &SMALL, &work_dir(), layers, &mut Calibrator::new());
    assert_eq!(u.failure, None, "{} seed {seed}", w.name());
    u
}

/// `rounds`, `msgs_per_node`, `bytes_per_node`, `ll_gap` and the trace
/// size, as bit patterns.
fn bits(c: &Counts) -> Vec<u64> {
    vec![
        c.rounds.to_bits(),
        c.msgs_per_node.to_bits(),
        c.bytes_per_node.to_bits(),
        c.ll_gap.unwrap_or(0.0).to_bits(),
        c.trace_bytes.unwrap_or(0),
    ]
}

#[test]
fn round_sim_counts_repeat_per_seed_and_differ_across_seeds() {
    for w in ROUND_SIM {
        let a = bits(&unit(w, 7, None).counts);
        let b = bits(&unit(w, 7, None).counts);
        assert_eq!(a, b, "{}: same seed, different counts", w.name());
        let c = bits(&unit(w, 8, None).counts);
        assert_ne!(a, c, "{}: another seed, same counts", w.name());
    }
}

#[test]
fn traced_run_observes_without_changing_outputs() {
    for w in ROUND_SIM {
        let plain = unit(w, 3, None);
        let mut layers = Layers::default();
        let traced = unit(w, 3, Some(&mut layers));
        assert_eq!(bits(&plain.counts), bits(&traced.counts), "{}", w.name());
        assert_eq!(layers.units, 1);
        assert!(!layers.core.partition_ns.is_empty(), "{}", w.name());
        assert_eq!(
            layers.round_ns.len() as f64,
            traced.counts.node_rounds / sizes_n(w)
        );
    }
}

fn sizes_n(w: Workload) -> f64 {
    match w {
        Workload::Fig2Gm => SMALL.fig2_n as f64,
        Workload::CentroidDense => SMALL.centroid_n as f64,
        Workload::TraceReplay => SMALL.replay_n as f64,
        Workload::ClusterGm => unreachable!("not a RoundSim workload"),
    }
}

#[test]
fn core_and_round_self_times_sum_to_round_time() {
    let mut layers = Layers::default();
    unit(Workload::Fig2Gm, 5, Some(&mut layers));
    let metrics = per_layer(&layers, 1.0, 1.0);
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    let parts = get("core.partition.ms") + get("core.merge_set.ms") + get("gossip.round.self_ms");
    let whole = get("gossip.round.ms");
    assert!((parts - whole).abs() <= 1e-9 * whole, "{parts} != {whole}");
}

#[test]
fn cluster_unit_passes_its_check_and_traces_the_runtime() {
    let mut layers = Layers::default();
    let u = unit(Workload::ClusterGm, 1, Some(&mut layers));
    assert!(u.counts.msgs_per_node > 0.0);
    assert!(layers.net.data > 0 && layers.net.ack > 0);
    assert!(layers.peer_lifetime_ns > 0);
    // Each merge unions both peers' collections, which passes k = 7 within
    // a few exchanges, so EM reduces here too.
    assert!(layers.core.reducing > 0);
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let produced = |ms: Vec<perfbench::report::Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), produced(end_to_end(&[], 1.0)));
    assert_eq!(
        declared("per_layer"),
        produced(per_layer(&Layers::default(), 1.0, 1.0))
    );
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
