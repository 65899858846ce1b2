//! Self-tests of the benchmark at tiny sizes: the result line carries every
//! metric `BENCHMARK.json` names, with its unit; fingerprints repeat at one
//! seed; a corrupted output counts as a failed trial.

use local_lcl::Labeling;
use local_model::Outcome;
use perfbench::meter::Meter;
use perfbench::workloads::{Adversary, Heal, LclTally, Scale, Separation};
use perfbench::Tally;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(items) => items,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn s<'a>(v: &'a Value, key: &str) -> &'a str {
    v.field(key).unwrap().as_str().unwrap()
}

/// `(name, unit)` of every metric in section `key` of `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    array(benchmark_json().field(key).unwrap())
        .iter()
        .map(|m| (s(m, "name").to_string(), s(m, "unit").to_string()))
        .collect()
}

fn workload_names() -> Vec<String> {
    array(benchmark_json().field("workloads").unwrap())
        .iter()
        .map(|w| s(w, "name").to_string())
        .collect()
}

/// A trace directory per run, so tests running in parallel never share one.
fn trace_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}-{seed}"))
}

/// Run one tiny workload; returns standard output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let bin = if trace {
        env!("CARGO_BIN_EXE_perfbench_traced")
    } else {
        env!("CARGO_BIN_EXE_perfbench")
    };
    let mut cmd = Command::new(bin);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--tiny"]);
    if trace {
        cmd.arg("--trace-dir").arg(trace_dir(workload, seed));
    }
    let out = cmd.output().expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

fn result(stdout: &str) -> Value {
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

fn fingerprint(stdout: &str) -> String {
    let meta = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# meta "))
        .expect("a meta line");
    let meta: Value = serde_json::from_str(meta).expect("meta is JSON");
    s(&meta, "fingerprint").to_string()
}

/// The result line of every workload holds exactly the declared metrics,
/// each with its declared unit, and every one is also printed by name.
#[test]
fn every_metric_prints_with_its_unit() {
    let names = workload_names();
    assert_eq!(names, perfbench::workloads::NAMES);
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for w in &names {
            let stdout = run(w, 1, trace);
            let res = result(&stdout);
            let keys: Vec<&str> = entries(&res).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(res.field("correct").unwrap(), &Value::Bool(true), "{w}");
            assert_eq!(res.field("failed").unwrap(), &Value::U64(0), "{w}");
            let got: Vec<(String, String)> = entries(res.field("metrics").unwrap())
                .iter()
                .map(|(k, v)| (k.clone(), s(v, "unit").to_string()))
                .collect();
            assert_eq!(got, want, "{w} --trace {}", u8::from(trace));
            for (name, unit) in &want {
                assert!(
                    stdout.lines().any(|l| {
                        let cols: Vec<&str> = l.split_whitespace().collect();
                        cols.len() >= 3 && cols[0] == name && cols[2] == unit
                    }),
                    "{w}: no `{name} <value> {unit}` line"
                );
            }
        }
    }
}

#[test]
fn fingerprints_repeat_at_one_seed() {
    for w in perfbench::workloads::NAMES {
        let a = fingerprint(&run(w, 7, false));
        let b = fingerprint(&run(w, 7, false));
        assert_eq!(a, b, "{w}");
        let traced = fingerprint(&run(w, 7, true));
        assert_eq!(a, traced, "{w}: tracing changed the outputs");
    }
}

/// Flip vertex `v`'s label in a copy of `labels`.
fn flipped<L: Clone>(labels: &Labeling<L>, v: usize, to: L) -> Labeling<L> {
    let mut out = labels.as_slice().to_vec();
    out[v] = to;
    Labeling::new(out)
}

/// Real trial outputs pass each workload's own verdict, the one its trial
/// reports; a corrupted copy fails it and counts as a failed trial.
#[test]
fn corrupted_outputs_count_as_failed() {
    let mut tally = Tally::default();
    let took = Duration::from_millis(1);
    let mut record = |ok: bool| tally.record(ok, took);
    let m = &mut Meter::off();
    let lcl = &mut LclTally::default();

    // separation: a vertex recoloured to clash with its parent, in either
    // colouring.
    let w = Separation::new(true, m);
    let out = w.outputs(3, m).expect("Theorem 10 runs");
    record(w.verdict(&out, lcl, m));
    let mut bad = w.outputs(3, m).unwrap();
    let parent = *bad.det.coloring.labels.get(0);
    bad.det.coloring.labels = flipped(&bad.det.coloring.labels, 1, parent);
    record(w.verdict(&bad, lcl, m));
    let mut bad = w.outputs(3, m).unwrap();
    let parent = *bad.rand.coloring.labels.get(0);
    bad.rand.coloring.labels = flipped(&bad.rand.coloring.labels, 1, parent);
    record(w.verdict(&bad, lcl, m));

    // scale: a flipped MIS bit; a flood output one short of its reach; a
    // vertex Luby left undecided.
    let w = Scale::new(true, m).unwrap();
    let out = w.outputs(3, m).expect("the flood halts");
    record(w.verdict(&out, lcl, m));
    let mut bad = w.outputs(3, m).unwrap();
    let Outcome::Halted { output, .. } = &mut bad.luby.outcomes[5] else {
        panic!("fault-free Luby halts everywhere");
    };
    *output = !*output;
    record(w.verdict(&bad, lcl, m));
    let mut bad = w.outputs(3, m).unwrap();
    bad.flood.outputs[100] -= 1;
    record(w.verdict(&bad, lcl, m));
    let mut bad = w.outputs(3, m).unwrap();
    bad.luby.outcomes[7] = Outcome::Cut;
    record(w.verdict(&bad, lcl, m));

    // heal: a flipped bit in the recovered splice.
    let w = Heal::new(3, true, m).unwrap();
    let out = w.outputs(3, m);
    record(w.verdict(&out, lcl, m));
    let mut bad = w.outputs(3, m);
    let rec = bad.rec.as_mut().expect("E13's point recovers");
    let bit = !*rec.labels.get(9);
    rec.labels = flipped(&rec.labels, 9, bit);
    record(w.verdict(&bad, lcl, m));

    // adversary: a best score the best plan does not replay to.
    let w = Adversary::new(true, m).unwrap();
    let out = w.outputs(3, m);
    record(w.verdict(&out, m));
    let mut bad = w.outputs(3, m);
    bad[2].best_objective += 1;
    record(w.verdict(&bad, m));

    assert_eq!(tally.attempted, 11);
    assert_eq!(tally.failed, 7);
}

#[test]
fn malformed_command_lines_are_rejected() {
    let args =
        |a: &[&str]| perfbench::parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(args(&["--workload", "heal"]).is_ok());
    assert!(args(&["--workload", "warp"]).is_err());
    assert!(args(&["--workload", "heal", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "heal", "--seconds", "-1"]).is_err());
    assert!(args(&["--workload", "heal", "--seed"]).is_err());
    assert!(args(&["--workload", "heal", "--bogus", "1"]).is_err());
}
