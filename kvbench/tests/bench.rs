//! The benchmark's own tests: small runs of every workload pass every
//! answer check, the statistics helpers give known answers, the answer
//! checker rejects wrong answers, and every emitted metric is declared in
//! `BENCHMARK.json`.

use kvbench::data::Keyspace;
use kvbench::drive::{check, Op, Verdict};
use kvbench::report::{Outcome, END_TO_END, PER_LAYER};
use kvbench::run::{run, Args};
use kvbench::spec::{Spec, Workload, SCAN_LIMIT};
use kvbench::stats::{median, quantile, slices, summarize};
use kvbench::trace::{self_time_by_layer, self_times, Span, ROOT};
use lsm_server::Response;

fn small_run(w: Workload, trace: bool) -> Outcome {
    let args = Args {
        seed: 7,
        seconds: 0.6,
        trace,
        spans_path: None,
    };
    run(&Spec::small(w), &args).unwrap_or_else(|e| panic!("{} run failed: {e}", w.name()))
}

fn names(o: &Outcome) -> Vec<&'static str> {
    o.metrics.iter().map(|m| m.name).collect()
}

fn declared(table: &[(&'static str, &'static str)]) -> Vec<&'static str> {
    table.iter().map(|(n, _)| *n).collect()
}

#[test]
fn small_untraced_runs_pass_every_answer_check() {
    for w in Workload::ALL {
        let o = small_run(w, false);
        assert!(o.correct, "{}: {:?}", w.name(), o.notes);
        assert!(o.attempted > 0, "{} measured nothing", w.name());
        assert_eq!(o.failed, 0, "{} had refused requests", w.name());
        assert_eq!(names(&o), declared(END_TO_END), "{}", w.name());
        for m in &o.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn small_traced_runs_pass_every_answer_check() {
    for w in Workload::ALL {
        let o = small_run(w, true);
        assert!(o.correct, "{}: {:?}", w.name(), o.notes);
        assert_eq!(names(&o), declared(PER_LAYER), "{}", w.name());
        assert!(o.get("db.get_p50_ns").unwrap() > 0.0, "{}", w.name());
        assert!(
            o.get("sstable.block_open_ns").unwrap() > 0.0,
            "{}",
            w.name()
        );
        assert!(o.get("self.db_ns").unwrap() > 0.0, "{}", w.name());
    }
}

#[test]
fn percentiles_and_medians_on_known_inputs() {
    let mut v: Vec<u64> = (1..=100).rev().collect();
    let s = summarize(&mut v);
    assert_eq!(s.n, 100);
    assert_eq!(s.p50, 50.0);
    assert_eq!(s.p99, 99.0);
    assert_eq!(s.mean, 50.5);
    assert_eq!(quantile(&[], 0.5), None);
    assert_eq!(quantile(&[7], 0.99), Some(7));
    assert_eq!(quantile(&[1, 2, 3, 4], 0.5), Some(2));
    assert_eq!(quantile(&[1, 2, 3, 4], 1.0), Some(4));
    assert_eq!(quantile(&[1, 2, 3, 4], 0.0), Some(1));
    assert_eq!(summarize(&mut []).n, 0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn slices_summarize_each_slice() {
    // two half-second slices: three samples, then one
    let s = slices(&[vec![30, 10, 20], vec![40]], 0.5);
    assert_eq!(s.len(), 2);
    assert_eq!(s[0].latency.n, 3);
    assert_eq!(s[0].rate, 6.0);
    assert_eq!(s[0].latency.p50, 20.0);
    assert_eq!(s[1].latency.n, 1);
    assert_eq!(s[1].latency.p99, 40.0);
    assert_eq!(s[1].rate, 2.0);
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let span = |name, start, end, parent| Span {
        name,
        start,
        end,
        parent,
        req: 1,
    };
    let spans = [
        span("wire.request", 0, 100, ROOT),
        span("client.encode", 10, 30, 0),
        span("client.write", 20, 50, 0),
        span("client.check", 90, 120, 0),
        span("db.get", 200, 260, ROOT),
    ];
    // children cover [10, 50) and [90, 100) of the root
    assert_eq!(self_times(&spans), vec![50, 20, 30, 30, 60]);
    let by_layer = self_time_by_layer(&spans);
    assert_eq!(by_layer["wire"], 50);
    assert_eq!(by_layer["client"], 80);
    assert_eq!(by_layer["db"], 60);
}

#[test]
fn checker_rejects_wrong_answers() {
    let ks = Keyspace { seed: 3, n: 100 };
    let v = |id, version| ks.value(id, version);
    let get = |id, resp| check(&ks, Op::Get(id), &resp, 0);
    assert_eq!(get(4, Response::Value(v(4, 0))), Verdict::Ok);
    assert!(matches!(
        get(4, Response::Value(v(6, 0))),
        Verdict::Wrong(_)
    ));
    assert!(matches!(get(4, Response::NotFound), Verdict::Wrong(_)));
    assert_eq!(get(5, Response::NotFound), Verdict::Ok);
    let mut flipped = v(4, 0);
    flipped[50] ^= 1;
    assert!(matches!(
        get(4, Response::Value(flipped)),
        Verdict::Wrong(_)
    ));
    // a PUT version counts only once issued, and only for its own key
    let put1 = ks.put_key(1);
    assert_eq!(
        check(&ks, Op::Get(put1), &Response::Value(v(put1, 1)), 1),
        Verdict::Ok
    );
    assert!(matches!(
        get(put1, Response::Value(v(put1, 1))),
        Verdict::Wrong(_)
    ));
    // refusals are failures, not wrong answers
    assert_eq!(
        check(&ks, Op::Put(put1, 1), &Response::Busy, 1),
        Verdict::Failed
    );
    assert_eq!(get(4, Response::Error("x".into())), Verdict::Failed);
}

#[test]
fn checker_rejects_wrong_scans() {
    let ks = Keyspace { seed: 3, n: 1000 };
    let entries = |ids: &[u64]| {
        Response::Entries(
            ids.iter()
                .map(|&id| (kvbench::data::key(id), ks.value(id, 0)))
                .collect(),
        )
    };
    let scan = |start, ids: &[u64]| check(&ks, Op::Scan(start), &entries(ids), 0);
    let limit = SCAN_LIMIT as u64;
    // a full answer: the next `limit` preloaded keys
    let full: Vec<u64> = (0..limit).map(|i| 10 + 2 * i).collect();
    assert_eq!(scan(9, &full), Verdict::Ok);
    let mut skipped = full.clone();
    skipped[3] += 2;
    skipped.sort_unstable();
    skipped.dedup();
    skipped.push(full[full.len() - 1] + 2);
    assert!(matches!(scan(9, &skipped), Verdict::Wrong(_)));
    let mut unordered = full.clone();
    unordered.swap(0, 1);
    assert!(matches!(scan(9, &unordered), Verdict::Wrong(_)));
    let mut too_many = full.clone();
    too_many.push(full[full.len() - 1] + 2);
    assert!(matches!(scan(9, &too_many), Verdict::Wrong(_)));
    assert!(
        matches!(scan(11, &full), Verdict::Wrong(_)),
        "a key below the start"
    );
    // fewer than the limit means the range ended: every preloaded key up
    // to the end must be there
    assert!(matches!(scan(9, &full[..10]), Verdict::Wrong(_)));
    let end = ks.scan_end(1990);
    let tail: Vec<u64> = (1990..end).filter(|id| id % 2 == 0).collect();
    assert_eq!(scan(1990, &tail), Verdict::Ok);
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn json_names(json: &str, array: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{array}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let field = |k: &str| {
                let at = obj.find(&format!("\"{k}\""))?;
                let rest = &obj[at + k.len() + 2..];
                let rest = &rest[rest.find('"')? + 1..];
                Some(rest[..rest.find('"')?].to_string())
            };
            (
                field("name").expect("every entry has a name"),
                field("unit"),
            )
        })
        .collect()
}

#[test]
fn emitted_metrics_are_well_formed_and_declared_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        (1..=16).contains(&u.len())
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for (array, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, Option<String>)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(json_names(&json, array), want, "{array} in BENCHMARK.json");
        for (n, u) in table {
            assert!(name_ok(n), "bad metric name {n}");
            assert!(unit_ok(u), "bad unit {u} of {n}");
        }
    }
    let workloads: Vec<String> = json_names(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
