//! Deterministic JSON emission for conformance and fault reports.
//!
//! Unlike the perf-sweep emitters of `anet-bench`, conformance records carry
//! **no wall-clock fields**: the JSON is a pure function of the corpus spec,
//! so re-running `report corpus` / `report faults` with the same
//! `--seed`/`--max-n` must reproduce `BENCH_corpus.json` /
//! `BENCH_faults.json` byte for byte (CI compares the outputs across two
//! thread counts and against the committed artifacts).

use std::io::Write as _;

use crate::faults::{FaultRecord, FaultReport, FaultSummary};
use crate::harness::{InstanceReport, Summary};

/// Serializes the reports as a JSON object with a summary header and one
/// record per instance.
pub fn to_json(reports: &[InstanceReport]) -> String {
    let s = Summary::of(reports);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "\"summary\": {{\"total\": {}, \"feasible_certified\": {}, \
         \"infeasible_certified\": {}, \"distinct_quotients\": {}, \
         \"violations\": {}}},\n",
        s.total, s.feasible_certified, s.infeasible_certified, s.distinct_quotients, s.violations
    ));
    out.push_str("\"instances\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let phi = r.phi.map_or("null".to_string(), |p| p.to_string());
        let schemes: Vec<String> = r
            .schemes
            .iter()
            .map(|sr| {
                format!(
                    "{{\"scheme\": \"{}\", \"advice_bits\": {}, \"time\": {}, \
                     \"time_bound\": {}, \"effective_bound\": {}}}",
                    escape(&sr.scheme),
                    sr.advice_bits,
                    sr.time,
                    sr.time_bound,
                    sr.effective_bound
                )
            })
            .collect();
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"kind\": \"{}\", \"n\": {}, \"m\": {}, \
             \"feasible\": {}, \"phi\": {}, \"diameter\": {}, \
             \"distinct_views\": {}, \"stable_depth\": {}, \
             \"quotient_key\": \"{}\", \"quotient_size\": {}, \"fold\": {}, \
             \"quotient_certified\": {}, \
             \"equivariant\": {}, \"violations\": {}, \"schemes\": [{}], \
             \"faults\": [{}]}}{}\n",
            escape(&r.name),
            r.kind,
            r.n,
            r.m,
            r.feasible,
            phi,
            r.diameter,
            r.distinct_views,
            r.stable_depth,
            escape(&r.quotient_key),
            r.quotient_size,
            r.fold,
            r.quotient_certified,
            r.equivariant,
            r.violations.len(),
            schemes.join(", "),
            fault_records_json(&r.faults),
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n}\n");
    out
}

/// Writes the reports as JSON to `path`.
pub fn emit(path: &std::path::Path, reports: &[InstanceReport]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_json(reports).as_bytes())
}

/// Serializes the fault records of one instance as a JSON array body.
fn fault_records_json(records: &[FaultRecord]) -> String {
    let parts: Vec<String> = records
        .iter()
        .map(|f| {
            let time = f.time.map_or("null".to_string(), |t| t.to_string());
            let messages = f.messages.map_or("null".to_string(), |m| m.to_string());
            format!(
                "{{\"dimension\": \"{}\", \"model\": \"{}\", \
                 \"expected\": \"{}\", \"observed\": \"{}\", \
                 \"time\": {time}, \"messages\": {messages}}}",
                f.dimension,
                f.model,
                f.expected.as_str(),
                f.observed.as_str()
            )
        })
        .collect();
    parts.join(", ")
}

/// Serializes the fault reports as a JSON object with a summary header and
/// one record per instance (the `report faults` artifact).
pub fn faults_to_json(reports: &[FaultReport]) -> String {
    let s = FaultSummary::of(reports);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "\"summary\": {{\"total\": {}, \"certified\": {}, \
         \"outcome_identical\": {}, \"degraded_but_correct\": {}, \
         \"correctly_refused\": {}, \"violations\": {}}},\n",
        s.total,
        s.certified,
        s.outcome_identical,
        s.degraded_but_correct,
        s.correctly_refused,
        s.violations
    ));
    out.push_str("\"instances\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let phi = r.phi.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"kind\": \"{}\", \"n\": {}, \"m\": {}, \
             \"feasible\": {}, \"phi\": {}, \"violations\": {}, \
             \"faults\": [{}]}}{}\n",
            escape(&r.name),
            r.kind,
            r.n,
            r.m,
            r.feasible,
            phi,
            r.violations.len(),
            fault_records_json(&r.records),
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n}\n");
    out
}

/// Writes the fault reports as JSON to `path`.
pub fn emit_faults(path: &std::path::Path, reports: &[FaultReport]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(faults_to_json(reports).as_bytes())
}

/// Minimal JSON string escaping for the artifact writers: quotes and
/// backslashes are escaped, control characters become `\uXXXX` (names are
/// ASCII, but no name may corrupt the output).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultClass;
    use crate::harness::SchemeRecord;

    fn sample() -> InstanceReport {
        InstanceReport {
            name: "lift(clique\"3,s=0)".into(),
            kind: "lift",
            n: 6,
            m: 9,
            feasible: false,
            phi: None,
            diameter: 2,
            distinct_views: 3,
            stable_depth: 2,
            quotient_key: "00deadbeef00f00d".into(),
            quotient_size: 3,
            fold: 2,
            quotient_certified: true,
            schemes: vec![],
            equivariant: true,
            faults: vec![],
            violations: vec![],
        }
    }

    fn sample_fault_record() -> FaultRecord {
        FaultRecord {
            dimension: "crash_stop",
            model: "restartable",
            expected: FaultClass::CorrectlyRefused,
            observed: FaultClass::CorrectlyRefused,
            time: None,
            messages: None,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let mut feasible = sample();
        feasible.name = "lollipop(4,2)".into();
        feasible.feasible = true;
        feasible.phi = Some(2);
        feasible.schemes = vec![SchemeRecord {
            scheme: "min_time".into(),
            advice_bits: 120,
            time: 2,
            time_bound: 2,
            effective_bound: 2,
        }];
        feasible.faults = vec![
            FaultRecord {
                dimension: "phase_skew",
                model: "raw",
                expected: FaultClass::OutcomeIdentical,
                observed: FaultClass::OutcomeIdentical,
                time: Some(2),
                messages: Some(36),
            },
            sample_fault_record(),
        ];
        let json = to_json(&[sample(), feasible]);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains("\"summary\": {\"total\": 2"));
        assert!(json.contains("\"distinct_quotients\": 1"));
        assert!(json.contains(
            "\"quotient_key\": \"00deadbeef00f00d\", \"quotient_size\": 3, \
             \"fold\": 2, \"quotient_certified\": true"
        ));
        assert!(json.contains("\"phi\": null"));
        assert!(json.contains("\"phi\": 2"));
        assert!(json.contains("lift(clique\\\"3,s=0)"));
        assert!(json.contains("\"scheme\": \"min_time\""));
        assert!(json.contains("\"faults\": []"));
        assert!(json.contains(
            "{\"dimension\": \"phase_skew\", \"model\": \"raw\", \
             \"expected\": \"outcome_identical\", \
             \"observed\": \"outcome_identical\", \"time\": 2, \
             \"messages\": 36}"
        ));
    }

    #[test]
    fn faults_json_shape_is_stable() {
        let report = FaultReport {
            name: "necklace(3,\"x\")".into(),
            kind: "family",
            n: 9,
            m: 12,
            feasible: true,
            phi: Some(3),
            records: vec![sample_fault_record()],
            violations: vec![],
        };
        let json = faults_to_json(&[report]);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains("\"summary\": {\"total\": 1, \"certified\": 1"));
        assert!(json.contains("\"correctly_refused\": 1"));
        assert!(json.contains("necklace(3,\\\"x\\\")"));
        assert!(json.contains("\"observed\": \"correctly_refused\""));
        assert!(json.contains("\"time\": null, \"messages\": null"));
    }

    #[test]
    fn json_is_deterministic() {
        let reports = vec![sample()];
        assert_eq!(to_json(&reports), to_json(&reports));
    }
}
