//! The output oracle. Every 200 body must equal, byte for byte, what
//! `JobSpec::execute` produces in this process on a fresh engine bound
//! to the spec's bandwidth, with the trailing newline the server
//! writes; `X-Job-Key` must equal the spec's content address, and
//! `X-Cache` must say whether the workload expected a hit or a miss.
//! Expected bodies are computed outside every timed region.

use tbstc::jobspec::JobSpec;
use tbstc::runner::SweepRunner;
use tbstc::sim::HwConfig;

use crate::client::Reply;

/// What the server must answer for one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// The content address (`X-Job-Key`).
    pub key: String,
    /// The exact response body.
    pub body: String,
}

/// Computes the expected key and body of `spec_text`.
pub fn expect(spec_text: &str) -> Result<Expected, String> {
    let spec = JobSpec::from_json(spec_text).map_err(|e| format!("generated spec invalid: {e}"))?;
    let engine = SweepRunner::new(HwConfig::with_bandwidth_gbps(spec.bandwidth_gbps()));
    Ok(Expected {
        key: spec.cache_key(),
        body: format!("{}\n", spec.execute(&engine)),
    })
}

/// Checks one reply: status 200, `X-Cache` equal to `cache` when given,
/// the key, and the body bytes.
pub fn check(reply: &Reply, expected: &Expected, cache: Option<&str>) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("status {} (want 200)", reply.status));
    }
    if let Some(want) = cache {
        let got = reply.header("x-cache").unwrap_or("<none>");
        if got != want {
            return Err(format!("X-Cache {got} (want {want})"));
        }
    }
    let key = reply.header("x-job-key").unwrap_or("<none>");
    if key != expected.key {
        return Err(format!("X-Job-Key {key} (want {})", expected.key));
    }
    if reply.body != expected.body {
        let at = reply
            .body
            .bytes()
            .zip(expected.body.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(reply.body.len().min(expected.body.len()));
        return Err(format!(
            "body differs from the oracle at byte {at} ({} vs {} bytes)",
            reply.body.len(),
            expected.body.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"type":"simulate","arch":"tb-stc","model":{"kind":"gcn","nodes":16,"features":16},"sparsity":0.75,"seed":3}"#;

    fn reply_for(e: &Expected, cache: &str) -> Reply {
        Reply {
            status: 200,
            headers: vec![
                ("x-cache".into(), cache.into()),
                ("x-job-key".into(), e.key.clone()),
            ],
            body: e.body.clone(),
        }
    }

    #[test]
    fn oracle_body_is_the_canonical_execute_output() {
        let e = expect(SPEC).unwrap();
        assert!(e.body.ends_with("}\n"));
        assert!(e.body.contains("\"schema\":\"tbstc.v1\""));
        assert_eq!(e.key.len(), 32);
        // Deterministic: a second engine gives the same bytes.
        assert_eq!(expect(SPEC).unwrap(), e);
        assert!(check(&reply_for(&e, "miss"), &e, Some("miss")).is_ok());
    }

    #[test]
    fn altered_bodies_keys_and_tiers_fail() {
        let e = expect(SPEC).unwrap();
        // One byte changed in the middle of the body.
        let mut altered = reply_for(&e, "hit");
        let mut bytes = altered.body.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'1' { b'2' } else { b'1' };
        altered.body = String::from_utf8(bytes).unwrap();
        assert!(check(&altered, &e, Some("hit")).is_err());
        // The trailing newline is part of the body.
        let mut trimmed = reply_for(&e, "hit");
        trimmed.body = e.body.trim_end().to_string();
        assert!(check(&trimmed, &e, Some("hit")).is_err());
        // Wrong cache tier, wrong key, wrong status.
        assert!(check(&reply_for(&e, "miss"), &e, Some("hit")).is_err());
        let mut keyed = reply_for(&e, "hit");
        keyed.headers[1].1 = "0".repeat(32);
        assert!(check(&keyed, &e, None).is_err());
        let mut status = reply_for(&e, "hit");
        status.status = 202;
        assert!(check(&status, &e, None).is_err());
    }
}
