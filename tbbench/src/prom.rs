//! A parser for the Prometheus text exposition `GET /metrics` serves,
//! and the counter deltas the benchmark reconciles against.

use std::collections::BTreeMap;

/// One scrape: sample name with its label set (`name{labels}` exactly
/// as exposed, or the bare name) to value. Comments are skipped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses exposition text. Lines that are not `series value` pairs
    /// are an error, so a format change cannot pass as zero counts.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut samples = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("metrics line without a value: `{line}`"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("metrics line with a bad value: `{line}`"))?;
            samples.insert(series.trim().to_string(), value);
        }
        Ok(Scrape(samples))
    }

    /// The value of `series` (0 when absent: counters start at zero).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self − before` for one series.
    pub fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }
}

/// The serve counters the benchmark reads, as changes over one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeDelta {
    /// Executions the engine ran.
    pub executed: f64,
    /// Requests that joined an identical in-flight job.
    pub coalesced: f64,
    /// Simulate jobs that rode in a multi-job batch.
    pub batched: f64,
    /// Requests turned away with 429.
    pub rejected: f64,
    /// Hits served from the in-memory tier.
    pub mem_hits: f64,
    /// Hits served from the on-disk store.
    pub disk_hits: f64,
    /// Jobs that computed after missing the disk store.
    pub disk_misses: f64,
    /// Durable sweep chunks checkpointed.
    pub sweep_chunks: f64,
    /// Seconds spent executing jobs, per job worker.
    pub busy_per_worker_s: f64,
}

impl ServeDelta {
    /// The counter changes between two scrapes.
    pub fn between(before: &Scrape, after: &Scrape) -> ServeDelta {
        let d = |series: &str| after.delta(before, series);
        ServeDelta {
            executed: d("tbstc_jobs_executed_total"),
            coalesced: d("tbstc_jobs_coalesced_total"),
            batched: d("tbstc_jobs_batched_total"),
            rejected: d("tbstc_jobs_rejected_total"),
            mem_hits: d("tbstc_cache_hits_total{tier=\"mem\"}"),
            disk_hits: d("tbstc_cache_hits_total{tier=\"disk\"}"),
            disk_misses: d("tbstc_cache_misses_total{tier=\"disk\"}"),
            sweep_chunks: d("tbstc_sweep_chunks_total"),
            // The exposition has no busy-time counter; utilization is
            // busy time over uptime × workers.
            busy_per_worker_s: after.get("tbstc_worker_utilization")
                * after.get("tbstc_uptime_seconds")
                - before.get("tbstc_worker_utilization") * before.get("tbstc_uptime_seconds"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# HELP tbstc_requests_total HTTP requests received, by endpoint.\n\
        # TYPE tbstc_requests_total counter\n\
        tbstc_requests_total{endpoint=\"jobs\"} 12\n\
        tbstc_cache_hits_total{tier=\"mem\"} 7\n\
        tbstc_cache_hits_total{tier=\"disk\"} 3\n\
        tbstc_jobs_executed_total 5\n\
        tbstc_worker_utilization 0.250000\n\
        tbstc_uptime_seconds 4.000\n\
        tbstc_job_latency_seconds_bucket{le=\"+Inf\"} 12\n";

    #[test]
    fn parses_labelled_and_bare_series() {
        let s = Scrape::parse(TEXT).unwrap();
        assert_eq!(s.get("tbstc_requests_total{endpoint=\"jobs\"}"), 12.0);
        assert_eq!(s.get("tbstc_cache_hits_total{tier=\"disk\"}"), 3.0);
        assert_eq!(s.get("tbstc_jobs_executed_total"), 5.0);
        assert_eq!(s.get("tbstc_job_latency_seconds_bucket{le=\"+Inf\"}"), 12.0);
        assert_eq!(s.get("tbstc_worker_utilization"), 0.25);
        assert_eq!(s.get("absent_series"), 0.0);
    }

    #[test]
    fn rejects_lines_without_numbers() {
        assert!(Scrape::parse("tbstc_jobs_executed_total\n").is_err());
        assert!(Scrape::parse("tbstc_jobs_executed_total many\n").is_err());
    }

    #[test]
    fn deltas_subtract_scrapes() {
        let before = Scrape::parse(TEXT).unwrap();
        let after = Scrape::parse(
            "tbstc_cache_hits_total{tier=\"mem\"} 10\n\
             tbstc_jobs_executed_total 9\n\
             tbstc_worker_utilization 0.5\n\
             tbstc_uptime_seconds 6.0\n",
        )
        .unwrap();
        let d = ServeDelta::between(&before, &after);
        assert_eq!(d.mem_hits, 3.0);
        assert_eq!(d.executed, 4.0);
        assert_eq!(d.disk_hits, -3.0);
        assert!((d.busy_per_worker_s - 2.0).abs() < 1e-12);
    }
}
