//! What a run reports: labelled metrics, the correctness tally, and the
//! summary statistics behind them.

use zombieland_trace::json::Value;

/// Whether a number is host time the benchmark measured, simulated time
/// the model computed, or an exact count. Every number the benchmark
/// prints or writes carries one of these labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock host time (or a rate or size derived from it).
    Measured,
    /// Simulated time or a quantity the deterministic model computed.
    Modeled,
    /// A layer the workload never calls; the value is 0.
    NotRun,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured host",
            Kind::Modeled => "modeled sim",
            Kind::NotRun => "not exercised",
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// Interquartile range over median of those samples, when there are
    /// enough of them to say.
    pub spread: Option<f64>,
    /// The samples' median, when the value is another statistic of them.
    pub median: Option<f64>,
    /// What a reader must know to compare the value, if anything.
    pub note: Option<&'static str>,
}

impl Metric {
    pub fn measured(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            kind: Kind::Measured,
            samples: 1,
            spread: None,
            median: None,
            note: None,
        }
    }

    pub fn modeled(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            kind: Kind::Modeled,
            ..Metric::measured(name, value, unit)
        }
    }

    /// A measured median over `samples`, with its spread.
    pub fn median_of(name: impl Into<String>, samples: &[f64], unit: &'static str) -> Metric {
        Metric {
            samples: samples.len(),
            spread: spread(samples),
            ..Metric::measured(name, median(samples), unit)
        }
    }

    pub fn with_samples(mut self, samples: usize) -> Metric {
        self.samples = samples;
        self
    }

    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("value".to_string(), Value::Float(self.value)),
            ("unit".to_string(), Value::Str(self.unit.into())),
            ("kind".to_string(), Value::Str(self.kind.label().into())),
            ("samples".to_string(), Value::UInt(self.samples as u64)),
        ];
        if let Some(s) = self.spread {
            fields.push(("iqr_over_median".to_string(), Value::Float(s)));
        }
        if let Some(m) = self.median {
            fields.push(("median".to_string(), Value::Float(m)));
        }
        if let Some(n) = self.note {
            fields.push(("note".to_string(), Value::Str(n.into())));
        }
        Value::Object(fields)
    }
}

/// The correctness tally of one run: operations attempted, how many
/// failed, and a line for each failure class seen.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts `n` operations, of which `bad` failed for `why`.
    pub fn record(&mut self, n: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.notes.len() < 32 {
                self.notes.push(why());
            }
        }
    }
}

/// Everything a workload hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), by the names `BENCHMARK.json` lists.
    pub metrics: Vec<Metric>,
    /// Workload parameters, for the result file.
    pub params: Vec<(String, Value)>,
    /// The workload's throughput and 99th-percentile call latency over
    /// its untraced passes: per-layer metrics in a traced run, printed
    /// but not gated in an untraced one.
    pub ungated: Vec<Metric>,
}

/// The end-to-end metrics of an untraced run: the median of every
/// set-up the run made, the workload's [`latency_best`], and the median
/// of each pass's peak resident set.
pub fn end_to_end(setup_s: &[f64], latency: Metric, rss_mib: &[f64]) -> Vec<Metric> {
    vec![
        Metric::median_of("setup_s", setup_s, "s"),
        latency,
        Metric::median_of("peak_rss_mib", rss_mib, "MiB"),
    ]
}

/// `latency_best_us`: each call's fastest time over the passes that
/// made it, averaged over the calls.
///
/// `inputs[k][p][c]` is the time of call `c` in pass `p` over input set
/// `k`: every pass over one input set makes the same calls on the same
/// inputs, and a call the pass did not complete reads infinity.
///
/// On a shared host the same deterministic work runs at speeds up to
/// about 2× apart, switching within a second and drifting over minutes,
/// so any central statistic of a run follows the host. The fastest of
/// many repetitions follows the code more closely: it needs one quiet
/// moment per call, and no repetition can beat what the code allows. The
/// median and 99th percentile of the same calls are reported alongside,
/// ungated ([`ungated`]); the value's `median` is the median pass's mean
/// call time.
pub fn latency_best(inputs: &[Vec<Vec<f64>>]) -> Metric {
    let best: Vec<f64> = inputs.iter().flat_map(|passes| best_of(passes)).collect();
    let pass_mean: Vec<f64> = inputs
        .iter()
        .flatten()
        .map(|p| {
            let done: Vec<f64> = p.iter().copied().filter(|t| t.is_finite()).collect();
            done.iter().sum::<f64>() / done.len().max(1) as f64
        })
        .collect();
    Metric {
        value: best.iter().sum::<f64>() / best.len().max(1) as f64,
        samples: inputs
            .iter()
            .flatten()
            .flatten()
            .filter(|t| t.is_finite())
            .count(),
        median: Some(median(&pass_mean)),
        ..Metric::median_of("latency_best_us", &pass_mean, "us")
    }
}

/// Each call's best time over the passes: `per_pass[p][c]` is call `c`
/// of pass `p`. A call some pass did not complete (a failed run) is left
/// out of that pass; a call no pass completed is left out.
pub fn best_of(per_pass: &[Vec<f64>]) -> Vec<f64> {
    let calls = per_pass.iter().map(Vec::len).max().unwrap_or(0);
    (0..calls)
        .map(|c| {
            per_pass
                .iter()
                .filter_map(|p| p.get(c).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .filter(|t| t.is_finite())
        .collect()
}

/// [`Outcome::ungated`]: `per_s` as `bench.throughput_per_s`, and the
/// median and 99th percentile of `call_us` as `bench.call_p50_us` and
/// `bench.call_p99_us`. On a shared host all three follow how fast the
/// host runs and schedules threads at the moment, more than the program,
/// so none carries a bound.
pub fn ungated(per_s: Metric, call_us: &[f64]) -> Vec<Metric> {
    vec![
        Metric {
            name: "bench.throughput_per_s".into(),
            ..per_s
        },
        Metric::median_of("bench.call_p50_us", call_us, "us"),
        Metric::measured("bench.call_p99_us", percentile(call_us, 99.0), "us")
            .with_samples(call_us.len()),
    ]
}

/// Tracing overhead: median traced pass time against median untraced
/// pass time of the same run.
pub fn overhead(on: &[f64], off: &[f64]) -> Metric {
    let pct = (median(on) / median(off) - 1.0) * 100.0;
    Metric::measured("obs.trace_overhead_pct", pct, "%").with_samples(on.len() + off.len())
}

/// Median of `xs` (the mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Quartiles with the same "exclusive" method as Python's
/// `statistics.quantiles(xs, n=4)`.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    // CPython's loop body for method="exclusive", n=4.
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range over median, the spread every timing carries.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m)
}

/// Resets this process's peak resident set to its current resident set,
/// so [`peak_rss_mib`] reports the peak of what follows. Returns false
/// where the kernel does not allow it: the peak then covers the whole
/// process lifetime, and the run says so ([`LIFETIME_RSS`]).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The note `peak_rss_mib` carries when some pass could not reset the
/// peak: such a value is never comparable with a per-pass one.
pub const LIFETIME_RSS: &str =
    "process-lifetime peak: /proc/self/clear_refs refused the per-pass reset";

/// Peak resident set of this process in MiB (`VmHWM`), 0 if the kernel
/// does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A small deterministic seed mixer (SplitMix64 finalizer), so each
/// generated stream gets its own seed derived from the run's `--seed`.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(median(&xs), 5.5);
        assert_eq!(percentile(&xs, 99.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
    }

    #[test]
    fn latency_best_takes_each_calls_fastest_pass() {
        // Two input sets; the first has two passes of two calls, the
        // second one pass whose second call never completed.
        let inputs = vec![
            vec![vec![4.0, 10.0], vec![2.0, 12.0]],
            vec![vec![6.0, f64::INFINITY]],
        ];
        let m = latency_best(&inputs);
        assert_eq!(m.name, "latency_best_us");
        // Best times 2, 10 and 6: the call no pass completed is left out.
        assert_eq!(m.value, 6.0);
        // Pass means 7, 7 and 6 (finite calls only).
        assert_eq!(m.median, Some(7.0));
        assert_eq!(m.samples, 5);
        assert_eq!(best_of(&[vec![1.0], vec![3.0, 0.5]]), vec![1.0, 0.5]);
    }
}
