//! Per-round convergence telemetry: the quantities Figures 2–4 of the
//! paper plot, sampled every round instead of once at the end.

use crate::json::{field, num, unum, Json};

/// Declared in the trace format's table, which also encodes and decodes it.
pub use crate::event::TelemetrySample;

impl TelemetrySample {
    /// The sample as a JSON object, with the members of its trace line.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, num);
        Json::Obj(vec![
            field("round", unum(self.round)),
            field("live", unum(self.live as u64)),
            field("classifications_mean", num(self.classifications_mean)),
            field("classifications_max", unum(self.classifications_max as u64)),
            field("weight_spread", num(self.weight_spread)),
            field("mean_error", opt(self.mean_error)),
            field("max_error", opt(self.max_error)),
            field("dispersion", opt(self.dispersion)),
            field("unix_ms", self.unix_ms.map_or(Json::Null, unum)),
        ])
    }
}

/// One convergence episode in a dynamic run (see
/// [`TelemetrySeries::episodes`]): the trajectory settled, and possibly
/// got kicked back out by a perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// Round (or elapsed-ms, per the series' convention) of the sample
    /// that completed the converged window.
    pub settled_round: u64,
    /// Round where the trajectory left the converged regime again;
    /// `None` while still settled at the end of the series.
    pub lost_round: Option<u64>,
    /// How long the perturbed stretch before this episode lasted, in the
    /// series' round units — the episode's settle time.
    pub settle_rounds: u64,
}

/// An ordered series of telemetry samples — the per-run convergence
/// trajectory the experiments consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySeries {
    /// Samples in round order.
    pub samples: Vec<TelemetrySample>,
}

impl TelemetrySeries {
    /// An empty series.
    pub fn new() -> Self {
        TelemetrySeries::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: TelemetrySample) {
        self.samples.push(sample);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<&TelemetrySample> {
        self.samples.last()
    }

    /// Convergence check over the dispersion trajectory: true once the
    /// last `window` samples all carry a dispersion below `level` and
    /// consecutive samples in the window differ by less than `delta_tol`.
    ///
    /// This is the stopping rule the figure experiments previously
    /// hand-rolled; a window shorter than 2 or missing dispersions yield
    /// `false`.
    pub fn converged(&self, window: usize, delta_tol: f64, level: f64) -> bool {
        if window < 2 || self.samples.len() < window {
            return false;
        }
        let tail = &self.samples[self.samples.len() - window..];
        let mut prev: Option<f64> = None;
        for sample in tail {
            let Some(d) = sample.dispersion else {
                return false;
            };
            if d >= level {
                return false;
            }
            if let Some(p) = prev {
                if (d - p).abs() >= delta_tol {
                    return false;
                }
            }
            prev = Some(d);
        }
        true
    }

    /// Mean error of the final sample, if an error probe was active.
    pub fn final_mean_error(&self) -> Option<f64> {
        self.samples.last().and_then(|s| s.mean_error)
    }

    /// Segments a dynamic run's trajectory into convergence episodes:
    /// converged → perturbed → re-converged, with a settle time for each.
    ///
    /// The converged regime is entered when the trailing `window` samples
    /// satisfy the same flat-low-tail rule as [`Self::converged`], and
    /// left at the first sample whose dispersion is missing or at/above
    /// `level` (a drift step, churn event or partition kicking the
    /// cluster back out). Units follow the samples' `round` field — the
    /// deployment runtime stores elapsed milliseconds there when it
    /// replays supervisor telemetry.
    pub fn episodes(&self, window: usize, delta_tol: f64, level: f64) -> Vec<Episode> {
        let mut out = Vec::new();
        if window < 2 || self.samples.len() < window {
            return out;
        }
        let window_ok = |tail: &[TelemetrySample]| {
            let mut prev: Option<f64> = None;
            for sample in tail {
                let Some(d) = sample.dispersion else {
                    return false;
                };
                if d >= level {
                    return false;
                }
                if let Some(p) = prev {
                    if (d - p).abs() >= delta_tol {
                        return false;
                    }
                }
                prev = Some(d);
            }
            true
        };
        let mut perturbed_since = self.samples[0].round;
        let mut settled = false;
        for i in 0..self.samples.len() {
            let s = &self.samples[i];
            if settled {
                let lost = s.dispersion.is_none_or(|d| d >= level);
                if lost {
                    if let Some(ep) = out.last_mut() {
                        ep.lost_round = Some(s.round);
                    }
                    perturbed_since = s.round;
                    settled = false;
                }
            } else if i + 1 >= window && window_ok(&self.samples[i + 1 - window..=i]) {
                out.push(Episode {
                    settled_round: s.round,
                    lost_round: None,
                    settle_rounds: s.round.saturating_sub(perturbed_since),
                });
                settled = true;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn sample(round: u64, dispersion: Option<f64>) -> TelemetrySample {
        TelemetrySample {
            round,
            live: 10,
            classifications_mean: 2.5,
            classifications_max: 4,
            weight_spread: 0.125,
            mean_error: Some(0.01 * round as f64),
            max_error: Some(0.02 * round as f64),
            dispersion,
            unix_ms: None,
        }
    }

    /// The sample's trace line, and the line with `from` replaced by `to`.
    fn line(s: &TelemetrySample, from: &str, to: &str) -> String {
        let line = TraceEvent::Telemetry(s.clone()).to_string();
        assert!(line.contains(from), "{line} lacks {from}");
        line.replacen(from, to, 1)
    }

    fn parse(line: &str) -> Result<TelemetrySample, crate::JsonError> {
        match TraceEvent::from_json(line)? {
            TraceEvent::Telemetry(s) => Ok(s),
            other => panic!("not a sample: {other:?}"),
        }
    }

    #[test]
    fn sample_round_trips_as_a_trace_line() {
        let s = sample(7, Some(0.25));
        assert_eq!(parse(&line(&s, "", "")).expect("parses"), s);

        // `to_json` has the line's members, in its order.
        let json = s.to_json().to_string();
        assert_eq!(
            format!("{{\"type\":\"telemetry\",{}", &json[1..]),
            line(&s, "", "")
        );

        let none = sample(0, None);
        let back = parse(&line(&none, "", "")).expect("parses");
        assert_eq!(back.dispersion, None);

        // A wall-clock stamp survives the round trip...
        let mut stamped = sample(2, Some(0.5));
        stamped.unix_ms = Some(1_754_000_000_123);
        let back = parse(&line(&stamped, "", "")).expect("parses");
        assert_eq!(back.unix_ms, Some(1_754_000_000_123));

        // ...and a legacy sample without the field parses as None.
        let legacy = line(&sample(2, Some(0.5)), ",\"unix_ms\":null", "");
        assert_eq!(parse(&legacy).expect("parses").unix_ms, None);
    }

    /// Field errors out of the sample's line must name the offending
    /// key, both for missing and mistyped fields.
    #[test]
    fn parse_errors_name_the_failing_field() {
        let s = sample(3, Some(0.5));
        // Missing a required field.
        let err = parse(&line(&s, "\"weight_spread\":0.125,", "")).expect_err("field is missing");
        assert!(
            err.message.contains("weight_spread"),
            "error must name the missing field: {err}"
        );

        // A mistyped required field.
        let err =
            parse(&line(&s, "\"live\":10", "\"live\":\"many\"")).expect_err("field is mistyped");
        assert!(
            err.message.contains("live") && err.message.contains("expected"),
            "error must name the mistyped field: {err}"
        );

        // A mistyped optional field is an error too, not a silent None.
        let err = parse(&line(&s, "\"dispersion\":0.5", "\"dispersion\":\"low\""))
            .expect_err("optional mistyped");
        assert!(err.message.contains("dispersion"), "{err}");
    }

    /// A sample whose floats went non-finite still emits valid JSON: the
    /// offending values degrade to `null` and read back as `None`.
    #[test]
    fn non_finite_sample_degrades_to_null_fields() {
        let mut s = sample(1, Some(f64::NAN));
        s.mean_error = Some(f64::INFINITY);
        let back = parse(&line(&s, "", "")).expect("line stays parseable");
        assert_eq!(back.dispersion, None);
        assert_eq!(back.mean_error, None);
        assert_eq!(back.max_error, s.max_error);
        assert!(s.to_json().to_string().contains("\"mean_error\":null"));
    }

    #[test]
    fn episodes_segment_converge_perturb_reconverge() {
        let mut series = TelemetrySeries::new();
        // Settles by round 3, a drift step kicks it out at round 6, and
        // it re-settles by round 10.
        let trajectory = [
            (0, 0.9),
            (1, 0.3),
            (2, 0.05),
            (3, 0.051),
            (4, 0.049),
            (5, 0.05),
            (6, 0.8), // perturbation
            (7, 0.4),
            (8, 0.06),
            (9, 0.061),
            (10, 0.059),
        ];
        for (round, d) in trajectory {
            series.push(sample(round, Some(d)));
        }
        let eps = series.episodes(3, 1e-2, 0.5);
        assert_eq!(eps.len(), 2, "{eps:?}");
        assert_eq!(eps[0].settled_round, 4);
        assert_eq!(eps[0].settle_rounds, 4);
        assert_eq!(eps[0].lost_round, Some(6));
        assert_eq!(eps[1].settled_round, 10);
        assert_eq!(eps[1].settle_rounds, 4, "perturbed 6..10");
        assert_eq!(eps[1].lost_round, None, "still settled at series end");
    }

    #[test]
    fn episodes_empty_without_a_settled_window() {
        let mut series = TelemetrySeries::new();
        for (round, d) in [(0, 0.9), (1, 0.8), (2, 0.7)] {
            series.push(sample(round, Some(d)));
        }
        assert!(series.episodes(2, 1e-2, 0.5).is_empty());
        assert!(series.episodes(1, 1e-2, 0.5).is_empty(), "window < 2");
    }

    #[test]
    fn episode_lost_on_missing_dispersion() {
        let mut series = TelemetrySeries::new();
        series.push(sample(0, Some(0.01)));
        series.push(sample(1, Some(0.011)));
        series.push(sample(2, None));
        let eps = series.episodes(2, 1e-2, 0.5);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].lost_round, Some(2));
    }

    #[test]
    fn converged_needs_flat_low_tail() {
        let mut series = TelemetrySeries::new();
        for (round, d) in [(0, 0.9), (1, 0.4), (2, 0.1), (3, 0.1001), (4, 0.0999)] {
            series.push(sample(round, Some(d)));
        }
        assert!(series.converged(3, 1e-2, 0.5));
        assert!(!series.converged(3, 1e-6, 0.5), "deltas exceed tight tol");
        assert!(!series.converged(3, 1e-2, 0.05), "level above samples");
        assert!(!series.converged(6, 1e-2, 0.5), "window longer than series");

        let mut missing = TelemetrySeries::new();
        missing.push(sample(0, None));
        missing.push(sample(1, None));
        assert!(!missing.converged(2, 1.0, 1.0));
    }
}
