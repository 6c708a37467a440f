//! Per-round convergence telemetry: the quantities Figures 2–4 of the
//! paper plot, sampled every round instead of once at the end.

use crate::json::{field, num, unum, Json, JsonError};

/// One convergence measurement, taken after a round (or a wall-clock
/// sampling interval in the deployment runtime).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySample {
    /// Round index the sample was taken after.
    pub round: u64,
    /// Live nodes at sampling time.
    pub live: usize,
    /// Mean number of collections per live node's classification.
    pub classifications_mean: f64,
    /// Largest classification size among live nodes.
    pub classifications_max: usize,
    /// Spread of per-node total weight, in weight units (max − min).
    pub weight_spread: f64,
    /// Mean per-node error against a ground truth, when a probe is set.
    pub mean_error: Option<f64>,
    /// Worst per-node error against a ground truth, when a probe is set.
    pub max_error: Option<f64>,
    /// Classification dispersion across live nodes, when computed.
    pub dispersion: Option<f64>,
    /// Wall-clock time the sample was taken, in milliseconds since the
    /// Unix epoch. `None` in legacy traces (serialized as `null`) and in
    /// round-driven simulations that have no wall clock; the deployment
    /// runtime stamps it so dashboards and episode timelines can plot
    /// against real time instead of round index.
    pub unix_ms: Option<u64>,
}

impl TelemetrySample {
    /// The JSON object fields (shared with `TraceEvent::Telemetry`).
    pub(crate) fn json_fields(&self) -> Vec<(String, Json)> {
        let opt = |v: Option<f64>| v.map_or(Json::Null, num);
        vec![
            field("round", unum(self.round)),
            field("live", unum(self.live as u64)),
            field("classifications_mean", num(self.classifications_mean)),
            field("classifications_max", unum(self.classifications_max as u64)),
            field("weight_spread", num(self.weight_spread)),
            field("mean_error", opt(self.mean_error)),
            field("max_error", opt(self.max_error)),
            field("dispersion", opt(self.dispersion)),
            field("unix_ms", self.unix_ms.map_or(Json::Null, unum)),
        ]
    }

    /// Encodes the sample as a standalone JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.json_fields())
    }

    pub(crate) fn from_json_obj(v: &Json) -> Result<TelemetrySample, JsonError> {
        Ok(TelemetrySample {
            round: v.req_u64("round")?,
            live: v.req_u64("live")? as usize,
            classifications_mean: v.req_f64("classifications_mean")?,
            classifications_max: v.req_u64("classifications_max")? as usize,
            weight_spread: v.req_f64("weight_spread")?,
            mean_error: v.opt_f64("mean_error")?,
            max_error: v.opt_f64("max_error")?,
            dispersion: v.opt_f64("dispersion")?,
            unix_ms: v.opt_u64("unix_ms")?,
        })
    }

    /// Parses a standalone sample object.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or missing fields.
    pub fn from_json(text: &str) -> Result<TelemetrySample, JsonError> {
        Self::from_json_obj(&Json::parse(text)?)
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

    /// Encodes the series as a JSON array of sample objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.samples.iter().map(TelemetrySample::to_json).collect())
    }

    /// Parses a series from a JSON array.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn from_json(text: &str) -> Result<TelemetrySeries, JsonError> {
        let v = Json::parse(text)?;
        let items = v.as_array().ok_or(JsonError {
            message: "expected array".to_string(),
            offset: 0,
        })?;
        let samples = items
            .iter()
            .map(TelemetrySample::from_json_obj)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TelemetrySeries { samples })
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

    #[test]
    fn sample_round_trips_standalone_and_as_event() {
        let s = sample(7, Some(0.25));
        let back = TelemetrySample::from_json(&s.to_json().to_string()).expect("parses");
        assert_eq!(back, s);

        let e = TraceEvent::Telemetry(s.clone());
        let back = TraceEvent::from_json(&e.to_string()).expect("parses");
        assert_eq!(back, e);

        let none = sample(0, None);
        let back = TelemetrySample::from_json(&none.to_json().to_string()).expect("parses");
        assert_eq!(back.dispersion, None);

        // A wall-clock stamp survives the round trip...
        let mut stamped = sample(2, Some(0.5));
        stamped.unix_ms = Some(1_754_000_000_123);
        let back = TelemetrySample::from_json(&stamped.to_json().to_string()).expect("parses");
        assert_eq!(back.unix_ms, Some(1_754_000_000_123));

        // ...and a legacy sample without the field parses as None.
        let mut legacy = sample(2, Some(0.5)).to_json();
        if let crate::json::Json::Obj(fields) = &mut legacy {
            fields.retain(|(k, _)| k != "unix_ms");
        }
        let back = TelemetrySample::from_json(&legacy.to_string()).expect("parses");
        assert_eq!(back.unix_ms, None);
    }

    /// Field errors out of the sample parser must name the offending
    /// key, both for missing and mistyped fields.
    #[test]
    fn parse_errors_name_the_failing_field() {
        // Missing a required field.
        let mut s = sample(3, Some(0.5)).to_json();
        if let crate::json::Json::Obj(fields) = &mut s {
            fields.retain(|(k, _)| k != "weight_spread");
        }
        let err = TelemetrySample::from_json(&s.to_string()).expect_err("field is missing");
        assert!(
            err.message.contains("weight_spread"),
            "error must name the missing field: {err}"
        );

        // A mistyped required field.
        let mut s = sample(3, Some(0.5)).to_json();
        if let crate::json::Json::Obj(fields) = &mut s {
            for (k, v) in fields.iter_mut() {
                if k == "live" {
                    *v = crate::json::str("many");
                }
            }
        }
        let err = TelemetrySample::from_json(&s.to_string()).expect_err("field is mistyped");
        assert!(
            err.message.contains("live") && err.message.contains("expected"),
            "error must name the mistyped field: {err}"
        );

        // A mistyped optional field is an error too, not a silent None.
        let mut s = sample(3, Some(0.5)).to_json();
        if let crate::json::Json::Obj(fields) = &mut s {
            for (k, v) in fields.iter_mut() {
                if k == "dispersion" {
                    *v = crate::json::str("low");
                }
            }
        }
        let err = TelemetrySample::from_json(&s.to_string()).expect_err("optional mistyped");
        assert!(err.message.contains("dispersion"), "{err}");
    }

    /// A sample whose floats went non-finite still emits valid JSON: the
    /// offending values degrade to `null` and read back as `None`.
    #[test]
    fn non_finite_sample_degrades_to_null_fields() {
        let mut s = sample(1, Some(f64::NAN));
        s.mean_error = Some(f64::INFINITY);
        let text = s.to_json().to_string();
        let back = TelemetrySample::from_json(&text).expect("document stays parseable");
        assert_eq!(back.dispersion, None);
        assert_eq!(back.mean_error, None);
        assert_eq!(back.max_error, s.max_error);
    }

    #[test]
    fn series_round_trips() {
        let mut series = TelemetrySeries::new();
        series.push(sample(0, Some(0.9)));
        series.push(sample(1, Some(0.2)));
        let back = TelemetrySeries::from_json(&series.to_json().to_string()).expect("parses");
        assert_eq!(back, series);
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
