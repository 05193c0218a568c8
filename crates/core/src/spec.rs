//! Approximation specifications — how the user directs an approximate
//! job (paper Section 4.2).

use crate::{CoreError, Result};

/// The error bound the user wants, at a confidence level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorTarget {
    /// Maximum relative error, e.g. `0.01` = ±1% of the estimate (for the
    /// key with the largest predicted absolute error).
    Relative(f64),
    /// Maximum absolute error in output units.
    Absolute(f64),
}

impl ErrorTarget {
    /// Whether a bound of `half_width` (relative: `relative`) meets the
    /// target, in the target's own unit.
    pub fn met(&self, half_width: f64, relative: f64) -> bool {
        match *self {
            ErrorTarget::Relative(x) => relative <= x,
            ErrorTarget::Absolute(x) => half_width <= x,
        }
    }

    fn validate(&self) -> Result<()> {
        let v = match self {
            ErrorTarget::Relative(v) | ErrorTarget::Absolute(v) => *v,
        };
        if !(v.is_finite() && v > 0.0) {
            return Err(CoreError::invalid(format!(
                "error target must be positive and finite, got {v}"
            )));
        }
        Ok(())
    }
}

/// Configuration of a pilot wave (paper Section 4.4): a small number of
/// maps run first at a fixed sampling ratio purely to gather statistics,
/// so even single-wave jobs can be approximated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PilotSpec {
    /// Number of pilot map tasks.
    pub tasks: usize,
    /// Sampling ratio used by the pilot maps.
    pub sampling_ratio: f64,
}

impl Default for PilotSpec {
    fn default() -> Self {
        PilotSpec {
            tasks: 4,
            sampling_ratio: 0.01,
        }
    }
}

/// How a job should approximate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ApproxSpec {
    /// Run everything precisely (error bounds are exact zeros).
    #[default]
    Precise,
    /// User-specified ratios: drop `drop_ratio` of the map tasks and
    /// sample each executed block at `sampling_ratio`; error bounds are
    /// computed for the chosen ratios.
    Ratios {
        /// Fraction of map tasks to drop, in `[0, 1)`.
        drop_ratio: f64,
        /// Within-block input sampling ratio, in `(0, 1]`.
        sampling_ratio: f64,
    },
    /// User-specified target error bound at a confidence level;
    /// ApproxHadoop chooses the dropping/sampling ratios itself.
    ///
    /// Contract: if the job stops early (maps dropped or killed), the
    /// reported interval is the one that met the target — the reduce
    /// freezes its estimate at that moment. If even executing every
    /// remaining map at the planned sampling ratio cannot meet the
    /// target (possible on small, highly heterogeneous inputs, since a
    /// sampled block cannot be re-read), the job runs to completion and
    /// reports the best achievable bound.
    Target {
        /// The desired maximum error.
        target: ErrorTarget,
        /// Confidence level in `(0, 1)`, e.g. `0.95`.
        confidence: f64,
        /// Optional pilot wave.
        pilot: Option<PilotSpec>,
    },
}

impl ApproxSpec {
    /// User-specified ratios (paper mode 1).
    ///
    /// See [`ApproxSpec::Ratios`] for the ranges.
    pub fn ratios(drop_ratio: f64, sampling_ratio: f64) -> Self {
        ApproxSpec::Ratios {
            drop_ratio,
            sampling_ratio,
        }
    }

    /// Target relative error bound at a confidence level (paper mode 2).
    pub fn target(relative_error: f64, confidence: f64) -> Self {
        ApproxSpec::Target {
            target: ErrorTarget::Relative(relative_error),
            confidence,
            pilot: None,
        }
    }

    /// Adds a pilot wave to a target-error spec.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not [`ApproxSpec::Target`].
    pub fn with_pilot(self, pilot: PilotSpec) -> Self {
        match self {
            ApproxSpec::Target {
                target, confidence, ..
            } => ApproxSpec::Target {
                target,
                confidence,
                pilot: Some(pilot),
            },
            _ => panic!("with_pilot requires a Target spec"),
        }
    }

    /// The confidence level at which bounds should be computed
    /// (`0.95` unless a target spec overrides it).
    pub fn confidence(&self) -> f64 {
        match self {
            ApproxSpec::Target { confidence, .. } => *confidence,
            _ => 0.95,
        }
    }

    /// The `(drop_ratio, sampling_ratio)` pair a fixed-ratio job runs
    /// at: the user's for [`ApproxSpec::Ratios`], `(0.0, 1.0)` for
    /// [`ApproxSpec::Precise`]. `None` for [`ApproxSpec::Target`], where
    /// the controller picks the ratios while the job runs (and the
    /// engine configuration stays precise).
    pub fn fixed_ratios(&self) -> Option<(f64, f64)> {
        match *self {
            ApproxSpec::Precise => Some((0.0, 1.0)),
            ApproxSpec::Ratios {
                drop_ratio,
                sampling_ratio,
            } => Some((drop_ratio, sampling_ratio)),
            ApproxSpec::Target { .. } => None,
        }
    }

    /// Validates every field.
    pub fn validate(&self) -> Result<()> {
        match self {
            ApproxSpec::Precise => Ok(()),
            ApproxSpec::Ratios {
                drop_ratio,
                sampling_ratio,
            } => {
                if !(0.0..1.0).contains(drop_ratio) {
                    return Err(CoreError::invalid(format!(
                        "drop_ratio must lie in [0, 1), got {drop_ratio}"
                    )));
                }
                if !(*sampling_ratio > 0.0 && *sampling_ratio <= 1.0) {
                    return Err(CoreError::invalid(format!(
                        "sampling_ratio must lie in (0, 1], got {sampling_ratio}"
                    )));
                }
                Ok(())
            }
            ApproxSpec::Target {
                target,
                confidence,
                pilot,
            } => {
                target.validate()?;
                if !(0.0 < *confidence && *confidence < 1.0) {
                    return Err(CoreError::invalid(format!(
                        "confidence must lie in (0, 1), got {confidence}"
                    )));
                }
                if let Some(p) = pilot {
                    // Fewer than two clusters leave the planner no
                    // inter-cluster variance to work from.
                    if p.tasks < 2 {
                        return Err(CoreError::invalid(format!(
                            "pilot wave needs at least 2 tasks, got {}",
                            p.tasks
                        )));
                    }
                    if !(p.sampling_ratio > 0.0 && p.sampling_ratio <= 1.0) {
                        return Err(CoreError::invalid(format!(
                            "pilot sampling_ratio must lie in (0, 1], got {}",
                            p.sampling_ratio
                        )));
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_precise() {
        assert_eq!(ApproxSpec::default(), ApproxSpec::Precise);
        assert!(ApproxSpec::Precise.validate().is_ok());
    }

    #[test]
    fn ratios_validation() {
        assert!(ApproxSpec::ratios(0.25, 0.1).validate().is_ok());
        assert!(ApproxSpec::ratios(1.0, 0.1).validate().is_err());
        assert!(ApproxSpec::ratios(-0.1, 0.1).validate().is_err());
        assert!(ApproxSpec::ratios(0.0, 0.0).validate().is_err());
        assert!(ApproxSpec::ratios(0.0, 1.1).validate().is_err());
    }

    #[test]
    fn target_validation() {
        assert!(ApproxSpec::target(0.01, 0.95).validate().is_ok());
        assert!(ApproxSpec::target(0.0, 0.95).validate().is_err());
        assert!(ApproxSpec::target(0.01, 1.0).validate().is_err());
        let t = ApproxSpec::Target {
            target: ErrorTarget::Absolute(100.0),
            confidence: 0.99,
            pilot: None,
        };
        assert!(t.validate().is_ok());
    }

    #[test]
    fn pilot_validation() {
        let ok = ApproxSpec::target(0.01, 0.95).with_pilot(PilotSpec::default());
        assert!(ok.validate().is_ok());
        for tasks in [0, 1] {
            let bad = ApproxSpec::target(0.01, 0.95).with_pilot(PilotSpec {
                tasks,
                sampling_ratio: 0.1,
            });
            assert!(bad.validate().is_err(), "{tasks}-task pilot");
        }
        let bad = ApproxSpec::target(0.01, 0.95).with_pilot(PilotSpec {
            tasks: 2,
            sampling_ratio: 0.0,
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic]
    fn with_pilot_requires_target() {
        let _ = ApproxSpec::Precise.with_pilot(PilotSpec::default());
    }

    #[test]
    fn fixed_ratios_per_mode() {
        assert_eq!(ApproxSpec::Precise.fixed_ratios(), Some((0.0, 1.0)));
        assert_eq!(
            ApproxSpec::ratios(0.25, 0.1).fixed_ratios(),
            Some((0.25, 0.1))
        );
        assert_eq!(ApproxSpec::target(0.01, 0.95).fixed_ratios(), None);
    }

    #[test]
    fn confidence_default() {
        assert_eq!(ApproxSpec::Precise.confidence(), 0.95);
        assert_eq!(ApproxSpec::target(0.01, 0.9).confidence(), 0.9);
    }
}
