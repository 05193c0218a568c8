//! Per-task per-key statistics shipped through the shuffle.

use approxhadoop_ipc::{Decoder, Wire, WireError};

use crate::clusters::UnitStat;

/// The statistics a map task accumulates for one intermediate key over
/// the input data items it processed: exactly what the two-stage
/// estimators need (`Σv`, `Σv²`, and how many items emitted).
///
/// The task's `(m_i, M_i)` counts travel separately in the map output
/// metadata; items that emitted nothing for the key are implicit zeros.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KeyStat {
    /// Sum of the key's per-item values.
    pub sum: f64,
    /// Sum of squares of the per-item values.
    pub sum_sq: f64,
    /// Number of items that emitted at least one value for the key.
    pub emitting_units: u64,
}

impl KeyStat {
    /// A statistic from a single item's value.
    pub fn from_value(v: f64) -> Self {
        KeyStat {
            sum: v,
            sum_sq: v * v,
            emitting_units: 1,
        }
    }

    /// Folds another item's value into the statistic.
    pub fn add_value(&mut self, v: f64) {
        self.sum += v;
        self.sum_sq += v * v;
        self.emitting_units += 1;
    }

    /// Merges two statistics (e.g. from combiner-style pre-aggregation).
    pub fn merge(&mut self, other: &KeyStat) {
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.emitting_units += other.emitting_units;
    }
}

impl Wire for KeyStat {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sum.encode(out);
        self.sum_sq.encode(out);
        self.emitting_units.encode(out);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(KeyStat {
            sum: f64::decode(d)?,
            sum_sq: f64::decode(d)?,
            emitting_units: u64::decode(d)?,
        })
    }
}

impl UnitStat for KeyStat {
    type Emit = f64;
    /// The item's summed value `v_ij`.
    type Unit = f64;

    fn unit(first: f64) -> f64 {
        first
    }

    fn fold(unit: &mut f64, v: f64) {
        *unit += v;
    }

    fn add_unit(&mut self, v: f64) {
        self.add_value(v);
    }

    fn merge(&mut self, other: &KeyStat) {
        KeyStat::merge(self, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusters::MergeCombiner;
    use approxhadoop_runtime::combine::Combiner;

    #[test]
    fn accumulates_values() {
        let mut s = KeyStat::from_value(2.0);
        s.add_value(3.0);
        assert_eq!(s.sum, 5.0);
        assert_eq!(s.sum_sq, 13.0);
        assert_eq!(s.emitting_units, 2);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = KeyStat::from_value(1.0);
        let b = KeyStat::from_value(4.0);
        a.merge(&b);
        assert_eq!(a.sum, 5.0);
        assert_eq!(a.sum_sq, 17.0);
        assert_eq!(a.emitting_units, 2);
    }

    #[test]
    fn default_is_zero() {
        let z = KeyStat::default();
        assert_eq!(z.sum, 0.0);
        assert_eq!(z.emitting_units, 0);
    }

    #[test]
    fn combiner_matches_merge() {
        let mut a = KeyStat::from_value(1.0);
        let b = KeyStat::from_value(4.0);
        MergeCombiner.combine(&"k", &mut a, b);
        assert_eq!(a.sum, 5.0);
        assert_eq!(a.sum_sq, 17.0);
        assert_eq!(a.emitting_units, 2);
    }
}
