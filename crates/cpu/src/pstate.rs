//! ACPI P-states: the DVFS operating points.
//!
//! The paper's E5-2680 exposes 16 P-states (§III). Public Sandy Bridge
//! documentation puts them at 100 MHz steps from 1.2 GHz to the 2.7 GHz
//! nominal — exactly 16 points — with core voltage tracking frequency
//! roughly linearly between ~0.75 V and ~1.05 V. P0 is the fastest state;
//! higher numbers are slower and cheaper, as §II describes.

use std::sync::Arc;

/// One operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PState {
    /// Index: 0 = fastest.
    pub index: u8,
    /// Core frequency in MHz.
    pub freq_mhz: f64,
    /// Core voltage in volts.
    pub volts: f64,
}

/// The ordered table of P-states for a part.
///
/// The table is immutable once built and held behind an `Arc`, so every
/// clone — one per machine config in a fleet — shares one allocation.
#[derive(Clone, Debug)]
pub struct PStateTable {
    states: Arc<[PState]>,
}

impl PStateTable {
    /// The E5-2680 table: 2700 → 1200 MHz in 100 MHz steps (16 states).
    ///
    /// The paper's Table II reads 2701 MHz at baseline — turbo was off on
    /// the testbed — so this non-turbo table is the study's default.
    pub fn e5_2680() -> Self {
        let n = 16u32;
        let states = (0..n)
            .map(|i| {
                let freq_mhz = 2700.0 - 100.0 * i as f64;
                // Linear V/f: 1.05 V at 2.7 GHz down to 0.78 V at 1.2 GHz.
                let volts = 0.78 + (freq_mhz - 1200.0) / (2700.0 - 1200.0) * (1.05 - 0.78);
                PState { index: i as u8, freq_mhz, volts }
            })
            .collect();
        PStateTable { states }
    }

    /// The same part with single-core Turbo Boost enabled: a 3.5 GHz
    /// (max single-core turbo bin of the E5-2680) P0 at elevated voltage
    /// prepended to the nominal table. Used by the turbo ablation to show
    /// how capping consumes the turbo headroom first.
    pub fn e5_2680_turbo() -> Self {
        let turbo = PState { index: 0, freq_mhz: 3500.0, volts: 1.12 };
        let nominal = Self::e5_2680();
        let states = std::iter::once(turbo)
            .chain(nominal.iter().map(|s| PState { index: s.index + 1, ..*s }))
            .collect();
        PStateTable { states }
    }

    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The fastest state (P0).
    pub fn fastest(&self) -> PState {
        self.states[0]
    }

    /// The slowest state (P-min).
    pub fn slowest(&self) -> PState {
        *self.states.last().expect("non-empty table")
    }

    /// State by index, clamped into range.
    #[inline]
    pub fn get(&self, index: u8) -> PState {
        let i = (index as usize).min(self.states.len() - 1);
        self.states[i]
    }

    /// All states in order.
    pub fn iter(&self) -> impl Iterator<Item = &PState> {
        self.states.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_table_has_16_states_spanning_published_range() {
        let t = PStateTable::e5_2680();
        assert_eq!(t.len(), 16);
        assert_eq!(t.fastest().freq_mhz, 2700.0);
        assert_eq!(t.slowest().freq_mhz, 1200.0);
    }

    #[test]
    fn frequency_and_voltage_decrease_with_index() {
        let t = PStateTable::e5_2680();
        let mut prev: Option<PState> = None;
        for s in t.iter() {
            if let Some(p) = prev {
                assert!(s.freq_mhz < p.freq_mhz);
                assert!(s.volts < p.volts);
            }
            prev = Some(*s);
        }
    }

    #[test]
    fn get_clamps_out_of_range_indices() {
        let t = PStateTable::e5_2680();
        assert_eq!(t.get(200).freq_mhz, 1200.0);
        assert_eq!(t.get(0).freq_mhz, 2700.0);
    }

    #[test]
    fn turbo_table_prepends_a_3500mhz_p0() {
        let t = PStateTable::e5_2680_turbo();
        assert_eq!(t.len(), 17);
        assert_eq!(t.fastest().freq_mhz, 3500.0);
        assert_eq!(t.get(1).freq_mhz, 2700.0);
        assert_eq!(t.slowest().freq_mhz, 1200.0);
        // Still strictly ordered.
        let freqs: Vec<f64> = t.iter().map(|s| s.freq_mhz).collect();
        assert!(freqs.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn dynamic_power_ratio_across_the_table_is_substantial() {
        // C·f·V² at P0 vs P15: the DVFS lever the controller uses first.
        let t = PStateTable::e5_2680();
        let p = |s: PState| s.freq_mhz * s.volts * s.volts;
        let ratio = p(t.fastest()) / p(t.slowest());
        assert!(ratio > 3.5, "got {ratio}");
    }
}
