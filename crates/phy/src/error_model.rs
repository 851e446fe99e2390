//! Random frame-corruption model, equivalent to ns-2's `ErrorModel`.
//!
//! The error process applies independently per *unit* — bit, byte, or whole
//! packet — and a frame is corrupted when at least one of its units is hit.
//! The paper's Table III (BER → FER) is consistent with a **per-byte**
//! process over the MAC frame plus 24 bytes of PLCP overhead; see
//! `greedy80211::corruption` and the `tab03` experiment for the exact sizes.

use sim::{SimError, SimRng};

/// Byte-equivalent of the PLCP preamble + header for the corruption
/// process. The paper's Table III FER values correspond to a per-byte
/// error process over the MAC frame plus this constant.
pub const PLCP_EQUIVALENT_BYTES: usize = 24;

/// The granularity at which the error rate applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorUnit {
    /// Each bit flips independently with the configured rate.
    Bit,
    /// Each byte is corrupted independently with the configured rate.
    Byte,
    /// The whole frame is lost with the configured rate.
    Packet,
}

/// A memoryless frame-corruption process.
///
/// # Examples
///
/// ```
/// use gr_phy::{ErrorModel, ErrorUnit};
///
/// let em = ErrorModel::new(ErrorUnit::Byte, 1e-5)?;
/// // 38-"byte" ACK frame (14 MAC + 24 PLCP): FER ≈ 3.8e-4 as in Table III.
/// let fer = em.fer(38);
/// assert!((fer - 3.799e-4).abs() < 1e-6);
/// # Ok::<(), sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    unit: ErrorUnit,
    rate: f64,
}

impl ErrorModel {
    /// Creates an error model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `rate` is not in `[0, 1]`.
    pub fn new(unit: ErrorUnit, rate: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
            return Err(SimError::invalid_config(format!(
                "error rate must be in [0, 1], got {rate}"
            )));
        }
        Ok(ErrorModel { unit, rate })
    }

    /// A model that never corrupts anything.
    pub const fn lossless() -> Self {
        ErrorModel {
            unit: ErrorUnit::Packet,
            rate: 0.0,
        }
    }

    /// The error unit.
    pub fn unit(&self) -> ErrorUnit {
        self.unit
    }

    /// The per-unit error rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Frame error rate for a frame of `frame_bytes` bytes:
    /// `1 − (1 − rate)^units`.
    pub fn fer(&self, frame_bytes: usize) -> f64 {
        let units = match self.unit {
            ErrorUnit::Bit => frame_bytes as f64 * 8.0,
            ErrorUnit::Byte => frame_bytes as f64,
            ErrorUnit::Packet => return self.rate,
        };
        // ln1p-based form is exact for tiny rates where powf would round.
        1.0 - ((1.0 - self.rate).ln() * units).exp()
    }

    /// Samples whether a frame of `frame_bytes` bytes is corrupted.
    pub fn corrupts(&self, frame_bytes: usize, rng: &mut SimRng) -> bool {
        rng.chance(self.fer(frame_bytes))
    }

    /// Frame error rates for a batch of frame sizes, appended to `out`
    /// in slice order. Each element is bit-identical to
    /// [`ErrorModel::fer`] of that size; the batch form hoists the
    /// per-model `ln(1 − rate)` out of the loop, which is what makes
    /// prefilling a [`crate::FerTable`] at assembly time cheap.
    pub fn fer_batch(&self, frame_bytes: &[usize], out: &mut Vec<f64>) {
        if self.unit == ErrorUnit::Packet {
            out.extend(std::iter::repeat_n(self.rate, frame_bytes.len()));
            return;
        }
        let ln_keep = (1.0 - self.rate).ln();
        for &b in frame_bytes {
            let units = match self.unit {
                ErrorUnit::Bit => b as f64 * 8.0,
                ErrorUnit::Byte => b as f64,
                ErrorUnit::Packet => unreachable!("handled above"),
            };
            out.push(1.0 - (ln_keep * units).exp());
        }
    }

    /// Samples a batch of frames for corruption, appending one verdict
    /// per size to `out`. Draws exactly one `chance` per element **in
    /// slice order**, so a batch over frames in dispatch order consumes
    /// the RNG stream identically to per-frame [`ErrorModel::corrupts`]
    /// calls in that order — the draw-order contract DESIGN.md §16
    /// relies on.
    pub fn corrupts_batch(&self, frame_bytes: &[usize], rng: &mut SimRng, out: &mut Vec<bool>) {
        for &b in frame_bytes {
            out.push(rng.chance(self.fer(b)));
        }
    }

    /// Samples whether a specific contiguous field of `field_bytes` bytes
    /// within a frame is hit by the error process (used by the corrupted-
    /// address study, Table I).
    pub fn field_hit(&self, field_bytes: usize, rng: &mut SimRng) -> bool {
        let p = match self.unit {
            ErrorUnit::Bit => 1.0 - ((1.0 - self.rate).ln() * field_bytes as f64 * 8.0).exp(),
            ErrorUnit::Byte => 1.0 - ((1.0 - self.rate).ln() * field_bytes as f64).exp(),
            // A packet-level loss corrupts everything, including the field.
            ErrorUnit::Packet => self.rate,
        };
        rng.chance(p)
    }
}

impl Default for ErrorModel {
    fn default() -> Self {
        ErrorModel::lossless()
    }
}

impl snap::SnapValue for ErrorUnit {
    fn save(&self, w: &mut snap::Enc) {
        w.u8(match self {
            ErrorUnit::Bit => 0,
            ErrorUnit::Byte => 1,
            ErrorUnit::Packet => 2,
        });
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        Ok(match r.u8()? {
            0 => ErrorUnit::Bit,
            1 => ErrorUnit::Byte,
            2 => ErrorUnit::Packet,
            t => return Err(snap::SnapError::Corrupt(format!("error unit tag {t}"))),
        })
    }
}

impl snap::SnapValue for ErrorModel {
    fn save(&self, w: &mut snap::Enc) {
        self.unit.save(w);
        w.f64(self.rate);
    }
    fn load(r: &mut snap::Dec) -> Result<Self, snap::SnapError> {
        let unit = ErrorUnit::load(r)?;
        let rate = r.f64()?;
        ErrorModel::new(unit, rate)
            .map_err(|e| snap::SnapError::Corrupt(format!("error model: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_rates() {
        assert!(ErrorModel::new(ErrorUnit::Bit, -0.1).is_err());
        assert!(ErrorModel::new(ErrorUnit::Bit, 1.1).is_err());
        assert!(ErrorModel::new(ErrorUnit::Bit, f64::NAN).is_err());
        assert!(ErrorModel::new(ErrorUnit::Bit, 0.0).is_ok());
        assert!(ErrorModel::new(ErrorUnit::Bit, 1.0).is_ok());
    }

    #[test]
    fn lossless_never_corrupts() {
        let em = ErrorModel::lossless();
        assert_eq!(em.fer(1500), 0.0);
        let mut rng = SimRng::new(1);
        assert!(!em.corrupts(1500, &mut rng));
    }

    #[test]
    fn packet_unit_is_length_independent() {
        let em = ErrorModel::new(ErrorUnit::Packet, 0.3).unwrap();
        assert_eq!(em.fer(10), 0.3);
        assert_eq!(em.fer(10_000), 0.3);
    }

    #[test]
    fn table_iii_byte_process() {
        // Paper Table III, per-byte interpretation: sizes incl. 24 B PLCP.
        let cases = [
            (1e-5, 38, 3.799e-4), // ACK/CTS
            (1e-5, 44, 4.399e-4), // RTS
            (2e-4, 38, 7.519e-3), // ACK/CTS at BER 2e-4
            (8e-4, 38, 2.995e-2), // ACK/CTS at BER 8e-4
        ];
        for (rate, bytes, expected) in cases {
            let em = ErrorModel::new(ErrorUnit::Byte, rate).unwrap();
            let fer = em.fer(bytes);
            assert!(
                (fer - expected).abs() / expected < 0.01,
                "rate={rate} bytes={bytes}: fer={fer}, expected≈{expected}"
            );
        }
    }

    #[test]
    fn fer_monotone_in_rate_and_length() {
        let mut last = 0.0;
        for rate in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2] {
            let em = ErrorModel::new(ErrorUnit::Byte, rate).unwrap();
            let fer = em.fer(100);
            assert!(fer > last);
            last = fer;
        }
        let em = ErrorModel::new(ErrorUnit::Bit, 1e-5).unwrap();
        let mut last = 0.0;
        for bytes in [1, 10, 100, 1000] {
            let fer = em.fer(bytes);
            assert!(fer > last);
            last = fer;
        }
    }

    #[test]
    fn corrupts_frequency_matches_fer() {
        let em = ErrorModel::new(ErrorUnit::Byte, 2e-4).unwrap();
        let mut rng = SimRng::new(5);
        let n = 200_000;
        let hits = (0..n).filter(|_| em.corrupts(1102, &mut rng)).count();
        let freq = hits as f64 / n as f64;
        let fer = em.fer(1102);
        assert!(
            (freq - fer).abs() < 0.005,
            "empirical {freq} vs analytic {fer}"
        );
    }

    #[test]
    fn field_hit_probability_smaller_than_frame() {
        let em = ErrorModel::new(ErrorUnit::Byte, 1e-3).unwrap();
        let mut rng = SimRng::new(7);
        let n = 100_000;
        let field_hits = (0..n).filter(|_| em.field_hit(12, &mut rng)).count();
        let frame_hits = (0..n).filter(|_| em.corrupts(1024, &mut rng)).count();
        assert!(field_hits < frame_hits);
    }
}
