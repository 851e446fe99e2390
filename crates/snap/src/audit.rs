//! The state-hash audit ladder.
//!
//! While a run executes, each stateful layer's canonical encoding is
//! digested (FNV-1a) at configurable virtual-time barriers. The sequence
//! of `(virtual time, layer, digest)` rows — the *ladder* — is a compact
//! fingerprint of the whole simulation trajectory. Two runs that should
//! be identical can diff their ladders layer-by-layer: the first row
//! that disagrees brackets the earliest divergent event between the
//! previous barrier and this one, and names the layer whose state
//! diverged first (the RNG stream, for a perturbed draw; the scheduler,
//! for a reordered event; and so on).
//!
//! Ladders serialize to a line-oriented text format (stable, diffable,
//! `results/audit/<run-key>.audit`) and fold into a single *root digest*,
//! so two runs can be compared by one number before diffing ladders.

use std::fmt;

use crate::{Digest, SnapError};

/// Magic first line of a ladder file.
pub const LADDER_HEADER: &str = "# grsnap-audit v1";

/// One rung: a layer's state digest at a virtual-time barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Barrier virtual time, in nanoseconds since run start.
    pub vt_ns: u64,
    /// Layer name (`"rng"`, `"sched"`, `"phy"`, `"mac"`, `"transport"`,
    /// `"detect"`).
    pub layer: String,
    /// FNV-1a digest of the layer's canonical encoding at the barrier.
    pub digest: u64,
}

/// A full ladder: entries in (vt, layer) emission order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ladder {
    /// The rungs, in emission order (ascending vt; fixed layer order
    /// within one barrier).
    pub entries: Vec<AuditEntry>,
}

/// Where two ladders first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Last barrier at which every layer still agreed (`None` when the
    /// very first barrier already diverges).
    pub vt_lo_ns: Option<u64>,
    /// First barrier with a disagreeing (or missing) layer digest.
    pub vt_hi_ns: u64,
    /// Layers that disagree at `vt_hi_ns`, in ladder order.
    pub layers: Vec<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lo = match self.vt_lo_ns {
            Some(ns) => format!("{ns}"),
            None => "start".to_string(),
        };
        write!(
            f,
            "first divergence in ({lo}, {}] ns, layer(s): {}",
            self.vt_hi_ns,
            self.layers.join(", ")
        )
    }
}

impl Ladder {
    /// An empty ladder.
    pub fn new() -> Self {
        Ladder::default()
    }

    /// Appends one rung.
    pub fn push(&mut self, vt_ns: u64, layer: impl Into<String>, digest: u64) {
        self.entries.push(AuditEntry {
            vt_ns,
            layer: layer.into(),
            digest,
        });
    }

    /// Distinct barrier times, ascending.
    pub fn barriers(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for e in &self.entries {
            if out.last() != Some(&e.vt_ns) {
                out.push(e.vt_ns);
            }
        }
        out
    }

    /// Folds every rung into one digest — the ladder's *root*. Sensitive
    /// to ordering, times, layers and digests alike.
    pub fn root_digest(&self) -> u64 {
        let mut d = Digest::new();
        for e in &self.entries {
            d.update_u64(e.vt_ns);
            d.update(e.layer.as_bytes());
            d.update_u64(e.digest);
        }
        d.finish()
    }

    /// Renders the stable text form (see [`LADDER_HEADER`]).
    pub fn to_text(&self) -> String {
        let mut s = String::from(LADDER_HEADER);
        s.push('\n');
        for e in &self.entries {
            s.push_str(&format!("{}\t{}\t{:016x}\n", e.vt_ns, e.layer, e.digest));
        }
        s.push_str(&format!("# root {:016x}\n", self.root_digest()));
        s
    }

    /// Parses the text form produced by [`Ladder::to_text`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on a missing header, malformed row, or a
    /// root line that does not match the parsed rungs.
    pub fn parse(text: &str) -> Result<Self, SnapError> {
        let mut lines = text.lines();
        if lines.next() != Some(LADDER_HEADER) {
            return Err(SnapError::Corrupt("missing audit ladder header".into()));
        }
        let mut ladder = Ladder::new();
        let mut root_line: Option<u64> = None;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# root ") {
                root_line = Some(
                    u64::from_str_radix(rest.trim(), 16)
                        .map_err(|_| SnapError::Corrupt(format!("bad root line: {line}")))?,
                );
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (vt, layer, digest) = match (parts.next(), parts.next(), parts.next()) {
                (Some(a), Some(b), Some(c)) => (a, b, c),
                _ => return Err(SnapError::Corrupt(format!("bad ladder row: {line}"))),
            };
            let vt_ns: u64 = vt
                .parse()
                .map_err(|_| SnapError::Corrupt(format!("bad barrier time: {vt}")))?;
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|_| SnapError::Corrupt(format!("bad digest: {digest}")))?;
            ladder.push(vt_ns, layer, digest);
        }
        if let Some(root) = root_line {
            if root != ladder.root_digest() {
                return Err(SnapError::Corrupt(
                    "root digest does not match ladder rows".into(),
                ));
            }
        }
        Ok(ladder)
    }

    /// Diffs two ladders: `None` when identical over their common span
    /// and equally long, otherwise the bracketing [`Divergence`].
    pub fn compare(a: &Ladder, b: &Ladder) -> Option<Divergence> {
        let mut last_agreed: Option<u64> = None;
        let n = a.entries.len().min(b.entries.len());
        let mut i = 0;
        while i < n {
            let vt = a.entries[i].vt_ns;
            // Collect one barrier's rows from both ladders.
            let mut layers = Vec::new();
            let mut j = i;
            while j < n && a.entries[j].vt_ns == vt {
                let (ea, eb) = (&a.entries[j], &b.entries[j]);
                if eb.vt_ns != vt || ea.layer != eb.layer {
                    // Structural mismatch: barrier grids differ.
                    return Some(Divergence {
                        vt_lo_ns: last_agreed,
                        vt_hi_ns: vt.min(eb.vt_ns),
                        layers: vec![ea.layer.clone()],
                    });
                }
                if ea.digest != eb.digest {
                    layers.push(ea.layer.clone());
                }
                j += 1;
            }
            if !layers.is_empty() {
                return Some(Divergence {
                    vt_lo_ns: last_agreed,
                    vt_hi_ns: vt,
                    layers,
                });
            }
            last_agreed = Some(vt);
            i = j;
        }
        if a.entries.len() != b.entries.len() {
            let next = a
                .entries
                .get(n)
                .or_else(|| b.entries.get(n))
                .map(|e| e.vt_ns)
                .unwrap_or(0);
            return Some(Divergence {
                vt_lo_ns: last_agreed,
                vt_hi_ns: next,
                layers: vec!["<missing barrier>".into()],
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(rows: &[(u64, &str, u64)]) -> Ladder {
        let mut l = Ladder::new();
        for &(vt, layer, d) in rows {
            l.push(vt, layer, d);
        }
        l
    }

    #[test]
    fn text_round_trip_preserves_everything() {
        let l = ladder(&[
            (1_000, "rng", 0xdead),
            (1_000, "sched", 0xbeef),
            (2_000, "rng", 0xf00d),
        ]);
        let parsed = Ladder::parse(&l.to_text()).unwrap();
        assert_eq!(parsed, l);
        assert_eq!(parsed.root_digest(), l.root_digest());
        assert_eq!(parsed.barriers(), vec![1_000, 2_000]);
    }

    #[test]
    fn tampered_root_rejected() {
        let l = ladder(&[(5, "rng", 1)]);
        let text = l.to_text().replace("# root", "# root 0000");
        assert!(Ladder::parse(&text).is_err());
        let mut forged = l.to_text();
        forged = forged.replace("0000000000000001", "0000000000000002");
        assert!(Ladder::parse(&forged).is_err(), "row edit breaks the root");
    }

    #[test]
    fn identical_ladders_have_no_divergence() {
        let l = ladder(&[(1, "rng", 9), (2, "rng", 10)]);
        assert_eq!(Ladder::compare(&l, &l.clone()), None);
    }

    #[test]
    fn divergence_brackets_the_first_mismatch() {
        let a = ladder(&[
            (1_000, "rng", 1),
            (1_000, "mac", 2),
            (2_000, "rng", 3),
            (2_000, "mac", 4),
        ]);
        let mut b = a.clone();
        b.entries[2].digest = 99; // rng differs at barrier 2000
        let d = Ladder::compare(&a, &b).unwrap();
        assert_eq!(d.vt_lo_ns, Some(1_000));
        assert_eq!(d.vt_hi_ns, 2_000);
        assert_eq!(d.layers, vec!["rng".to_string()]);
    }

    #[test]
    fn divergence_at_first_barrier_has_open_lower_bound() {
        let a = ladder(&[(1_000, "rng", 1)]);
        let b = ladder(&[(1_000, "rng", 2)]);
        let d = Ladder::compare(&a, &b).unwrap();
        assert_eq!(d.vt_lo_ns, None);
        assert_eq!(d.vt_hi_ns, 1_000);
    }

    #[test]
    fn truncated_ladder_is_a_divergence() {
        let a = ladder(&[(1, "rng", 1), (2, "rng", 2)]);
        let b = ladder(&[(1, "rng", 1)]);
        let d = Ladder::compare(&a, &b).unwrap();
        assert_eq!(d.vt_lo_ns, Some(1));
        assert_eq!(d.vt_hi_ns, 2);
    }

    #[test]
    fn root_digest_sensitive_to_order() {
        let a = ladder(&[(1, "rng", 1), (1, "mac", 2)]);
        let b = ladder(&[(1, "mac", 2), (1, "rng", 1)]);
        assert_ne!(a.root_digest(), b.root_digest());
    }
}
