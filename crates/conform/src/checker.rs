//! The per-station invariant engine.
//!
//! [`Checker`] consumes the raw flight-recorder stream (every emission,
//! before ring-buffer filtering or eviction — see [`obs::EventTap`]) and
//! maintains a small mirror of each station's protocol state: recent
//! reception endings, last known medium activity, EIFS arming, the NAV
//! horizon, the contention window, retry/drop pairing, and the
//! duplicate-detection high-water mark. Every rule in
//! [`crate::RuleId`] is a predicate over that mirror.
//!
//! # Precision
//!
//! Event timestamps are exact nanoseconds; payload fields carrying
//! airtimes or NAV horizons are *truncated* microseconds. The mirror
//! therefore treats payload-derived instants as lower bounds: ends of
//! our own transmissions can be up to 1 \u{b5}s later than computed, so
//! windows that depend on them get `SLOP_NS` of tolerance, always in
//! the lenient direction. Event-to-event spacings (SIFS responses) are
//! checked exactly.
//!
//! # Mid-stream starts
//!
//! A checkpoint-resumed replay attaches the checker mid-run. Every rule
//! initializes lazily ("unknown until first observed") so a truncated
//! prefix can never manufacture a violation; [`Checker::set_midstream`]
//! additionally disarms flow conservation, which is inherently
//! whole-run.

use std::collections::{BTreeMap, HashMap, VecDeque};

use mac::policy::quirk;
use obs::{EventTap, ObsEvent, Shared};
use phy::obs::{frame_name, FRAME_ACK, FRAME_CTS, FRAME_DATA, FRAME_RTS};

use crate::rules::{ConformReport, RuleId, Violation};
use crate::timing::Timing;

/// Tolerance for instants derived from truncated-microsecond payload
/// fields (airtimes): the true instant lies within `[x, x + SLOP_NS)`.
const SLOP_NS: u64 = 1_000;
/// How many reception endings to remember per station. Responses join
/// against same-instant endings, so a small window suffices.
const RECENT_RX_CAP: usize = 16;
/// In-memory violation cap; the remainder is counted as suppressed.
const MAX_VIOLATIONS: usize = 200;

/// What the checker knows about one station's declared behavior.
#[derive(Debug, Clone, Copy)]
pub struct NodeProfile {
    /// Bitmask of [`mac::policy::quirk`] flags this station's policy and
    /// DCF configuration declare.
    pub quirks: u32,
    /// dot11ShortRetryLimit (RTS attempts).
    pub short_retry_limit: u32,
    /// dot11LongRetryLimit (DATA attempts).
    pub long_retry_limit: u32,
}

impl Default for NodeProfile {
    fn default() -> Self {
        NodeProfile {
            quirks: 0,
            short_retry_limit: 7,
            long_retry_limit: 4,
        }
    }
}

/// One remembered reception ending.
#[derive(Debug, Clone, Copy)]
struct RxRec {
    end_ns: u64,
    frame: u8,
    tx: u16,
    dst: u16,
    ok: bool,
}

/// The protocol-state mirror for one station.
#[derive(Debug, Default)]
struct NodeState {
    recent_rx: VecDeque<RxRec>,
    /// Latest known end of medium activity visible to this station
    /// (own transmissions, concluded receptions). Lower bound.
    busy_until_ns: u64,
    /// Whether the next access must wait EIFS (last reception corrupted).
    use_eifs: bool,
    /// NAV horizon in \u{b5}s as last reported by the station (truncated,
    /// so a lower bound).
    nav_until_us: u64,
    /// Lower-bound end of the station's last RTS / DATA transmission,
    /// for retry-timing checks.
    last_rts_end_ns: Option<u64>,
    last_data_end_ns: Option<u64>,
    /// Tracked contention window; `None` until first observed.
    cw: Option<u32>,
    /// Instant of an unconsumed retry-limit drop, to pair with the
    /// same-instant RETRY event.
    pending_drop_ns: Option<u64>,
    /// Duplicate-detection mirror: per source, highest delivered seq.
    dedup: BTreeMap<u16, u64>,
}

/// Per-flow conservation accounting.
#[derive(Debug, Default)]
struct FlowState {
    sent_max: Option<u64>,
    sent_bytes: u64,
    delivered: std::collections::BTreeSet<u64>,
    delivered_bytes: u64,
}

/// The live conformance checker. Feed it every recorded event (in
/// emission order) and collect the verdict with
/// [`Checker::finish_report`].
#[derive(Debug)]
pub struct Checker {
    timing: Timing,
    profiles: HashMap<u16, NodeProfile>,
    honor_whitelist: bool,
    midstream: bool,
    nodes: HashMap<u16, NodeState>,
    flows: HashMap<u32, FlowState>,
    violations: Vec<Violation>,
    suppressed: u64,
    whitelisted: u64,
    events_checked: u64,
}

impl Checker {
    /// A checker for the given PHY timing and per-station profiles.
    /// Stations absent from `profiles` get [`NodeProfile::default`].
    pub fn new(timing: Timing, profiles: HashMap<u16, NodeProfile>) -> Self {
        Checker {
            timing,
            profiles,
            honor_whitelist: true,
            midstream: false,
            nodes: HashMap::new(),
            flows: HashMap::new(),
            violations: Vec::new(),
            suppressed: 0,
            whitelisted: 0,
            events_checked: 0,
        }
    }

    /// Disables quirk exemptions: declared misbehavior is then reported
    /// like any other violation. Used to prove the checker sees the
    /// greedy policies it normally whitelists.
    pub fn without_whitelist(mut self) -> Self {
        self.honor_whitelist = false;
        self
    }

    /// Marks the stream as starting mid-run (checkpoint-resumed replay):
    /// disarms whole-run flow conservation.
    pub fn set_midstream(&mut self) {
        self.midstream = true;
    }

    fn quirks(&self, node: u16) -> u32 {
        if !self.honor_whitelist {
            return 0;
        }
        self.profiles.get(&node).map_or(0, |p| p.quirks)
    }

    fn limits(&self, node: u16) -> (u32, u32) {
        let p = self.profiles.get(&node).copied().unwrap_or_default();
        (p.short_retry_limit, p.long_retry_limit)
    }

    fn violate(&mut self, rule: RuleId, at_ns: u64, node: u16, detail: String) {
        if self.violations.len() >= MAX_VIOLATIONS {
            self.suppressed += 1;
            return;
        }
        self.violations.push(Violation {
            rule,
            at: sim::SimTime::from_nanos(at_ns),
            node,
            detail,
        });
    }

    fn node_mut(&mut self, node: u16) -> &mut NodeState {
        self.nodes.entry(node).or_default()
    }

    /// Reception endings at `node` that finished exactly at `end_ns`.
    fn rx_at(&self, node: u16, end_ns: u64) -> Vec<RxRec> {
        self.nodes
            .get(&node)
            .map(|st| {
                st.recent_rx
                    .iter()
                    .copied()
                    .filter(|r| r.end_ns == end_ns)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Processes one recorded event.
    pub fn on_event(&mut self, ev: &ObsEvent) {
        self.events_checked += 1;
        let t = ev.at.as_nanos();
        let n = ev.node;
        match ev.kind.name {
            "tx_start" => self.on_tx_start(t, n, ev.vals),
            "rx_ok" | "rx_noise" | "rx_collision" => {
                let st = self.node_mut(n);
                st.busy_until_ns = st.busy_until_ns.max(t);
                st.use_eifs = ev.kind.name != "rx_ok";
                st.recent_rx.push_back(RxRec {
                    end_ns: t,
                    tx: ev.vals[0] as u16,
                    dst: ev.vals[1] as u16,
                    frame: ev.vals[2] as u8,
                    ok: ev.kind.name == "rx_ok",
                });
                if st.recent_rx.len() > RECENT_RX_CAP {
                    st.recent_rx.pop_front();
                }
            }
            "nav_set" => self.on_nav_set(t, n, ev.vals[1] as u64),
            "backoff" => self.on_backoff(t, n, ev.vals[0] as u32, ev.vals[1] as u32),
            "retry" => self.on_retry(
                t,
                n,
                ev.vals[0] != 0.0,
                ev.vals[1] as u32,
                ev.vals[2] as u32,
            ),
            "drop" if ev.vals[0] == mac::obs::DROP_RETRY_LIMIT => {
                self.node_mut(n).pending_drop_ns = Some(t);
            }
            "tx_success" => self.on_tx_success(t, n, ev.vals[0] as u32, ev.vals[2] as u32),
            "data_rx" => self.on_data_rx(
                t,
                n,
                ev.vals[0] as u16,
                ev.vals[1] as u64,
                ev.vals[2] != 0.0,
                ev.vals[3] != 0.0,
            ),
            "tcp_tx" | "udp_tx" => {
                let fs = self.flows.entry(ev.vals[0] as u32).or_default();
                let (seq, bytes) = (ev.vals[1] as u64, ev.vals[2] as u64);
                if fs.sent_max.is_none_or(|m| seq > m) {
                    fs.sent_max = Some(seq);
                    fs.sent_bytes += bytes;
                }
            }
            "tcp_deliver" | "udp_deliver" => self.on_deliver(
                t,
                n,
                ev.vals[0] as u32,
                ev.vals[1] as u64,
                ev.vals[2] as u64,
            ),
            _ => {}
        }
    }

    fn on_tx_start(&mut self, t: u64, n: u16, vals: [f64; obs::MAX_FIELDS]) {
        let frame = vals[1] as u8;
        let end_lo = t + vals[2] as u64 * 1_000;
        match frame {
            FRAME_ACK => self.check_ack_response(t, n),
            FRAME_CTS => self.check_cts_response(t, n),
            FRAME_RTS => {
                self.check_access(t, n, frame);
                self.node_mut(n).last_rts_end_ns = Some(end_lo);
            }
            FRAME_DATA => {
                // DATA is a SIFS response when it follows a CTS we
                // elicited; otherwise it is contention-based access.
                let is_response = self
                    .rx_at(n, t.wrapping_sub(self.timing.sifs_ns))
                    .iter()
                    .any(|r| r.ok && r.frame == FRAME_CTS && r.dst == n);
                if !is_response {
                    self.check_access(t, n, frame);
                }
                self.node_mut(n).last_data_end_ns = Some(end_lo);
            }
            _ => {}
        }
        let st = self.node_mut(n);
        st.busy_until_ns = st.busy_until_ns.max(end_lo);
    }

    fn check_ack_response(&mut self, t: u64, n: u16) {
        let rx = self.rx_at(n, t.wrapping_sub(self.timing.sifs_ns));
        if rx
            .iter()
            .any(|r| r.ok && r.frame == FRAME_DATA && r.dst == n)
        {
            return; // the honest case: ACK for a decoded frame to us
        }
        let q = self.quirks(n);
        if let Some(r) = rx.iter().find(|r| r.ok && r.frame == FRAME_DATA) {
            if q & quirk::ACK_SPOOF == 0 {
                self.violate(
                    RuleId::AckAddressing,
                    t,
                    n,
                    format!(
                        "ACK for a data frame addressed to station {} (sent by station {})",
                        r.dst, r.tx
                    ),
                );
            } else {
                self.whitelisted += 1;
            }
            return;
        }
        if let Some(r) = rx
            .iter()
            .find(|r| !r.ok && r.frame == FRAME_DATA && r.dst == n)
        {
            if q & quirk::FAKE_ACK == 0 {
                self.violate(
                    RuleId::AckValidity,
                    t,
                    n,
                    format!("ACK for a corrupted data frame from station {}", r.tx),
                );
            } else {
                self.whitelisted += 1;
            }
            return;
        }
        self.violate(
            RuleId::SifsResponse,
            t,
            n,
            format!(
                "ACK not preceded by a data reception ending SIFS ({} \u{b5}s) earlier",
                self.timing.sifs_ns / 1_000
            ),
        );
    }

    fn check_cts_response(&mut self, t: u64, n: u16) {
        let rx = self.rx_at(n, t.wrapping_sub(self.timing.sifs_ns));
        if rx
            .iter()
            .any(|r| r.ok && r.frame == FRAME_RTS && r.dst == n)
        {
            return;
        }
        self.violate(
            RuleId::SifsResponse,
            t,
            n,
            format!(
                "CTS not preceded by an RTS reception ending SIFS ({} \u{b5}s) earlier",
                self.timing.sifs_ns / 1_000
            ),
        );
    }

    fn check_access(&mut self, t: u64, n: u16, frame: u8) {
        let (busy, eifs_armed, nav_until_us) = {
            let st = self.node_mut(n);
            (st.busy_until_ns, st.use_eifs, st.nav_until_us)
        };
        let nav_ns = nav_until_us * 1_000;
        if nav_ns > t {
            self.violate(
                RuleId::NavNoTx,
                t,
                n,
                format!(
                    "{} transmitted at {} \u{b5}s with NAV set until {} \u{b5}s",
                    frame_name(frame),
                    t / 1_000,
                    nav_until_us
                ),
            );
        }
        let ifs = if eifs_armed {
            self.timing.eifs_ns
        } else {
            self.timing.difs_ns
        };
        let required = busy.max(nav_ns) + ifs;
        if t < required {
            self.violate(
                RuleId::DifsAccess,
                t,
                n,
                format!(
                    "{} transmitted {} ns after medium activity; {} requires {} ns",
                    frame_name(frame),
                    t.saturating_sub(busy.max(nav_ns)),
                    if eifs_armed { "EIFS" } else { "DIFS" },
                    ifs
                ),
            );
        }
    }

    fn on_nav_set(&mut self, t: u64, n: u16, until_us: u64) {
        let prev_us = self.node_mut(n).nav_until_us;
        if until_us < prev_us {
            self.violate(
                RuleId::NavMonotone,
                t,
                n,
                format!(
                    "NAV horizon moved backwards: {} \u{b5}s -> {} \u{b5}s",
                    prev_us, until_us
                ),
            );
            return;
        }
        if until_us == prev_us {
            return; // an overheard frame that did not extend the NAV
        }
        if until_us < t / 1_000 {
            self.violate(
                RuleId::NavMonotone,
                t,
                n,
                format!(
                    "NAV set to {} \u{b5}s, already past at {} \u{b5}s",
                    until_us,
                    t / 1_000
                ),
            );
        }
        // Attribute the advance to the reception concluding right now
        // (the recorder logs the rx before the MAC reacts to it).
        let cause = self.rx_at(n, t).iter().rev().find(|r| r.ok).copied();
        if let Some(r) = cause {
            // +1 \u{b5}s: both `until_us` and `t/1000` are truncated.
            if let Some(bound) = self.timing.nav_bound_us(r.frame) {
                let implied = until_us.saturating_sub(t / 1_000);
                let exempt = (self.quirks(r.tx) | self.quirks(r.dst)) & quirk::NAV_INFLATE != 0;
                if implied > bound + 1 {
                    if exempt {
                        self.whitelisted += 1;
                    } else {
                        self.violate(
                            RuleId::NavDurationBound,
                            t,
                            n,
                            format!(
                                "{} from station {} implies {} \u{b5}s of NAV; legitimate bound is {} \u{b5}s",
                                frame_name(r.frame),
                                r.tx,
                                implied,
                                bound
                            ),
                        );
                    }
                }
            }
        }
        self.node_mut(n).nav_until_us = until_us;
    }

    fn on_backoff(&mut self, t: u64, n: u16, cw: u32, slots: u32) {
        if cw < self.timing.cw_min || cw > self.timing.cw_max {
            self.violate(
                RuleId::CwLegality,
                t,
                n,
                format!(
                    "contention window {} outside [{}, {}]",
                    cw, self.timing.cw_min, self.timing.cw_max
                ),
            );
        }
        if slots > cw {
            self.violate(
                RuleId::CwLegality,
                t,
                n,
                format!("drew {} slots from a window of [0, {}]", slots, cw),
            );
        }
        let tracked = self.node_mut(n).cw;
        if let Some(prev) = tracked {
            if prev != cw {
                self.violate(
                    RuleId::CwLegality,
                    t,
                    n,
                    format!(
                        "backoff drawn from window {} but the tracked window is {}",
                        cw, prev
                    ),
                );
            }
        }
        self.node_mut(n).cw = Some(cw);
    }

    fn on_retry(&mut self, t: u64, n: u16, long: bool, count: u32, cw: u32) {
        let (srl, lrl) = self.limits(n);
        let limit = if long { lrl } else { srl };
        let q = self.quirks(n);
        // Timing: the retry fires at the response timeout after the end
        // of the RTS (short) or DATA (long) transmission.
        let (sent_end, timeout_ns) = {
            let st = self.node_mut(n);
            if long {
                (st.last_data_end_ns, self.timing.resp_timeout_long_ns)
            } else {
                (st.last_rts_end_ns, self.timing.resp_timeout_short_ns)
            }
        };
        if let Some(end_lo) = sent_end {
            let lo = end_lo + timeout_ns;
            if t < lo || t > lo + SLOP_NS {
                self.violate(
                    RuleId::AckTimeout,
                    t,
                    n,
                    format!(
                        "{} retry at {} \u{b5}s; response timeout expected in [{}, {}] \u{b5}s",
                        if long { "long" } else { "short" },
                        t / 1_000,
                        lo / 1_000,
                        (lo + SLOP_NS) / 1_000
                    ),
                );
            }
        }
        if count == 0 || count > limit + 1 {
            self.violate(
                RuleId::RetryLimit,
                t,
                n,
                format!(
                    "{} retry counter {} outside [1, {}]",
                    if long { "long" } else { "short" },
                    count,
                    limit + 1
                ),
            );
        }
        let dropped = self.node_mut(n).pending_drop_ns.take() == Some(t);
        if count > limit && !dropped {
            self.violate(
                RuleId::RetryDrop,
                t,
                n,
                format!(
                    "retry counter {} exceeded the limit {} without dropping the MSDU",
                    count, limit
                ),
            );
        }
        if dropped && count <= limit {
            if q & quirk::NO_RETX == 0 {
                self.violate(
                    RuleId::RetryDrop,
                    t,
                    n,
                    format!(
                        "MSDU dropped after {} retries, below the limit {}",
                        count, limit
                    ),
                );
            } else {
                self.whitelisted += 1;
            }
        }
        if cw < self.timing.cw_min || cw > self.timing.cw_max {
            self.violate(
                RuleId::CwLegality,
                t,
                n,
                format!(
                    "contention window {} outside [{}, {}]",
                    cw, self.timing.cw_min, self.timing.cw_max
                ),
            );
        }
        let tracked = self.node_mut(n).cw;
        if let Some(prev) = tracked {
            let doubled = (2 * (prev + 1) - 1).min(self.timing.cw_max);
            // CWmin after a retry is legal on the dropping attempt and
            // under the declared clamp/no-retransmission emulations.
            let quirk_reset = q & (quirk::CW_CLAMP | quirk::NO_RETX) != 0;
            if cw != doubled && !(dropped && cw == self.timing.cw_min) {
                if quirk_reset && cw == self.timing.cw_min {
                    self.whitelisted += 1;
                } else {
                    self.violate(
                        RuleId::CwTransition,
                        t,
                        n,
                        format!(
                            "contention window {} -> {} on failure; expected {}",
                            prev, cw, doubled
                        ),
                    );
                }
            }
        }
        self.node_mut(n).cw = Some(cw);
    }

    fn on_tx_success(&mut self, t: u64, n: u16, retries: u32, cw: u32) {
        let (_, lrl) = self.limits(n);
        if retries > lrl {
            self.violate(
                RuleId::RetryLimit,
                t,
                n,
                format!(
                    "acknowledged after {} retries, above the long retry limit {}",
                    retries, lrl
                ),
            );
        }
        if cw != self.timing.cw_min {
            self.violate(
                RuleId::CwTransition,
                t,
                n,
                format!(
                    "contention window {} after success; expected CWmin {}",
                    cw, self.timing.cw_min
                ),
            );
        }
        self.node_mut(n).cw = Some(cw);
    }

    fn on_data_rx(&mut self, t: u64, n: u16, src: u16, seq: u64, retry: bool, dup: bool) {
        let last = self
            .nodes
            .get(&n)
            .and_then(|st| st.dedup.get(&src).copied());
        match last {
            Some(high) => {
                let expect_dup = seq <= high;
                if dup != expect_dup {
                    self.violate(
                        RuleId::DupDelivery,
                        t,
                        n,
                        format!(
                            "seq {} from station {} flagged dup={} but cache high-water is {}",
                            seq, src, dup as u8, high
                        ),
                    );
                }
                if !dup && seq > high {
                    self.node_mut(n).dedup.insert(src, seq);
                }
            }
            // Unknown prefix (mid-stream start): only a delivery can
            // seed the mirror without risk of a false positive.
            None => {
                if !dup {
                    self.node_mut(n).dedup.insert(src, seq);
                }
            }
        }
        if dup && !retry {
            self.violate(
                RuleId::DupDelivery,
                t,
                n,
                format!(
                    "suppressed seq {} from station {} whose retry bit was clear",
                    seq, src
                ),
            );
        }
    }

    fn on_deliver(&mut self, t: u64, n: u16, flow: u32, seq: u64, bytes: u64) {
        if self.midstream {
            return; // conservation is a whole-run property
        }
        let fs = self.flows.entry(flow).or_default();
        let mut bad = None;
        match fs.sent_max {
            None => {
                bad = Some(format!(
                    "flow {} delivered seq {} before any transmission",
                    flow, seq
                ))
            }
            Some(m) if seq > m => {
                bad = Some(format!(
                    "flow {} delivered seq {} beyond the highest sent seq {}",
                    flow, seq, m
                ));
            }
            _ => {}
        }
        if fs.delivered.insert(seq) {
            fs.delivered_bytes += bytes;
            if bad.is_none() && fs.delivered_bytes > fs.sent_bytes {
                bad = Some(format!(
                    "flow {} delivered {} distinct bytes but only {} were sent",
                    flow, fs.delivered_bytes, fs.sent_bytes
                ));
            }
        }
        if let Some(detail) = bad {
            self.violate(RuleId::FlowConservation, t, n, detail);
        }
    }

    /// Extracts the verdict, resetting the violation buffer (the mirror
    /// state is retained, so a checker can keep consuming events).
    pub fn finish_report(&mut self) -> ConformReport {
        ConformReport {
            violations: std::mem::take(&mut self.violations),
            suppressed: std::mem::take(&mut self.suppressed),
            whitelisted: std::mem::take(&mut self.whitelisted),
            events_checked: self.events_checked,
        }
    }
}

/// A [`Checker`] behind the same shared-cell type the recorder uses, so
/// the tap and the run harness can both reach it.
pub type SharedChecker = Shared<Checker>;

/// Adapter installing a [`SharedChecker`] as a recorder tap.
#[derive(Debug)]
pub struct CheckerTap(pub SharedChecker);

impl EventTap for CheckerTap {
    fn on_event(&mut self, ev: &ObsEvent) {
        self.0.borrow_mut().on_event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::ObsEvent;
    use phy::PhyParams;
    use sim::SimTime;

    fn checker() -> Checker {
        Checker::new(
            Timing::from_params(&PhyParams::dot11b(), 2304),
            HashMap::new(),
        )
    }

    fn ev(at_us: u64, node: u16, kind: &'static obs::EventKind, vals: &[f64]) -> ObsEvent {
        ObsEvent::new(SimTime::from_micros(at_us), node, kind, vals)
    }

    /// DATA to node 1 ending at `end_us`, then node 1's ACK SIFS later.
    fn feed_data_ack(c: &mut Checker, end_us: u64, dst: u16) {
        c.on_event(&ev(
            end_us,
            dst,
            &phy::obs::RX_OK,
            &[0.0, dst as f64, FRAME_DATA as f64, 1000.0],
        ));
        c.on_event(&ev(
            end_us + 10,
            dst,
            &phy::obs::TX_START,
            &[0.0, FRAME_ACK as f64, 304.0],
        ));
    }

    #[test]
    fn honest_data_ack_exchange_is_clean() {
        let mut c = checker();
        feed_data_ack(&mut c, 1_500, 1);
        assert!(c.finish_report().is_clean());
    }

    #[test]
    fn ack_without_reception_violates_sifs_response() {
        let mut c = checker();
        c.on_event(&ev(
            500,
            3,
            &phy::obs::TX_START,
            &[1.0, FRAME_ACK as f64, 304.0],
        ));
        let r = c.finish_report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, RuleId::SifsResponse);
    }

    #[test]
    fn spoofed_ack_needs_the_whitelist() {
        let run = |profiles: HashMap<u16, NodeProfile>| {
            let mut c = Checker::new(Timing::from_params(&PhyParams::dot11b(), 2304), profiles);
            // Node 2 sniffs DATA addressed to node 1 and ACKs it.
            c.on_event(&ev(
                1_000,
                2,
                &phy::obs::RX_OK,
                &[0.0, 1.0, FRAME_DATA as f64, 1000.0],
            ));
            c.on_event(&ev(
                1_010,
                2,
                &phy::obs::TX_START,
                &[0.0, FRAME_ACK as f64, 304.0],
            ));
            c.finish_report()
        };
        let r = run(HashMap::new());
        assert_eq!(r.violations[0].rule, RuleId::AckAddressing);
        let mut profiles = HashMap::new();
        profiles.insert(
            2,
            NodeProfile {
                quirks: quirk::ACK_SPOOF,
                ..NodeProfile::default()
            },
        );
        assert!(run(profiles).is_clean());
    }

    #[test]
    fn fake_ack_for_corrupted_frame_needs_the_whitelist() {
        let mut c = checker();
        c.on_event(&ev(
            1_000,
            1,
            &phy::obs::RX_NOISE,
            &[0.0, 1.0, FRAME_DATA as f64, 1000.0],
        ));
        c.on_event(&ev(
            1_010,
            1,
            &phy::obs::TX_START,
            &[0.0, FRAME_ACK as f64, 304.0],
        ));
        let r = c.finish_report();
        assert_eq!(r.violations[0].rule, RuleId::AckValidity);
    }

    #[test]
    fn whitelist_removal_rearms_the_rule() {
        let mut profiles = HashMap::new();
        profiles.insert(
            1,
            NodeProfile {
                quirks: quirk::FAKE_ACK,
                ..NodeProfile::default()
            },
        );
        let mut c = Checker::new(Timing::from_params(&PhyParams::dot11b(), 2304), profiles)
            .without_whitelist();
        c.on_event(&ev(
            1_000,
            1,
            &phy::obs::RX_NOISE,
            &[0.0, 1.0, FRAME_DATA as f64, 1000.0],
        ));
        c.on_event(&ev(
            1_010,
            1,
            &phy::obs::TX_START,
            &[0.0, FRAME_ACK as f64, 304.0],
        ));
        assert_eq!(c.finish_report().violations[0].rule, RuleId::AckValidity);
    }

    #[test]
    fn access_inside_difs_is_flagged() {
        let mut c = checker();
        // A reception ends at 1000 µs; DATA access only 30 µs later
        // (DIFS on 11b is 50 µs).
        c.on_event(&ev(
            1_000,
            0,
            &phy::obs::RX_OK,
            &[1.0, 2.0, FRAME_DATA as f64, 500.0],
        ));
        c.on_event(&ev(
            1_030,
            0,
            &phy::obs::TX_START,
            &[1.0, FRAME_DATA as f64, 1000.0],
        ));
        let r = c.finish_report();
        assert_eq!(r.violations[0].rule, RuleId::DifsAccess);
        assert!(r.violations[0].detail.contains("DIFS"));
    }

    #[test]
    fn corrupted_reception_arms_eifs() {
        let mut c = checker();
        c.on_event(&ev(
            1_000,
            0,
            &phy::obs::RX_COLLISION,
            &[1.0, 2.0, FRAME_DATA as f64, 500.0],
        ));
        // 100 µs satisfies DIFS (50) but not EIFS (364).
        c.on_event(&ev(
            1_100,
            0,
            &phy::obs::TX_START,
            &[1.0, FRAME_DATA as f64, 1000.0],
        ));
        let r = c.finish_report();
        assert_eq!(r.violations[0].rule, RuleId::DifsAccess);
        assert!(r.violations[0].detail.contains("EIFS"));
        // A later clean reception clears EIFS again.
        let mut c = checker();
        c.on_event(&ev(
            1_000,
            0,
            &phy::obs::RX_COLLISION,
            &[1.0, 2.0, FRAME_DATA as f64, 500.0],
        ));
        c.on_event(&ev(
            2_000,
            0,
            &phy::obs::RX_OK,
            &[1.0, 2.0, FRAME_DATA as f64, 500.0],
        ));
        c.on_event(&ev(
            2_100,
            0,
            &phy::obs::TX_START,
            &[1.0, FRAME_DATA as f64, 1000.0],
        ));
        assert!(c.finish_report().is_clean());
    }

    #[test]
    fn transmission_inside_nav_is_flagged() {
        let mut c = checker();
        c.on_event(&ev(
            1_000,
            0,
            &phy::obs::RX_OK,
            &[1.0, 2.0, FRAME_RTS as f64, 300.0],
        ));
        c.on_event(&ev(1_000, 0, &mac::obs::NAV_SET, &[1.0, 5_000.0]));
        c.on_event(&ev(
            3_000,
            0,
            &phy::obs::TX_START,
            &[1.0, FRAME_DATA as f64, 1000.0],
        ));
        let r = c.finish_report();
        assert!(r.violations.iter().any(|v| v.rule == RuleId::NavNoTx));
    }

    #[test]
    fn nav_moving_backwards_is_flagged() {
        let mut c = checker();
        c.on_event(&ev(1_000, 0, &mac::obs::NAV_SET, &[1.0, 5_000.0]));
        c.on_event(&ev(2_000, 0, &mac::obs::NAV_SET, &[1.0, 4_000.0]));
        let r = c.finish_report();
        assert_eq!(r.violations[0].rule, RuleId::NavMonotone);
    }

    #[test]
    fn inflated_cts_nav_needs_the_whitelist() {
        let timing = Timing::from_params(&PhyParams::dot11b(), 2304);
        let bound = timing.cts_nav_bound_us;
        let run = |profiles: HashMap<u16, NodeProfile>| {
            let mut c = Checker::new(timing, profiles);
            // Node 0 overhears a CTS from node 2 (sent to node 1) whose
            // Duration far exceeds the worst-case legitimate echo.
            c.on_event(&ev(
                1_000,
                0,
                &phy::obs::RX_OK,
                &[2.0, 1.0, FRAME_CTS as f64, 300.0],
            ));
            c.on_event(&ev(
                1_000,
                0,
                &mac::obs::NAV_SET,
                &[2.0, (1_000 + bound + 10_000) as f64],
            ));
            c.finish_report()
        };
        let r = run(HashMap::new());
        assert_eq!(r.violations[0].rule, RuleId::NavDurationBound);
        // Whitelisting the *transmitter* of the frame exempts it...
        let mut profiles = HashMap::new();
        profiles.insert(
            2,
            NodeProfile {
                quirks: quirk::NAV_INFLATE,
                ..NodeProfile::default()
            },
        );
        assert!(run(profiles).is_clean());
        // ...and so does whitelisting the *addressee* (an honest CTS
        // echoing a greedy station's inflated RTS duration).
        let mut profiles = HashMap::new();
        profiles.insert(
            1,
            NodeProfile {
                quirks: quirk::NAV_INFLATE,
                ..NodeProfile::default()
            },
        );
        assert!(run(profiles).is_clean());
    }

    #[test]
    fn backoff_draw_beyond_window_is_flagged() {
        let mut c = checker();
        c.on_event(&ev(1_000, 0, &mac::obs::BACKOFF, &[31.0, 35.0]));
        let r = c.finish_report();
        assert_eq!(r.violations[0].rule, RuleId::CwLegality);
    }

    #[test]
    fn cw_must_double_on_failure() {
        let mut c = checker();
        c.on_event(&ev(1_000, 0, &mac::obs::BACKOFF, &[31.0, 5.0]));
        // Legal doubling: 31 -> 63.
        c.on_event(&ev(2_000, 0, &mac::obs::RETRY, &[1.0, 1.0, 63.0]));
        assert!(c.finish_report().is_clean());
        // Illegal: 63 -> 100.
        c.on_event(&ev(3_000, 0, &mac::obs::RETRY, &[1.0, 2.0, 100.0]));
        let r = c.finish_report();
        assert!(r.violations.iter().any(|v| v.rule == RuleId::CwTransition));
    }

    #[test]
    fn premature_drop_is_flagged_unless_no_retx() {
        let run = |profiles: HashMap<u16, NodeProfile>| {
            let mut c = Checker::new(Timing::from_params(&PhyParams::dot11b(), 2304), profiles);
            c.on_event(&ev(
                1_000,
                0,
                &mac::obs::MAC_DROP,
                &[mac::obs::DROP_RETRY_LIMIT, 1.0],
            ));
            c.on_event(&ev(1_000, 0, &mac::obs::RETRY, &[1.0, 1.0, 31.0]));
            c.finish_report()
        };
        let r = run(HashMap::new());
        assert!(r.violations.iter().any(|v| v.rule == RuleId::RetryDrop));
        let mut profiles = HashMap::new();
        profiles.insert(
            0,
            NodeProfile {
                quirks: quirk::NO_RETX,
                ..NodeProfile::default()
            },
        );
        assert!(run(profiles).is_clean());
    }

    #[test]
    fn exceeding_retry_limit_without_drop_is_flagged() {
        let mut c = checker();
        // Long retry limit is 4; the 5th retry must carry a drop.
        c.on_event(&ev(1_000, 0, &mac::obs::RETRY, &[1.0, 5.0, 1023.0]));
        let r = c.finish_report();
        assert!(r.violations.iter().any(|v| v.rule == RuleId::RetryDrop));
        // With the paired drop it is the legal final attempt.
        c.on_event(&ev(
            2_000,
            0,
            &mac::obs::MAC_DROP,
            &[mac::obs::DROP_RETRY_LIMIT, 1.0],
        ));
        c.on_event(&ev(2_000, 0, &mac::obs::RETRY, &[1.0, 5.0, 31.0]));
        assert!(c.finish_report().is_clean());
    }

    #[test]
    fn retry_timing_is_checked_against_the_response_timeout() {
        let timing = Timing::from_params(&PhyParams::dot11b(), 2304);
        let mut c = Checker::new(timing, HashMap::new());
        // DATA tx from 1000 µs lasting 2000 µs.
        c.on_event(&ev(
            1_000,
            0,
            &phy::obs::TX_START,
            &[1.0, FRAME_DATA as f64, 2_000.0],
        ));
        let expect_us = 3_000 + timing.resp_timeout_long_ns / 1_000;
        c.on_event(&ev(expect_us, 0, &mac::obs::RETRY, &[1.0, 1.0, 63.0]));
        assert!(c.finish_report().is_clean());
        // A second DATA attempt, but the retry fires 100 µs early.
        c.on_event(&ev(
            10_000,
            0,
            &phy::obs::TX_START,
            &[1.0, FRAME_DATA as f64, 2_000.0],
        ));
        let early_us = 12_000 + timing.resp_timeout_long_ns / 1_000 - 100;
        c.on_event(&ev(early_us, 0, &mac::obs::RETRY, &[1.0, 2.0, 127.0]));
        let r = c.finish_report();
        assert!(r.violations.iter().any(|v| v.rule == RuleId::AckTimeout));
    }

    #[test]
    fn dup_flag_must_match_the_cache() {
        let mut c = checker();
        c.on_event(&ev(1_000, 1, &mac::obs::DATA_RX, &[0.0, 5.0, 0.0, 0.0]));
        // Retransmission of seq 5: dup must be set.
        c.on_event(&ev(2_000, 1, &mac::obs::DATA_RX, &[0.0, 5.0, 1.0, 0.0]));
        let r = c.finish_report();
        assert_eq!(r.violations[0].rule, RuleId::DupDelivery);
        // And a dup without the retry bit is impossible.
        c.on_event(&ev(3_000, 1, &mac::obs::DATA_RX, &[0.0, 4.0, 0.0, 1.0]));
        let r = c.finish_report();
        assert!(r.violations.iter().any(|v| v.rule == RuleId::DupDelivery));
    }

    // Stand-ins with the transport kind names (the transport crate is
    // not a dependency; the checker matches kinds by name).
    static T_TX: obs::EventKind = obs::EventKind {
        name: "udp_tx",
        layer: obs::Layer::Transport,
        fields: &["flow", "seq", "bytes"],
    };
    static T_DELIVER: obs::EventKind = obs::EventKind {
        name: "udp_deliver",
        layer: obs::Layer::Transport,
        fields: &["flow", "seq", "bytes"],
    };

    #[test]
    fn flow_conservation_catches_phantom_deliveries() {
        let mut c = checker();
        c.on_event(&ev(1_000, 0, &T_TX, &[7.0, 0.0, 1000.0]));
        c.on_event(&ev(2_000, 1, &T_DELIVER, &[7.0, 0.0, 1000.0]));
        assert!(c.finish_report().is_clean());
        // Delivering seq 3, never sent.
        c.on_event(&ev(3_000, 1, &T_DELIVER, &[7.0, 3.0, 1000.0]));
        let r = c.finish_report();
        assert_eq!(r.violations[0].rule, RuleId::FlowConservation);
        // Mid-stream checkers skip flow accounting entirely.
        let mut c = checker();
        c.set_midstream();
        c.on_event(&ev(3_000, 1, &T_DELIVER, &[9.0, 3.0, 1000.0]));
        assert!(c.finish_report().is_clean());
    }

    #[test]
    fn violation_cap_counts_suppressed() {
        let mut c = checker();
        for i in 0..(MAX_VIOLATIONS as u64 + 50) {
            c.on_event(&ev(
                100 + i,
                3,
                &phy::obs::TX_START,
                &[1.0, FRAME_ACK as f64, 304.0],
            ));
        }
        let r = c.finish_report();
        assert_eq!(r.violations.len(), MAX_VIOLATIONS);
        assert_eq!(r.suppressed, 50);
        assert_eq!(r.violation_count(), MAX_VIOLATIONS as u64 + 50);
    }
}
