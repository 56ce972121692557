//! Fleet monitoring: power history, trend estimation and violation
//! auditing via each node's SEL.
//!
//! DCM's dashboard function (§II-A: "gather system diagnostics
//! information"): the manager polls DCMI power readings into per-node
//! ring-buffer histories, computes moving averages and trends, and reads
//! the SEL to audit how often caps were violated — the data-center-side
//! view of the paper's "measured power above the cap" rows.
//!
//! The monitor does no wire traffic itself: the caller polls with
//! [`crate::Dcm::read_power`] (the fleet engine does so at every barrier)
//! and feeds each reading to [`FleetMonitor::record`]. The SEL audit goes
//! through the narrow [`Transact`] interface, with each command retried
//! under a [`RetryPolicy`] so a dropped frame costs a retransmit, not a
//! hole in the audit.

use std::collections::VecDeque;

use capsim_ipmi::sel::{get_sel_entry_request, get_sel_info_request, SelEntry};
use capsim_ipmi::{transact_retry, IpmiError, RetryPolicy, SelEventType, Transact};

use crate::manager::{Dcm, NodeId};

/// Bounded power history for one node.
#[derive(Clone, Debug)]
pub struct PowerHistory {
    samples: VecDeque<f64>,
    capacity: usize,
}

impl PowerHistory {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2);
        PowerHistory { samples: VecDeque::with_capacity(capacity), capacity }
    }

    pub fn push(&mut self, watts: f64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(watts);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the stored window.
    pub fn mean(&self) -> Option<f64> {
        (!self.samples.is_empty())
            .then(|| self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// Least-squares slope in watts per sample: positive = ramping up.
    pub fn trend_w_per_sample(&self) -> Option<f64> {
        let n = self.samples.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let mean_x = (nf - 1.0) / 2.0;
        let mean_y = self.mean().expect("non-empty");
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &y) in self.samples.iter().enumerate() {
            let dx = i as f64 - mean_x;
            num += dx * (y - mean_y);
            den += dx * dx;
        }
        Some(num / den)
    }
}

/// The monitoring layer over a [`Dcm`].
pub struct FleetMonitor {
    histories: Vec<PowerHistory>,
    window: usize,
}

impl FleetMonitor {
    pub fn new(nodes: usize, window: usize) -> Self {
        FleetMonitor { histories: (0..nodes).map(|_| PowerHistory::new(window)).collect(), window }
    }

    /// Size the monitor to a manager's current registration set.
    pub fn for_dcm(dcm: &Dcm, window: usize) -> Self {
        Self::new(dcm.len(), window)
    }

    /// Record a reading obtained elsewhere (the fleet engine polls nodes
    /// itself at each barrier and feeds the monitor). A node registered
    /// after the monitor was built gets a fresh history on its first
    /// reading.
    pub fn record(&mut self, node: NodeId, watts: f64) {
        let i = node.index();
        if i >= self.histories.len() {
            self.histories.resize_with(i + 1, || PowerHistory::new(self.window));
        }
        self.histories[i].push(watts);
    }

    pub fn history(&self, node: NodeId) -> &PowerHistory {
        &self.histories[node.index()]
    }

    /// Nodes whose recent mean exceeds `budget_w` (rebalancing candidates).
    pub fn hotspots(&self, budget_w: f64) -> Vec<NodeId> {
        self.histories
            .iter()
            .enumerate()
            .filter(|(_, h)| h.mean().is_some_and(|m| m > budget_w))
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }
}

/// Read a node's full SEL through any [`Transact`] link, retrying each
/// command under `retry` (a dropped or corrupted frame costs a
/// retransmit, not an audit hole).
pub fn read_sel(link: &mut dyn Transact, retry: &RetryPolicy) -> Result<Vec<SelEntry>, IpmiError> {
    let info = transact_retry(link, retry, &|seq| get_sel_info_request(seq))?.into_ok()?;
    if info.len() != 2 {
        return Err(IpmiError::Malformed("sel info"));
    }
    let count = u16::from_le_bytes([info[0], info[1]]);
    let mut out = Vec::new();
    if count == 0 {
        return Ok(out);
    }
    // Entry ids are monotonic from the newest backwards; ask for the
    // latest first to learn the current id, then walk down.
    let latest = SelEntry::decode(
        &transact_retry(link, retry, &|seq| get_sel_entry_request(seq, 0xffff))?.into_ok()?,
    )?;
    // Walk only as far below the anchor as the reported `count` requires,
    // plus a small slack: the SEL may grow between the info and anchor
    // reads (the node keeps logging while being audited), which pushes the
    // anchor id above the count's newest entry. Ids below the oldest entry
    // simply answer out-of-range and fall through. Clamped to the ring
    // bound, so a full log still costs at most one ring's worth — and a
    // 10-entry log costs ~10 transactions, not 4096.
    // The walk wraps: after a long event storm record ids wrap at 16 bits,
    // so the start id is `latest - span + 1` in wrapping arithmetic — a
    // saturating subtraction would clamp to 0 and skip every pre-wrap
    // (high-id) entry still in the ring. `0xFFFF` is never a record id
    // (the BMC reserves it for "latest") and is skipped when the walk
    // crosses it.
    // The slack also covers the sentinel hole: a full ring whose id range
    // straddles the skipped `0xFFFF` spans `count + 1` arithmetic
    // positions, so the cap must sit above `SEL_CAPACITY`, not at it.
    const GROW_SLACK: u16 = 16;
    let span = count.saturating_add(GROW_SLACK).min(capsim_ipmi::SEL_CAPACITY as u16 + GROW_SLACK);
    let mut id = latest.id.wrapping_sub(span - 1);
    loop {
        if id != 0xffff {
            let resp = transact_retry(link, retry, &|seq| get_sel_entry_request(seq, id))?;
            if let Ok(payload) = resp.into_ok() {
                out.push(SelEntry::decode(&payload)?);
            }
        }
        if id == latest.id {
            break;
        }
        id = id.wrapping_add(1);
    }
    Ok(out)
}

/// Count cap violations recorded in a SEL slice.
pub fn violation_count(entries: &[SelEntry]) -> usize {
    entries.iter().filter(|e| e.event == SelEventType::PowerLimitExceeded).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_is_bounded_and_averages() {
        let mut h = PowerHistory::new(4);
        for w in [100.0, 110.0, 120.0, 130.0, 140.0] {
            h.push(w);
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.mean(), Some(125.0));
    }

    #[test]
    fn trend_detects_ramps() {
        let mut up = PowerHistory::new(10);
        let mut flat = PowerHistory::new(10);
        for i in 0..10 {
            up.push(100.0 + i as f64 * 5.0);
            flat.push(150.0);
        }
        assert!((up.trend_w_per_sample().unwrap() - 5.0).abs() < 1e-9);
        assert!(flat.trend_w_per_sample().unwrap().abs() < 1e-9);
        assert!(PowerHistory::new(2).trend_w_per_sample().is_none());
    }

    #[test]
    fn hotspots_pick_the_right_nodes() {
        let mut dcm = Dcm::new();
        let ids: Vec<NodeId> = (0..3).map(|i| dcm.register(format!("n{i}"))).collect();
        let mut m = FleetMonitor::for_dcm(&dcm, 4);
        for (&id, w) in ids.iter().zip([120.0, 155.0, 130.0]) {
            m.record(id, w);
        }
        assert_eq!(m.hotspots(140.0), vec![ids[1]]);
        assert_eq!(m.hotspots(160.0), Vec::<NodeId>::new());
    }

    #[test]
    fn record_adopts_nodes_registered_after_the_monitor_was_built() {
        let mut dcm = Dcm::new();
        let n0 = dcm.register("n0");
        let mut m = FleetMonitor::for_dcm(&dcm, 4);
        let n1 = dcm.register("n1");
        let n2 = dcm.register("n2");
        // Late registrations get fresh histories, whatever order their
        // readings arrive in.
        m.record(n2, 150.0);
        m.record(n0, 120.0);
        m.record(n1, 130.0);
        assert_eq!(m.history(n2).mean(), Some(150.0));
        assert_eq!(m.history(n1).len(), 1);
        assert_eq!(m.hotspots(140.0), vec![n2]);
    }

    /// Minimal in-memory SEL server mirroring the BMC's GET_SEL_INFO /
    /// GET_SEL_ENTRY handler, so the audit path can be exercised against a
    /// log in any state without spinning up a whole machine.
    struct SelServer {
        sel: capsim_ipmi::SystemEventLog,
        seq: u8,
    }

    impl Transact for SelServer {
        fn next_seq(&mut self) -> u8 {
            self.seq = self.seq.wrapping_add(1);
            self.seq
        }

        fn transact(
            &mut self,
            req: &capsim_ipmi::Request,
        ) -> Result<capsim_ipmi::Response, IpmiError> {
            use capsim_ipmi::sel::{CMD_GET_SEL_ENTRY, CMD_GET_SEL_INFO};
            use capsim_ipmi::{CompletionCode, Response};
            Ok(match req.cmd {
                CMD_GET_SEL_INFO => {
                    Response::ok(req, (self.sel.len() as u16).to_le_bytes().to_vec())
                }
                CMD_GET_SEL_ENTRY => {
                    let id = u16::from_le_bytes([req.payload[0], req.payload[1]]);
                    match self.sel.get(id) {
                        Some(e) => Response::ok(req, e.encode()),
                        None => Response::err(req, CompletionCode::ParameterOutOfRange),
                    }
                }
                _ => Response::err(req, CompletionCode::InvalidCommand),
            })
        }
    }

    #[test]
    fn sel_audit_reads_a_short_log_in_order() {
        let mut sel = capsim_ipmi::SystemEventLog::new();
        for i in 0..10u64 {
            sel.log(i, SelEventType::PowerLimitExceeded, i as u16);
        }
        let expect: Vec<SelEntry> = sel.iter().cloned().collect();
        let mut link = SelServer { sel, seq: 0 };
        let got = read_sel(&mut link, &RetryPolicy::default()).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn sel_audit_is_complete_after_a_wrapping_event_storm() {
        // Log enough events that 16-bit record ids wrap and the ring's
        // retained range straddles both the wrap and the reserved 0xFFFF
        // sentinel. The audit must still return exactly the retained ring,
        // oldest first — the old saturating walk clamped to id 0 and
        // dropped every pre-wrap entry.
        let mut sel = capsim_ipmi::SystemEventLog::new();
        let total = 0x1_0000 + 2048;
        for i in 0..total {
            sel.log(i as u64, SelEventType::PowerLimitExceeded, (i & 0xfff) as u16);
        }
        let expect: Vec<SelEntry> = sel.iter().cloned().collect();
        assert_eq!(expect.len(), capsim_ipmi::SEL_CAPACITY, "ring should be full");
        assert!(
            expect.first().unwrap().id > expect.last().unwrap().id,
            "retained ids should straddle the wrap for this test to bite"
        );
        let mut link = SelServer { sel, seq: 0 };
        let got = read_sel(&mut link, &RetryPolicy::default()).unwrap();
        assert_eq!(got.len(), expect.len(), "audit must cover the full ring across the wrap");
        assert_eq!(got, expect);
    }

    #[test]
    fn violation_counting() {
        let entries = vec![
            SelEntry {
                id: 0,
                timestamp_ms: 1,
                event: SelEventType::PowerLimitConfigured,
                datum: 135,
            },
            SelEntry {
                id: 1,
                timestamp_ms: 2,
                event: SelEventType::PowerLimitExceeded,
                datum: 140,
            },
            SelEntry {
                id: 2,
                timestamp_ms: 3,
                event: SelEventType::PowerLimitExceeded,
                datum: 139,
            },
        ];
        assert_eq!(violation_count(&entries), 2);
    }
}
