//! The out-of-band management "LAN": an in-memory channel pair standing in
//! for the BMC's dedicated NIC, plus a deterministic fault model for it.
//!
//! [`LanChannel::pair`] creates a [`ManagerPort`] (DCM side) and a
//! [`BmcPort`] (node side). Frames cross as raw bytes — everything is
//! encoded/decoded through [`crate::message`], so a protocol bug shows up
//! as a checksum or parse failure exactly as it would on a real wire.
//!
//! [`LanChannel::faulty_pair`] adds a seeded [`FaultInjector`] on each
//! direction of the manager side: frames can be dropped, corrupted (the
//! receiver sees a checksum failure), delayed by a few delivery polls, or
//! — on the response path — replaced by a `NodeBusy` completion. Every
//! decision comes from the injector's own RNG, so a given `(spec, seed)`
//! reproduces the exact same fault schedule.
//!
//! Managers issue commands through the [`Transact`] trait: send one
//! request, get the matching response (sequence number, NetFn *and*
//! command must all match, so stale or wrapped-sequence responses from
//! earlier, timed-out requests are rejected rather than mistaken for the
//! answer). [`WireOutcome::capture`] layers bounded retry-with-backoff on
//! top, re-issuing with a fresh sequence number on transient failures;
//! [`transact_retry`] returns just its result.
//!
//! There is one wait discipline: [`ManagerPort::transact_polled`] counts
//! its wait in delivery polls, and the caller's callback gives the BMC its
//! turn before each poll. No wait depends on host time, so a transaction's
//! outcome is a function of the fault seed and the call sequence alone.

use std::collections::VecDeque;

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender, TryRecvError};

use crate::message::{CompletionCode, IpmiError, Request, Response};

/// Fault rates for one direction of a management link. All probabilities
/// are per frame, drawn independently in this order: drop, corrupt, busy
/// (response direction only), delay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability a frame vanishes in transit.
    pub drop_prob: f64,
    /// Probability one byte of the frame is flipped (caught by the IPMI
    /// checksum at the receiver).
    pub corrupt_prob: f64,
    /// Probability a response is replaced by a `NodeBusy` completion
    /// (the BMC's firmware deferred the command). Ignored on the request
    /// direction.
    pub busy_prob: f64,
    /// Probability a frame is held back for 1..=`max_delay` delivery
    /// polls before arriving (frames may reorder).
    pub delay_prob: f64,
    /// Maximum delay in delivery polls.
    pub max_delay: u8,
    /// Honesty bound: after this many consecutive faulted frames the next
    /// frame is delivered clean (0 disables the bound). Guarantees that a
    /// retrying manager eventually gets through.
    pub max_consecutive_faults: u8,
}

impl FaultSpec {
    /// A clean link (all fault paths off).
    pub fn none() -> Self {
        FaultSpec {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            busy_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
            max_consecutive_faults: 0,
        }
    }

    /// A lossy-but-live link: `p` drop + `p` corrupt + `p/2` busy + `p`
    /// delay (≤3 polls), with eventual delivery guaranteed after 4
    /// consecutive faults.
    pub fn lossy(p: f64) -> Self {
        assert!((0.0..0.5).contains(&p), "lossy fault rate out of range: {p}");
        FaultSpec {
            drop_prob: p,
            corrupt_prob: p,
            busy_prob: p / 2.0,
            delay_prob: p,
            max_delay: 3,
            max_consecutive_faults: 4,
        }
    }

    /// A black hole: everything sent into it disappears (a dead BMC).
    pub fn dead() -> Self {
        FaultSpec { drop_prob: 1.0, ..FaultSpec::none() }
    }

    /// True when every fault path is off.
    pub fn is_clean(&self) -> bool {
        self.drop_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.busy_prob == 0.0
            && self.delay_prob == 0.0
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// Which way frames flow through an injector (busy rewriting only makes
/// sense for responses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDirection {
    Request,
    Response,
}

/// Cumulative injector statistics (diagnostics; deterministic for a given
/// seed and call sequence).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub delivered: u64,
    pub dropped: u64,
    pub corrupted: u64,
    pub busied: u64,
    pub delayed: u64,
}

/// Deterministic, seeded fault layer for one direction of a link.
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    dir: FaultDirection,
    rng: u64,
    consecutive: u8,
    /// Frames waiting out a delay: (remaining polls, frame).
    delayed: VecDeque<(u8, Bytes)>,
    /// Frames ready for delivery, in order.
    ready: VecDeque<Bytes>,
    stats: FaultStats,
}

/// Mix a seed with a salt through the splitmix64 finalizer.
///
/// This is the one seed-derivation scheme used across the workspace —
/// `Fleet` derives per-node seeds from it, and [`LanChannel::faulty_pair`]
/// derives per-direction link seeds from it — so adjacent raw seeds never
/// produce correlated child streams.
pub fn splitmix64(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultInjector {
    pub fn new(spec: FaultSpec, dir: FaultDirection, seed: u64) -> Self {
        // Scramble the seed (splitmix64 finalizer) so adjacent seeds give
        // unrelated schedules, and keep the xorshift state nonzero.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        FaultInjector {
            spec,
            dir,
            rng: z | 1,
            consecutive: 0,
            delayed: VecDeque::new(),
            ready: VecDeque::new(),
            stats: FaultStats::default(),
        }
    }

    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn forced_clean(&mut self) -> bool {
        self.spec.max_consecutive_faults > 0 && self.consecutive >= self.spec.max_consecutive_faults
    }

    /// Feed one frame into the injector; it lands in the ready queue, the
    /// delay queue, or nowhere (dropped).
    pub fn admit(&mut self, frame: Bytes) {
        if self.spec.is_clean() || self.forced_clean() {
            self.consecutive = 0;
            self.stats.delivered += 1;
            self.ready.push_back(frame);
            return;
        }
        if self.next_f64() < self.spec.drop_prob {
            self.consecutive += 1;
            self.stats.dropped += 1;
            return;
        }
        if self.next_f64() < self.spec.corrupt_prob {
            self.consecutive += 1;
            self.stats.corrupted += 1;
            let mut bytes = frame.to_vec();
            let idx = (self.next_u64() as usize) % bytes.len().max(1);
            bytes[idx] ^= 1 << (self.next_u64() % 8);
            self.ready.push_back(Bytes::from(bytes));
            return;
        }
        if self.dir == FaultDirection::Response && self.next_f64() < self.spec.busy_prob {
            self.consecutive += 1;
            self.stats.busied += 1;
            // Replace the payload with a NodeBusy completion for the same
            // (netfn, cmd, seq) — what firmware that shed the command
            // would answer. An unparseable frame is passed through as-is.
            if let Ok(resp) = Response::decode(&frame) {
                let busy = Response {
                    completion: CompletionCode::NodeBusy,
                    payload: Bytes::new(),
                    ..resp
                };
                self.ready.push_back(busy.encode());
            } else {
                self.ready.push_back(frame);
            }
            return;
        }
        if self.spec.delay_prob > 0.0 && self.next_f64() < self.spec.delay_prob {
            self.consecutive += 1;
            self.stats.delayed += 1;
            let polls = 1 + (self.next_u64() % self.spec.max_delay.max(1) as u64) as u8;
            self.delayed.push_back((polls, frame));
            return;
        }
        self.consecutive = 0;
        self.stats.delivered += 1;
        self.ready.push_back(frame);
    }

    /// One delivery poll: age the delay queue, then pop the next ready
    /// frame if any.
    pub fn poll_ready(&mut self) -> Option<Bytes> {
        let mut still_delayed = VecDeque::with_capacity(self.delayed.len());
        while let Some((polls, frame)) = self.delayed.pop_front() {
            if polls <= 1 {
                self.ready.push_back(frame);
            } else {
                still_delayed.push_back((polls - 1, frame));
            }
        }
        self.delayed = still_delayed;
        self.ready.pop_front()
    }

    /// True when no frame is in flight inside the injector.
    pub fn is_idle(&self) -> bool {
        self.delayed.is_empty() && self.ready.is_empty()
    }
}

/// One request/response exchange with a managed node: send `req`, return
/// the response whose sequence number, NetFn and command all match.
///
/// Implementations wrap a [`ManagerPort`] and decide only how the BMC
/// gets its turn: they wait through [`ManagerPort::transact_polled`],
/// handing it a callback that serves the BMC before each delivery poll
/// (the fleet's `PumpedLink` services the node's machine).
pub trait Transact {
    /// Allocate the next request sequence number (wrapping).
    fn next_seq(&mut self) -> u8;

    /// Send `req` and wait (within the link's budget) for the matching
    /// response. Non-matching responses — stale answers to earlier,
    /// retried or timed-out requests — are discarded, never returned.
    fn transact(&mut self, req: &Request) -> Result<Response, IpmiError>;

    /// Scale the link's wait budget (retry backoff hook). `1` restores
    /// the default.
    fn set_patience(&mut self, factor: u32) {
        let _ = factor;
    }
}

/// Bounded retry for [`Transact::transact`]: each attempt re-issues the
/// command with a **fresh sequence number** (so a late response to an
/// earlier attempt can never be mistaken for the current one) and an
/// exponentially growing wait budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts before giving up.
    pub attempts: u32,
    /// Cap on the patience multiplier (2^attempt, saturated here).
    pub max_patience: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 6, max_patience: 16 }
    }
}

impl RetryPolicy {
    /// A single attempt, no retry.
    pub fn once() -> Self {
        RetryPolicy { attempts: 1, max_patience: 1 }
    }
}

/// Issue a command built by `build(seq)` under `retry`, returning the
/// first non-busy matching response: [`WireOutcome::capture`] for callers
/// that do not count attempts.
pub fn transact_retry(
    link: &mut dyn Transact,
    retry: &RetryPolicy,
    build: &dyn Fn(u8) -> Request,
) -> Result<Response, IpmiError> {
    WireOutcome::capture(link, retry, build).result
}

/// The terminal result of one retried transaction plus how many attempts
/// it took — everything a deferred observer needs to reconstruct the
/// retry/timeout story after the fact. Lock-step fleets capture one of
/// these per wire command in their per-node maps, then replay them into
/// the root manager's observability sink in node order (see
/// `capsim_dcm`), keeping the recorded stream independent of how the
/// map was scheduled across workers.
#[derive(Debug)]
pub struct WireOutcome {
    /// What the transaction finally returned.
    pub result: Result<Response, IpmiError>,
    /// Attempts spent (≥ 1).
    pub attempts: u32,
}

impl WireOutcome {
    /// Run one retried transaction and capture its outcome. Transient
    /// failures (dropped, corrupted, timed-out frames, busy completions)
    /// are retried, each attempt with a fresh sequence number and a
    /// doubling patience; anything else aborts immediately. The
    /// observability layer turns `attempts − 1` into retry counters and
    /// timeout events.
    pub fn capture(
        link: &mut dyn Transact,
        retry: &RetryPolicy,
        build: &dyn Fn(u8) -> Request,
    ) -> WireOutcome {
        let mut last = IpmiError::TimedOut;
        let attempts = retry.attempts.max(1);
        for attempt in 0..attempts {
            link.set_patience((1u32 << attempt.min(8)).min(retry.max_patience.max(1)));
            let req = build(link.next_seq());
            match link.transact(&req) {
                Ok(resp) if resp.completion == CompletionCode::NodeBusy => {
                    last = IpmiError::Completion(CompletionCode::NodeBusy);
                }
                Err(e) if e.is_transient() => last = e,
                result => {
                    link.set_patience(1);
                    return WireOutcome { result, attempts: attempt + 1 };
                }
            }
        }
        link.set_patience(1);
        WireOutcome { result: Err(last), attempts }
    }
}

/// Constructor namespace for the channel pair.
pub struct LanChannel;

impl LanChannel {
    /// Create a connected manager/BMC port pair over a clean link.
    pub fn pair() -> (ManagerPort, BmcPort) {
        Self::build(None)
    }

    /// Create a pair whose manager side injects faults in both
    /// directions, deterministically from `seed`.
    pub fn faulty_pair(spec: FaultSpec, seed: u64) -> (ManagerPort, BmcPort) {
        // Derive the two direction seeds through splitmix64 rather than a
        // plain XOR: XOR'd constants keep adjacent raw seeds adjacent, so
        // links seeded n and n+1 would see correlated fault schedules.
        let faults = LinkFaults {
            req: FaultInjector::new(spec, FaultDirection::Request, splitmix64(seed, 0x72_6571)),
            resp: FaultInjector::new(spec, FaultDirection::Response, splitmix64(seed, 0x72_6573)),
        };
        Self::build(Some(faults))
    }

    fn build(faults: Option<LinkFaults>) -> (ManagerPort, BmcPort) {
        let (req_tx, req_rx) = unbounded::<Bytes>();
        let (resp_tx, resp_rx) = unbounded::<Bytes>();
        (
            ManagerPort { tx: req_tx, rx: resp_rx, next_seq: 0, faults },
            BmcPort { rx: req_rx, tx: resp_tx },
        )
    }
}

/// Both directions of a faulty link, owned by the manager side (where the
/// delivery polls happen).
#[derive(Debug)]
pub struct LinkFaults {
    pub req: FaultInjector,
    pub resp: FaultInjector,
}

/// The manager (DCM) end: sends requests, receives responses.
pub struct ManagerPort {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    next_seq: u8,
    faults: Option<LinkFaults>,
}

impl ManagerPort {
    /// Allocate the next sequence number (wrapping).
    pub fn next_seq(&mut self) -> u8 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }

    /// Fault statistics for a faulty link (`None` on a clean pair).
    pub fn fault_stats(&self) -> Option<(FaultStats, FaultStats)> {
        self.faults.as_ref().map(|f| (f.req.stats(), f.resp.stats()))
    }

    /// Flush request-direction frames that have finished their delay onto
    /// the wire.
    fn pump_requests(&mut self) -> Result<(), IpmiError> {
        if let Some(lf) = &mut self.faults {
            while let Some(frame) = lf.req.poll_ready() {
                self.tx.send(frame).map_err(|_| IpmiError::ChannelClosed)?;
            }
        }
        Ok(())
    }

    /// Send a request frame (through the fault layer, if any).
    pub fn send(&mut self, req: &Request) -> Result<(), IpmiError> {
        let frame = req.encode();
        match &mut self.faults {
            None => self.tx.send(frame).map_err(|_| IpmiError::ChannelClosed),
            Some(lf) => {
                lf.req.admit(frame);
                self.pump_requests()
            }
        }
    }

    /// Non-blocking poll for a response frame: one delivery poll of the
    /// fault layer plus a drain of the wire. `Ok(None)` when nothing has
    /// arrived. A frame that fails to decode on a faulty link reports
    /// [`IpmiError::Corrupt`].
    pub fn try_recv(&mut self) -> Result<Option<Response>, IpmiError> {
        self.pump_requests()?;
        match &mut self.faults {
            None => match self.rx.try_recv() {
                Ok(bytes) => Response::decode(&bytes).map(Some),
                Err(TryRecvError::Empty) => Ok(None),
                Err(TryRecvError::Disconnected) => Err(IpmiError::ChannelClosed),
            },
            Some(lf) => {
                let mut disconnected = false;
                loop {
                    match self.rx.try_recv() {
                        Ok(bytes) => lf.resp.admit(bytes),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            disconnected = true;
                            break;
                        }
                    }
                }
                match lf.resp.poll_ready() {
                    Some(bytes) => match Response::decode(&bytes) {
                        Ok(resp) => Ok(Some(resp)),
                        Err(_) => Err(IpmiError::Corrupt),
                    },
                    None if disconnected && lf.resp.is_idle() => Err(IpmiError::ChannelClosed),
                    None => Ok(None),
                }
            }
        }
    }

    /// Send `req` and wait up to `polls` delivery polls for its response.
    /// Each poll first calls `serve`, which gives the BMC its turn, then
    /// makes one [`ManagerPort::try_recv`]. Sequence number, NetFn and
    /// command must all match: a delayed response to an earlier request
    /// (even one whose 8-bit sequence number has wrapped around to the
    /// same value but belongs to a different command) is discarded, not
    /// returned. [`IpmiError::TimedOut`] when the budget runs out.
    pub fn transact_polled(
        &mut self,
        req: &Request,
        polls: u32,
        mut serve: impl FnMut(),
    ) -> Result<Response, IpmiError> {
        self.send(req)?;
        for _ in 0..polls {
            serve();
            if let Some(resp) = self.try_recv()? {
                if resp.seq == req.seq && resp.cmd == req.cmd && resp.netfn == req.netfn {
                    return Ok(resp);
                }
                // Otherwise a stale response to an earlier attempt.
            }
        }
        Err(IpmiError::TimedOut)
    }
}

/// The BMC end: receives requests, sends responses.
pub struct BmcPort {
    rx: Receiver<Bytes>,
    tx: Sender<Bytes>,
}

impl BmcPort {
    /// Non-blocking poll for a pending request. `Ok(None)` when idle. A
    /// frame that fails to decode (e.g. corrupted in transit) returns its
    /// decode error; service loops should discard it and poll again, as
    /// real firmware does.
    pub fn poll(&self) -> Result<Option<Request>, IpmiError> {
        match self.rx.try_recv() {
            Ok(bytes) => Request::decode(&bytes).map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(IpmiError::ChannelClosed),
        }
    }

    /// Send a response frame.
    pub fn send(&self, resp: &Response) -> Result<(), IpmiError> {
        self.tx.send(resp.encode()).map_err(|_| IpmiError::ChannelClosed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CompletionCode, NetFn};
    use std::cell::Cell;

    /// Echo every pending request as an OK response: the BMC's turn in a
    /// delivery poll.
    fn echo_pending(bmc: &BmcPort) {
        loop {
            match bmc.poll() {
                Ok(Some(req)) => bmc.send(&Response::ok(&req, vec![req.cmd])).unwrap(),
                Ok(None) => break,
                Err(IpmiError::ChannelClosed) => break,
                Err(_) => continue, // corrupted request: discard
            }
        }
    }

    /// A scripted BMC: each pending request is answered with the frames
    /// `script` returns for it, in order.
    fn scripted<'a>(
        bmc: &'a BmcPort,
        script: impl Fn(&Request) -> Vec<Response> + 'a,
    ) -> impl FnMut() + 'a {
        move || {
            while let Some(req) = bmc.poll().unwrap() {
                for resp in script(&req) {
                    bmc.send(&resp).unwrap();
                }
            }
        }
    }

    /// A [`Transact`] link on the one wait discipline: each attempt spends
    /// `polls × patience` delivery polls and runs `serve` before each one,
    /// like the fleet's `PumpedLink` with a closure in place of a machine.
    struct PolledLink<F: FnMut()> {
        port: ManagerPort,
        polls: u32,
        patience: u32,
        serve: F,
    }

    impl<F: FnMut()> PolledLink<F> {
        fn new(port: ManagerPort, polls: u32, serve: F) -> Self {
            PolledLink { port, polls, patience: 1, serve }
        }
    }

    impl<F: FnMut()> Transact for PolledLink<F> {
        fn next_seq(&mut self) -> u8 {
            self.port.next_seq()
        }

        fn transact(&mut self, req: &Request) -> Result<Response, IpmiError> {
            self.port.transact_polled(req, self.polls * self.patience, &mut self.serve)
        }

        fn set_patience(&mut self, factor: u32) {
            self.patience = factor.max(1);
        }
    }

    #[test]
    fn request_crosses_the_wire_intact() {
        let (mut mgr, bmc) = LanChannel::pair();
        let req = Request::new(NetFn::GroupExt, 0x02, 5, vec![0xdc, 0x01]);
        mgr.send(&req).unwrap();
        let got = bmc.poll().unwrap().unwrap();
        assert_eq!(got, req);
        assert!(bmc.poll().unwrap().is_none(), "queue drained");
    }

    #[test]
    fn transact_matches_sequence_numbers() {
        let (mut mgr, bmc) = LanChannel::pair();
        let seq = mgr.next_seq();
        let req = Request::new(NetFn::App, 0x01, seq, Bytes::new());
        // A stale response for a different seq first…
        let bmc = scripted(&bmc, |r| {
            let mut stale = Response::ok(r, Bytes::new());
            stale.seq = r.seq.wrapping_add(100);
            vec![stale, Response::ok(r, vec![0x99])]
        });
        let resp = mgr.transact_polled(&req, 4, bmc).unwrap();
        assert_eq!(resp.seq, seq);
        assert_eq!(&resp.payload[..], &[0x99]);
    }

    #[test]
    fn transact_rejects_wrapped_seq_for_a_different_command() {
        // The u8 sequence space wraps: a delayed response to an *earlier,
        // different* command can carry the same seq as the current
        // request. Matching on (seq, netfn, cmd) rejects it.
        let (mut mgr, bmc) = LanChannel::pair();
        let seq = mgr.next_seq();
        let req = Request::new(NetFn::GroupExt, 0x02, seq, Bytes::new());
        let bmc = scripted(&bmc, |r| {
            // Stale answer from a previous epoch: same seq, other command.
            let stale = Response {
                netfn: NetFn::App,
                cmd: 0x77,
                seq: r.seq,
                completion: CompletionCode::Ok,
                payload: Bytes::from(vec![0xde, 0xad]),
            };
            vec![stale, Response::ok(r, vec![0x01])]
        });
        let resp = mgr.transact_polled(&req, 4, bmc).unwrap();
        assert_eq!(resp.cmd, 0x02);
        assert_eq!(&resp.payload[..], &[0x01]);
    }

    #[test]
    fn transact_times_out_instead_of_hanging() {
        // Nobody answers: the wait ends when the poll budget does.
        let (mut mgr, _bmc) = LanChannel::pair();
        let req = Request::new(NetFn::App, 0x01, mgr.next_seq(), Bytes::new());
        let mut polls = 0;
        assert_eq!(mgr.transact_polled(&req, 5, || polls += 1), Err(IpmiError::TimedOut));
        assert_eq!(polls, 5);
    }

    #[test]
    fn closed_channel_reports_error() {
        let (mut mgr, bmc) = LanChannel::pair();
        drop(bmc);
        let req = Request::new(NetFn::App, 0x01, 0, Bytes::new());
        assert_eq!(mgr.send(&req), Err(IpmiError::ChannelClosed));
        assert_eq!(mgr.transact_polled(&req, 4, || {}), Err(IpmiError::ChannelClosed));
    }

    #[test]
    fn sequence_numbers_wrap() {
        let (mut mgr, _bmc) = LanChannel::pair();
        mgr.next_seq = 255;
        assert_eq!(mgr.next_seq(), 255);
        assert_eq!(mgr.next_seq(), 0);
    }

    #[test]
    fn error_completion_propagates() {
        let (mut mgr, bmc) = LanChannel::pair();
        let req = Request::new(NetFn::App, 0x42, mgr.next_seq(), Bytes::new());
        let bmc = scripted(&bmc, |r| vec![Response::err(r, CompletionCode::InvalidCommand)]);
        let resp = mgr.transact_polled(&req, 4, bmc).unwrap();
        assert_eq!(
            resp.into_ok().unwrap_err(),
            IpmiError::Completion(CompletionCode::InvalidCommand)
        );
    }

    // ------------------------------------------------------ fault layer

    #[test]
    fn fault_schedule_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let mut inj = FaultInjector::new(FaultSpec::lossy(0.3), FaultDirection::Request, seed);
            for i in 0..200u8 {
                inj.admit(Request::new(NetFn::App, 0x01, i, Bytes::new()).encode());
                let _ = inj.poll_ready();
            }
            inj.stats()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
    }

    #[test]
    fn dead_link_drops_everything() {
        let (mgr, bmc) = LanChannel::faulty_pair(FaultSpec::dead(), 7);
        let served = Cell::new(0u32);
        let mut link = PolledLink::new(mgr, 3, || {
            served.set(served.get() + 1);
            echo_pending(&bmc);
        });
        link.set_patience(4);
        let req = Request::new(NetFn::App, 0x01, link.next_seq(), Bytes::new());
        assert_eq!(link.transact(&req), Err(IpmiError::TimedOut));
        assert_eq!(served.get(), 3 * 4, "one serve per poll, polls × patience polls");
        assert!(bmc.poll().unwrap().is_none(), "frame never reached the BMC");
        let (req_stats, _) = link.port.fault_stats().unwrap();
        assert_eq!(req_stats.dropped, 1);
        assert_eq!(req_stats.delivered, 0);
    }

    #[test]
    fn retry_spends_polls_times_the_patience_schedule() {
        // Four attempts at patience 1, 2, 4 and 4 (2^3 capped by
        // max_patience) against a dead link.
        let (mgr, bmc) = LanChannel::faulty_pair(FaultSpec::dead(), 8);
        let served = Cell::new(0u32);
        let mut link = PolledLink::new(mgr, 3, || {
            served.set(served.get() + 1);
            echo_pending(&bmc);
        });
        let retry = RetryPolicy { attempts: 4, max_patience: 4 };
        let out = WireOutcome::capture(&mut link, &retry, &|seq| {
            Request::new(NetFn::App, 0x01, seq, Bytes::new())
        });
        assert_eq!(out.result, Err(IpmiError::TimedOut));
        assert_eq!(out.attempts, 4);
        assert_eq!(served.get(), 3 * (1 + 2 + 4 + 4));
    }

    #[test]
    fn corruption_surfaces_as_checksum_failures_not_bad_data() {
        // Corrupt every response; the manager must report Corrupt, never
        // hand back a frame that decoded into garbage.
        let spec = FaultSpec { corrupt_prob: 1.0, ..FaultSpec::none() };
        let (mut mgr, bmc) = LanChannel::faulty_pair(spec, 11);
        let req = Request::new(NetFn::App, 0x01, mgr.next_seq(), Bytes::new());
        // Answer directly (the request direction corrupts too, so the
        // echo helper would never see a parseable request).
        bmc.send(&Response::ok(&req, vec![0x07])).unwrap();
        assert_eq!(mgr.transact_polled(&req, 4, || {}), Err(IpmiError::Corrupt));
    }

    #[test]
    fn busy_injection_returns_node_busy_completions() {
        let spec = FaultSpec { busy_prob: 1.0, ..FaultSpec::none() };
        let (mut mgr, bmc) = LanChannel::faulty_pair(spec, 3);
        let req = Request::new(NetFn::App, 0x01, mgr.next_seq(), Bytes::new());
        let resp = mgr.transact_polled(&req, 4, || echo_pending(&bmc)).unwrap();
        assert_eq!(resp.completion, CompletionCode::NodeBusy);
        assert_eq!(resp.seq, req.seq);
    }

    #[test]
    fn delayed_frames_arrive_after_enough_polls() {
        let spec = FaultSpec {
            delay_prob: 1.0,
            max_delay: 3,
            max_consecutive_faults: 0,
            ..FaultSpec::none()
        };
        let (mut mgr, bmc) = LanChannel::faulty_pair(spec, 5);
        let req = Request::new(NetFn::App, 0x01, mgr.next_seq(), Bytes::new());
        // The request is stuck in the delay queue; polling ages it onto
        // the wire, the BMC answers, and the response is delayed too.
        let resp = mgr
            .transact_polled(&req, 16, || echo_pending(&bmc))
            .expect("delayed frames eventually delivered");
        assert_eq!(resp.seq, req.seq);
        let (req_stats, resp_stats) = mgr.fault_stats().unwrap();
        assert_eq!((req_stats.delayed, resp_stats.delayed), (1, 1));
    }

    #[test]
    fn forced_clean_bounds_consecutive_faults() {
        let spec = FaultSpec { drop_prob: 1.0, max_consecutive_faults: 3, ..FaultSpec::none() };
        let mut inj = FaultInjector::new(spec, FaultDirection::Request, 9);
        let mut delivered = 0;
        for i in 0..40u8 {
            inj.admit(Request::new(NetFn::App, 0x01, i, Bytes::new()).encode());
            if inj.poll_ready().is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 10, "every 4th frame forced through");
    }

    #[test]
    fn retry_converges_on_a_lossy_link() {
        // Every fault path on, with a forced-clean bound: retry must
        // converge within the bound. Waits are counted in polls, so
        // delayed and corrupted frames replay identically on every run.
        let spec = FaultSpec {
            drop_prob: 0.4,
            corrupt_prob: 0.2,
            busy_prob: 0.3,
            delay_prob: 0.3,
            max_delay: 3,
            max_consecutive_faults: 3,
        };
        for seed in 0..16 {
            let (mgr, bmc) = LanChannel::faulty_pair(spec, seed);
            let mut link = PolledLink::new(mgr, 8, || echo_pending(&bmc));
            let retry = RetryPolicy { attempts: 24, max_patience: 16 };
            let resp = transact_retry(&mut link, &retry, &|seq| {
                Request::new(NetFn::App, 0x42, seq, Bytes::new())
            });
            let resp = resp.expect("bounded faults, so retry must converge");
            assert_eq!(resp.cmd, 0x42);
            assert_eq!(resp.completion, CompletionCode::Ok);
        }
    }
}
