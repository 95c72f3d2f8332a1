//! The load: closed-loop GET connections, an open-loop PUT connection and
//! a closed-loop GET/SCAN connection, each on its own thread, each
//! checking every answer it gets.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lsm_server::{decode_response, encode_request, Request, Response};
use lsm_workload::{Arrivals, OpenLoopSchedule};

use crate::conn::{Conn, Wait};
use crate::data::{key, key_id, mix64, Keyspace};
use crate::spec::{Spec, SCAN_LIMIT, WINDOW};
use crate::store::Picker;
use crate::trace::{Span, Tracer, ROOT};

/// One traced request in this many gets spans.
pub const TRACE_EVERY: u64 = 64;
/// Most operations a connection logs for the engine-only replay.
pub const LOG_CAP: usize = 40_000;
/// Longest nap of the open-loop sender between polls; it bounds how
/// late a response can be noticed.
const MAX_NAP: Duration = Duration::from_micros(100);
/// GET samples per one-second slice a GET connection reserves room for.
const RESERVE_PER_S: usize = 200_000;
/// Longest wait for one response before the run is declared failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A request as the workload issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// GET of a key id.
    Get(u64),
    /// SCAN from a key id to [`Keyspace::scan_end`].
    Scan(u64),
    /// PUT of `(key id, version)`.
    Put(u64, u64),
}

impl Op {
    /// The wire request for this operation.
    pub fn request(self, ks: &Keyspace) -> Request {
        match self {
            Op::Get(id) => Request::Get { key: key(id) },
            Op::Scan(start) => Request::Scan {
                start: key(start),
                end: key(ks.scan_end(start)),
                limit: SCAN_LIMIT,
            },
            Op::Put(id, v) => Request::Put {
                key: key(id),
                value: ks.value(id, v),
            },
        }
    }
}

/// An operation from the measured window, with its request id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoggedOp {
    /// When it was sent.
    pub at: Instant,
    /// Request id, unique across the run's connections.
    pub req: u64,
    /// The operation.
    pub op: Op,
}

/// When a connection starts recording and when it stops sending.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Requests sent from here on are measured.
    pub measure_from: Instant,
    /// No request is sent from here on.
    pub until: Instant,
}

impl Window {
    /// Measured seconds.
    pub fn seconds(&self) -> f64 {
        self.until.duration_since(self.measure_from).as_secs_f64()
    }

    /// Number of one-second slices the window is split into.
    pub fn slices(&self) -> usize {
        (self.seconds().round() as usize).max(1)
    }

    /// The slice `t` falls in, if inside the window.
    pub fn slice_of(&self, t: Instant) -> Option<usize> {
        let at = t.checked_duration_since(self.measure_from)?.as_secs_f64();
        let i = (at / self.seconds() * self.slices() as f64) as usize;
        (i < self.slices()).then_some(i)
    }
}

/// What a connection measured and checked.
#[derive(Default)]
pub struct Tally {
    /// Latencies (ns, saturating at `u32::MAX`) of the GETs that
    /// completed inside the window, by the one-second slice they
    /// completed in.
    pub get_ns: Vec<Vec<u32>>,
    /// PUT latencies from the scheduled send time, ns.
    pub put_ns: Vec<u64>,
    /// SCAN latencies, ns.
    pub scan_ns: Vec<u64>,
    /// How late the open-loop generator sent each PUT, ns.
    pub put_late_ns: Vec<u64>,
    /// Measured requests sent.
    pub attempted: u64,
    /// Measured requests refused (BUSY, shutting down) or errored.
    pub failed: u64,
    /// Wrong answers, measured or not.
    pub wrong: u64,
    /// The first wrong answer, described.
    pub first_wrong: Option<String>,
    /// PUTs acknowledged inside the measured window.
    pub puts_acked_in_window: u64,
    /// Measured responses and their frame bytes.
    pub responses: u64,
    /// Response frame bytes of measured requests.
    pub resp_bytes: u64,
    /// Measured operations, for the engine-only replay (traced runs).
    pub ops: Vec<LoggedOp>,
    /// Client spans (traced runs).
    pub spans: Vec<Span>,
    /// Last acknowledged version per key id (PUT connection).
    pub last_acked: HashMap<u64, u64>,
}

impl Tally {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Tally, tracer: &mut Tracer) {
        self.get_ns
            .resize(self.get_ns.len().max(other.get_ns.len()), Vec::new());
        for (mine, theirs) in self.get_ns.iter_mut().zip(other.get_ns) {
            mine.extend(theirs);
        }
        self.put_ns.extend(other.put_ns);
        self.scan_ns.extend(other.scan_ns);
        self.put_late_ns.extend(other.put_late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong = other.first_wrong;
        }
        self.puts_acked_in_window += other.puts_acked_in_window;
        self.responses += other.responses;
        self.resp_bytes += other.resp_bytes;
        self.ops.extend(other.ops);
        tracer.absorb(other.spans);
        for (id, v) in other.last_acked {
            let e = self.last_acked.entry(id).or_insert(v);
            *e = (*e).max(v);
        }
    }

    fn wrong_answer(&mut self, what: String) {
        self.wrong += 1;
        if self.first_wrong.is_none() {
            self.first_wrong = Some(what);
        }
    }
}

/// How one answer checked out.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A correct answer.
    Ok,
    /// Refused or errored: counts as failed.
    Failed,
    /// A wrong answer.
    Wrong(String),
}

/// Checks `resp` as the answer to `op`, given that PUTs `1..=issued` may
/// have been sent.
pub fn check(ks: &Keyspace, op: Op, resp: &Response, issued: u64) -> Verdict {
    match (op, resp) {
        (_, Response::Busy | Response::ShuttingDown | Response::Error(_)) => Verdict::Failed,
        (Op::Get(id), Response::Value(v)) if ks.is_written(id, v, issued) => Verdict::Ok,
        // odd ids are never preloaded; only GET workloads without PUTs
        // ask for them
        (Op::Get(id), Response::NotFound) if id % 2 == 1 && issued == 0 => Verdict::Ok,
        (Op::Put(..), Response::Ok) => Verdict::Ok,
        (Op::Scan(start), Response::Entries(es)) => check_scan(ks, start, es, issued),
        (op, resp) => Verdict::Wrong(format!("{op:?} answered {}", describe(resp))),
    }
}

fn describe(resp: &Response) -> String {
    match resp {
        Response::Value(v) => format!("a {}-byte value that was never written for it", v.len()),
        other => format!("{other:?}"),
    }
}

/// A SCAN answer must hold at most `limit` strictly increasing keys in
/// `[start, end)`, each with a value written for it, and skip no
/// preloaded key (those are never deleted) up to its last key — or up to
/// the end of the range when it returned fewer than `limit`.
fn check_scan(ks: &Keyspace, start: u64, es: &[(Vec<u8>, Vec<u8>)], issued: u64) -> Verdict {
    let limit = SCAN_LIMIT;
    if es.len() > limit as usize {
        return Verdict::Wrong(format!(
            "scan from {start} returned {} > {limit} entries",
            es.len()
        ));
    }
    let mut next_preloaded = start + start % 2;
    let mut prev: Option<u64> = None;
    for (k, v) in es {
        let Some(id) = key_id(k) else {
            return Verdict::Wrong(format!("scan from {start} returned a foreign key"));
        };
        if id < start || id >= ks.scan_end(start) || prev.is_some_and(|p| id <= p) {
            return Verdict::Wrong(format!(
                "scan from {start} returned key {id} out of order or range"
            ));
        }
        if !ks.is_written(id, v, issued) {
            return Verdict::Wrong(format!(
                "scan from {start} returned a wrong value for key {id}"
            ));
        }
        if next_preloaded < id {
            return Verdict::Wrong(format!(
                "scan from {start} skipped preloaded key {next_preloaded}"
            ));
        }
        if next_preloaded == id {
            next_preloaded += 2;
        }
        prev = Some(id);
    }
    if es.len() < limit as usize && next_preloaded < ks.scan_end(start) {
        return Verdict::Wrong(format!(
            "scan from {start} stopped early, before preloaded key {next_preloaded}"
        ));
    }
    Verdict::Ok
}

struct Pending {
    op: Op,
    due: Instant,
    sent: Instant,
    encoded: Instant,
    written: Instant,
    recorded: bool,
    traced: bool,
}

/// One connection's bookkeeping: request ids, outstanding requests,
/// answer checks, latency samples and spans.
struct Driver<'a> {
    conn: Conn,
    conn_idx: u64,
    rid: u64,
    ks: Keyspace,
    issued: &'a AtomicU64,
    win: Window,
    tracer: Option<Tracer>,
    pending: HashMap<u64, Pending>,
    tally: Tally,
}

impl<'a> Driver<'a> {
    fn new(
        addr: SocketAddr,
        conn_idx: u64,
        ks: Keyspace,
        issued: &'a AtomicU64,
        win: Window,
        trace: Option<Instant>,
    ) -> Result<Driver<'a>, String> {
        Ok(Driver {
            conn: Conn::connect(addr).map_err(|e| format!("connect: {e}"))?,
            conn_idx,
            rid: 0,
            ks,
            issued,
            win,
            tracer: trace.map(Tracer::new),
            pending: HashMap::new(),
            tally: Tally {
                get_ns: vec![Vec::new(); win.slices()],
                ..Tally::default()
            },
        })
    }

    /// Encodes and writes `op`, due at `due`.
    fn send(&mut self, op: Op, due: Instant) -> Result<(), String> {
        self.rid += 1;
        let rid = self.rid;
        let sent = Instant::now();
        let recorded = sent >= self.win.measure_from;
        let frame = encode_request(rid, &op.request(&self.ks));
        let encoded = Instant::now();
        self.conn.write(&frame).map_err(|e| format!("send: {e}"))?;
        let written = Instant::now();
        if recorded {
            self.tally.attempted += 1;
            if self.tracer.is_some() && self.tally.ops.len() < LOG_CAP {
                self.tally.ops.push(LoggedOp {
                    at: sent,
                    req: self.req_id(rid),
                    op,
                });
            }
        }
        let traced = recorded && self.tracer.is_some() && rid.is_multiple_of(TRACE_EVERY);
        self.pending.insert(
            rid,
            Pending {
                op,
                due,
                sent,
                encoded,
                written,
                recorded,
                traced,
            },
        );
        Ok(())
    }

    fn req_id(&self, rid: u64) -> u64 {
        (self.conn_idx << 40) | rid
    }

    /// Receives and checks one response, waiting as `wait` allows.
    /// Returns whether a response arrived.
    fn receive(&mut self, wait: Wait) -> Result<bool, String> {
        let Some(range) = self
            .conn
            .next_frame(wait)
            .map_err(|e| format!("receive: {e}"))?
        else {
            return Ok(false);
        };
        let frame_bytes = range.len() as u64 + 4;
        let received = Instant::now();
        let (rid, resp) = decode_response(self.conn.payload(range))
            .map_err(|e| format!("undecodable response: {e}"))?;
        let decoded = Instant::now();
        let p = self
            .pending
            .remove(&rid)
            .ok_or_else(|| format!("response for unknown request {rid}"))?;
        let issued = self.issued.load(Ordering::SeqCst);
        let verdict = check(&self.ks, p.op, &resp, issued);
        let checked = Instant::now();
        if let (Op::Put(id, v), Verdict::Ok) = (p.op, &verdict) {
            let e = self.tally.last_acked.entry(id).or_insert(v);
            *e = (*e).max(v);
            if decoded >= self.win.measure_from && decoded <= self.win.until {
                self.tally.puts_acked_in_window += 1;
            }
        }
        match verdict {
            Verdict::Ok => {}
            Verdict::Failed if p.recorded => self.tally.failed += 1,
            Verdict::Failed => {}
            Verdict::Wrong(what) => self.tally.wrong_answer(what),
        }
        if p.recorded {
            let ns = decoded.saturating_duration_since(p.due).as_nanos() as u64;
            match p.op {
                Op::Get(_) => {
                    if let Some(i) = self.win.slice_of(decoded) {
                        self.tally.get_ns[i].push(ns.min(u32::MAX as u64) as u32);
                    }
                }
                Op::Scan(_) => self.tally.scan_ns.push(ns),
                Op::Put(..) => {
                    self.tally.put_ns.push(ns);
                    let late = p.sent.saturating_duration_since(p.due);
                    self.tally.put_late_ns.push(late.as_nanos() as u64);
                }
            }
            self.tally.responses += 1;
            self.tally.resp_bytes += frame_bytes;
        }
        if p.traced {
            let req = self.req_id(rid);
            if let Some(t) = self.tracer.as_mut() {
                let root = t.push("wire.request", t.at(p.due), t.at(checked), ROOT, req);
                t.push("client.encode", t.at(p.sent), t.at(p.encoded), root, req);
                t.push("client.write", t.at(p.encoded), t.at(p.written), root, req);
                t.push("client.decode", t.at(received), t.at(decoded), root, req);
                t.push("client.check", t.at(decoded), t.at(checked), root, req);
            }
        }
        Ok(true)
    }

    /// Blocks until every outstanding response arrived.
    fn drain(&mut self) -> Result<(), String> {
        while !self.pending.is_empty() {
            if !self.receive(Wait::Block(RESPONSE_TIMEOUT))? {
                return Err(format!("{} responses never arrived", self.pending.len()));
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Tally {
        if let Some(t) = self.tracer.take() {
            self.tally.spans = t.spans;
        }
        self.tally
    }
}

/// Closed loop of GETs keeping [`WINDOW`] requests in flight
/// (`get_hot`, `get_cold`).
pub fn closed_gets(
    addr: SocketAddr,
    conn_idx: u64,
    spec: &Spec,
    ks: Keyspace,
    win: Window,
    trace: Option<Instant>,
) -> Result<Tally, String> {
    let issued = AtomicU64::new(0);
    pin_load_thread(conn_idx);
    let mut d = Driver::new(addr, conn_idx, ks, &issued, win, trace)?;
    // reserved, not touched: the samples then grow the resident set by
    // exactly their own size, with no reallocation copies in the peak
    for slice in &mut d.tally.get_ns {
        slice.reserve(RESERVE_PER_S);
    }
    let mut picker = Picker::new(spec.workload, ks, conn_idx);
    while Instant::now() < win.until {
        while d.pending.len() < WINDOW {
            let now = Instant::now();
            d.send(Op::Get(picker.next_get()), now)?;
        }
        if !d.receive(Wait::Block(RESPONSE_TIMEOUT))? {
            return Err("a GET response never arrived".into());
        }
    }
    d.drain()?;
    Ok(d.finish())
}

/// Closed loop, one request at a time, alternating a GET of a preloaded
/// key with a SCAN (`put_scan`).
pub fn closed_get_scan(
    addr: SocketAddr,
    conn_idx: u64,
    spec: &Spec,
    ks: Keyspace,
    issued: &AtomicU64,
    win: Window,
    trace: Option<Instant>,
) -> Result<Tally, String> {
    let mut d = Driver::new(addr, conn_idx, ks, issued, win, trace)?;
    let mut picker = Picker::new(spec.workload, ks, conn_idx);
    let mut i = 0u64;
    while Instant::now() < win.until {
        let op = if i.is_multiple_of(2) {
            Op::Get(picker.next_get())
        } else {
            Op::Scan(picker.next_scan_start())
        };
        i += 1;
        d.send(op, Instant::now())?;
        d.drain()?;
    }
    Ok(d.finish())
}

/// Open loop of PUTs at `spec.put_rate` with Poisson arrivals; each PUT
/// is timed from its scheduled send time (`put_scan`).
pub fn open_puts(
    addr: SocketAddr,
    conn_idx: u64,
    spec: &Spec,
    ks: Keyspace,
    issued: &AtomicU64,
    win: Window,
    trace: Option<Instant>,
) -> Result<Tally, String> {
    let mut d = Driver::new(addr, conn_idx, ks, issued, win, trace)?;
    let mut schedule =
        OpenLoopSchedule::new(spec.put_rate, Arrivals::Poisson, mix64(ks.seed ^ 0x4F50));
    let epoch = Instant::now();
    let mut due = epoch + Duration::from_nanos(schedule.next_arrival_ns());
    let mut version = issued.load(Ordering::SeqCst);
    while due < win.until {
        let now = Instant::now();
        if due <= now {
            version += 1;
            // published before the write, so a reader that sees this
            // version accepts it
            issued.store(version, Ordering::SeqCst);
            d.send(Op::Put(ks.put_key(version), version), due)?;
            due = epoch + Duration::from_nanos(schedule.next_arrival_ns());
            continue;
        }
        // socket timeouts tick too coarsely for an arrival schedule:
        // poll, and nap briefly when there is nothing to read
        if !d.receive(Wait::Poll)? {
            std::thread::sleep((due - now).min(MAX_NAP));
        }
    }
    d.drain()?;
    Ok(d.finish())
}

/// Pins the calling load thread to processor `idx` (modulo the
/// processors available), so where the scheduler happens to put the load
/// threads does not move the figures. A no-op where unsupported.
fn pin_load_thread(idx: u64) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let cpus = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(64);
        let mask: u64 = 1 << (idx as usize % cpus);
        // SAFETY: pid 0 names the calling thread, and `mask` is a live
        // u64 whose exact size is passed with it. A failure leaves the
        // thread unpinned, which only costs steadiness.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = idx;
}
