//! Trace-driven workloads: replay `(time, op, offset, len)` records against
//! a host, either open-loop (honouring trace timestamps) or closed-loop
//! (back-to-back, as fast as the stack allows).
//!
//! The text format is one record per line, CSV:
//!
//! ```text
//! # time_us,op,offset,len      (op is R or W; '#' lines are comments)
//! 0,R,4096,4096
//! 12.5,W,1048576,8192
//! ```
//!
//! Times are finite, non-negative microseconds; offsets and lengths are
//! bytes, multiples of the 512-byte LBA. [`replay`] also checks each
//! record against the host it runs on, so a trace that does not fit
//! the device is an error naming its line, never a panic.

use ull_nvme::LBA_BYTES;
use ull_simkit::{Component, Engine, Histogram, Scheduler, SimDuration, SimTime, SlotId};
use ull_stack::{AsyncPort, Host, IoOp};

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOp {
    /// Issue time relative to trace start.
    pub at: SimDuration,
    /// Direction.
    pub op: IoOp,
    /// Byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
    /// 1-based line of the trace text the record came from.
    pub line: usize,
}

/// Error parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// Latest accepted record time: 10^12 µs (about 11.6 days), far
/// below where an instant plus any simulated latency would overflow
/// the nanosecond clock.
const MAX_TIME_US: f64 = 1e12;

/// Parses the CSV trace format.
///
/// # Errors
///
/// Returns the first malformed line: a wrong field count, an unknown
/// op, a time that is not a finite number in `[0, 10^12]` µs, or an
/// offset or length that is not a multiple of 512 (a zero length
/// included).
///
/// # Examples
///
/// ```
/// use ull_workload::parse_trace;
///
/// let ops = parse_trace("0,R,0,4096\n5.5,W,8192,4096\n")?;
/// assert_eq!(ops.len(), 2);
/// # Ok::<(), ull_workload::ParseTraceError>(())
/// ```
pub fn parse_trace(text: &str) -> Result<Vec<TraceOp>, ParseTraceError> {
    let mut ops = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| ParseTraceError {
            line: i + 1,
            message,
        };
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 4 {
            // simlint: allow(S010): parse-error path — runs at most once per replay, never per I/O
            return Err(err(format!("expected 4 fields, got {}", fields.len())));
        }
        let at_us: f64 = fields[0]
            .parse()
            .ok()
            .filter(|t: &f64| (0.0..=MAX_TIME_US).contains(t))
            // simlint: allow(S010): parse-error path — runs at most once per replay, never per I/O
            .ok_or_else(|| err(format!("bad time {:?}", fields[0])))?;
        let op = match fields[1] {
            "R" | "r" => IoOp::Read,
            "W" | "w" => IoOp::Write,
            // simlint: allow(S010): parse-error path — runs at most once per replay, never per I/O
            other => return Err(err(format!("bad op {other:?}, expected R or W"))),
        };
        let offset: u64 = fields[2]
            .parse()
            // simlint: allow(S010): parse-error path — runs at most once per replay, never per I/O
            .map_err(|_| err(format!("bad offset {:?}", fields[2])))?;
        let len: u32 = fields[3]
            .parse()
            // simlint: allow(S010): parse-error path — runs at most once per replay, never per I/O
            .map_err(|_| err(format!("bad len {:?}", fields[3])))?;
        if len == 0 {
            return Err(err("zero-length record".into()));
        }
        if !offset.is_multiple_of(u64::from(LBA_BYTES)) || !len.is_multiple_of(LBA_BYTES) {
            return Err(err(
                // simlint: allow(S010): parse-error path — runs at most once per replay, never per I/O
                format!("offset {offset} and len {len} must be multiples of {LBA_BYTES}"),
            ));
        }
        ops.push(TraceOp {
            at: SimDuration::from_micros_f64(at_us),
            op,
            offset,
            len,
            line: i + 1,
        });
    }
    Ok(ops)
}

/// Result of a trace replay.
#[derive(Debug)]
pub struct TraceReport {
    /// Records replayed.
    pub completed: u64,
    /// Latency histogram (submission to user-visible completion).
    pub latency: Histogram,
    /// Wall-clock span of the replay.
    pub elapsed: SimDuration,
    /// Records that could not be issued at their trace time because the
    /// previous dependency chain ran late (open-loop slip count).
    pub slipped: u64,
}

impl TraceReport {
    /// Mean latency of the replay.
    pub fn mean_latency(&self) -> SimDuration {
        self.latency.mean()
    }
}

/// Bound on in-flight records for pathological all-at-once traces.
/// Driver tags are a separate bound: a record's split parts each take
/// one, so the replay also parks while they do not fit the free tags.
const MAX_IN_FLIGHT: usize = 512;

/// Same-instant tie-break keys: when a submit opportunity and a pending
/// completion land on the same instant, the submitting thread wins the
/// tie (`s <= c` in the pre-component loop), so submits carry the
/// smaller key.
const KEY_SUBMIT: u64 = 0;
const KEY_COMPLETE: u64 = 1;

/// The replay's two event kinds on one timeline.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The submitting thread wakes to issue the next trace record.
    Submit,
    /// The I/O parked in this port slot completed on the device.
    Complete(SlotId),
}

/// Open-loop trace replay as a [`Component`].
///
/// Invariant: at most one `Submit` event is pending at any time — it is
/// rescheduled when stale (the thread's `free_at` moved past it) and
/// parked (`stalled`) when the in-flight window is full or the record's
/// parts exceed the free driver tags, to be revived by the next
/// completion.
struct Replay<'a> {
    host: &'a mut Host,
    ops: &'a [TraceOp],
    port: AsyncPort,
    latency: Histogram,
    completed: u64,
    slipped: u64,
    end: SimTime,
    free_at: SimTime, // submitting thread availability
    idx: usize,
    stalled: bool,
}

impl Replay<'_> {
    /// Schedules the submit wakeup for record `idx` (no-op past the end).
    fn schedule_submit(&self, sched: &mut Scheduler<'_, Ev>) {
        if let Some(o) = self.ops.get(self.idx) {
            let at = (SimTime::ZERO + o.at).max(self.free_at);
            sched.at_keyed(at, KEY_SUBMIT, Ev::Submit);
        }
    }
}

impl Component for Replay<'_> {
    type Event = Ev;

    fn on_event(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
        match ev {
            Ev::Submit => {
                let o = self.ops[self.idx];
                let want = SimTime::ZERO + o.at;
                let at = want.max(self.free_at);
                if at > now {
                    // Stale wakeup: a completion pushed `free_at` past
                    // the scheduled instant. Try again when free.
                    sched.at_keyed(at, KEY_SUBMIT, Ev::Submit);
                    return;
                }
                let parts = o.len.div_ceil(Host::MAX_TRANSFER);
                if self.port.len() >= MAX_IN_FLIGHT || parts > u32::from(self.host.free_tags()) {
                    // Window or tags full: park until a completion
                    // frees a slot and its tags. `replay` rejected any
                    // record longer than all tags, so with nothing in
                    // flight every record fits.
                    self.stalled = true;
                    return;
                }
                self.idx += 1;
                if at > want {
                    self.slipped += 1;
                }
                let (slot, done) = self.port.submit(self.host, o.op, o.offset, o.len, at);
                sched.at_keyed(done, KEY_COMPLETE, Ev::Complete(slot));
                // The submitting thread serializes `io_submit` calls.
                self.free_at = at + SimDuration::from_micros(1);
                self.schedule_submit(sched);
            }
            Ev::Complete(slot) => {
                let (_, r) = self.port.finish(self.host, slot).expect("token in flight");
                self.latency.record(r.latency);
                self.completed += 1;
                self.end = self.end.max(r.user_visible);
                self.free_at = self.free_at.max(r.user_visible);
                if self.stalled {
                    self.stalled = false;
                    self.schedule_submit(sched);
                }
            }
        }
    }
}

/// Replays `ops` open-loop: each record is submitted at its trace time (or
/// as soon as the submitting thread is free, counting a *slip*).
///
/// # Errors
///
/// Before anything runs, returns the first record that ends past the
/// device's capacity or is longer than all driver tags can carry
/// ([`Host::TAGS`] × [`Host::MAX_TRANSFER`]), with its line.
pub fn replay(host: &mut Host, ops: &[TraceOp]) -> Result<TraceReport, ParseTraceError> {
    let capacity = host.controller().ssd().capacity_bytes();
    let max_len = u64::from(Host::TAGS) * u64::from(Host::MAX_TRANSFER);
    for o in ops {
        let message = if o.offset.saturating_add(u64::from(o.len)) > capacity {
            // simlint: allow(S010): validation-error path — runs at most once per replay, never per I/O
            format!("record ends past the device's {capacity}-byte capacity")
        } else if u64::from(o.len) > max_len {
            // simlint: allow(S010): validation-error path — runs at most once per replay, never per I/O
            format!(
                "len {} exceeds the {max_len} bytes all driver tags can carry",
                o.len
            )
        } else {
            continue;
        };
        return Err(ParseTraceError {
            line: o.line,
            message,
        });
    }
    let mut engine: Engine<Ev> = Engine::new();
    let mut comp = Replay {
        host,
        ops,
        port: AsyncPort::with_capacity(64),
        latency: Histogram::new(),
        completed: 0,
        slipped: 0,
        end: SimTime::ZERO,
        free_at: SimTime::ZERO,
        idx: 0,
        stalled: false,
    };
    engine.with_scheduler(SimTime::ZERO, |sched| comp.schedule_submit(sched));
    // Stepped dispatch: a submit handler may emit the *next* submit at
    // the current instant, and it must interleave with already-pending
    // same-instant completions by key — batch draining would reorder.
    engine.run_stepped(&mut comp);
    Ok(TraceReport {
        completed: comp.completed,
        latency: comp.latency,
        elapsed: comp.end.saturating_since(SimTime::ZERO),
        slipped: comp.slipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_nvme::NvmeController;
    use ull_ssd::{presets, Ssd};
    use ull_stack::{IoPath, SoftwareCosts};

    fn host() -> Host {
        let ctrl = NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 1, 1024);
        Host::new(ctrl, SoftwareCosts::linux_4_14(), IoPath::KernelInterrupt)
    }

    #[test]
    fn parses_valid_traces() {
        let t = "# comment\n0,R,0,4096\n\n10,W,8192,4096\n12.25,r,0,512\n";
        let ops = parse_trace(t).unwrap();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[1].op, IoOp::Write);
        assert_eq!(ops[2].at, SimDuration::from_nanos(12_250));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse_trace("0,R,0").unwrap_err().line, 1);
        assert!(parse_trace("0,X,0,4096")
            .unwrap_err()
            .message
            .contains("bad op"));
        assert!(parse_trace("zz,R,0,4096")
            .unwrap_err()
            .message
            .contains("bad time"));
        assert!(parse_trace("0,R,0,0")
            .unwrap_err()
            .message
            .contains("zero-length"));
        for t in ["-5", "NaN", "inf", "-inf", "1e13"] {
            let e = parse_trace(&format!("0,R,0,4096\n{t},R,0,4096")).unwrap_err();
            assert_eq!(e.line, 2, "{t}");
            assert!(e.message.contains("bad time"), "{t}: {}", e.message);
        }
        for rec in ["0,R,4095,4096", "0,R,0,3000", "0,W,100,512"] {
            let e = parse_trace(rec).unwrap_err();
            assert!(
                e.message.contains("multiples of 512"),
                "{rec}: {}",
                e.message
            );
        }
        assert!(parse_trace("0,R,512,1024").is_ok(), "sector-aligned");
    }

    #[test]
    fn replay_rejects_records_the_host_cannot_carry() {
        let mut h = host();
        let cap = h.controller().ssd().capacity_bytes();
        let past_end = format!("0,R,0,4096\n# c\n0,R,{},4096\n", cap - 2048);
        let e = replay(&mut h, &parse_trace(&past_end).unwrap()).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("capacity"), "{}", e.message);
        let too_long = parse_trace("0,W,0,1073741824").unwrap();
        let e = replay(&mut h, &too_long).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("driver tags"), "{}", e.message);
        assert_eq!(h.in_flight(), 0, "nothing ran");
    }

    #[test]
    fn records_park_until_their_tags_are_free() {
        // 600 records of 512 KB (4 tags each) issued at once want 2,400
        // tags; the replay parks on the 1,024 driver tags instead of
        // exhausting them.
        let text: String = (0..600u64)
            .map(|i| format!("0,W,{},524288\n", i * 524_288))
            .collect();
        let mut h = host();
        let r = replay(&mut h, &parse_trace(&text).unwrap()).unwrap();
        assert_eq!(r.completed, 600);
        assert_eq!(h.in_flight(), 0);
    }

    #[test]
    fn replay_completes_all_records() {
        let mut text = String::new();
        for i in 0..500u64 {
            text.push_str(&format!(
                "{},{},{},4096\n",
                i * 20,
                if i % 3 == 0 { 'W' } else { 'R' },
                (i % 1000) * 4096
            ));
        }
        let ops = parse_trace(&text).unwrap();
        let mut h = host();
        let r = replay(&mut h, &ops).unwrap();
        assert_eq!(r.completed, 500);
        assert!(r.mean_latency().as_micros_f64() > 5.0);
        assert!(r.elapsed >= SimDuration::from_micros(499 * 20));
    }

    #[test]
    fn bursty_traces_slip() {
        // 200 records all at t=0: the single submitting thread must slip.
        let text: String = (0..200)
            .map(|i| format!("0,R,{},4096\n", i * 4096))
            .collect();
        let ops = parse_trace(&text).unwrap();
        let mut h = host();
        let r = replay(&mut h, &ops).unwrap();
        assert_eq!(r.completed, 200);
        assert!(r.slipped > 0, "burst must slip the open loop");
    }
}
