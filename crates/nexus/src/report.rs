//! Counters, the end-of-run report, and the accounting equalities the
//! nexus must satisfy on every quiesced run.
//!
//! The equalities are not statistical summaries — they are exact
//! integer identities that hold (or the run is wrong):
//!
//! ```text
//! retired_children        == budget_exceeded_events
//! degraded_reads + normal_reads == total_reads
//! rebuilt + pending       == total_ranges      (at every event barrier)
//! submitted               == completed         (once quiesced)
//! rebuilds_completed      == retired_children  (once quiesced)
//! ```
//!
//! The barrier invariant is checked continuously by the frontend (any
//! violation increments `accounting_violations`); the rest are checked
//! by [`NexusReport::check`], which both the property tests and the
//! `rebuild` registry experiment call.

use ull_probe::Stage;
use ull_simkit::Histogram;
use ull_ssd::TableBytes;

/// Exact event counters of one nexus run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NexusCounters {
    /// Client I/Os dispatched by the frontend.
    pub submitted: u64,
    /// Client I/Os completed back to the application.
    pub completed: u64,
    /// Completed client reads.
    pub total_reads: u64,
    /// Reads dispatched while every child was serving.
    pub normal_reads: u64,
    /// Reads dispatched while the mirror was degraded.
    pub degraded_reads: u64,
    /// Completed client writes.
    pub total_writes: u64,
    /// Writes dispatched while the mirror was degraded.
    pub degraded_writes: u64,
    /// Child fault events (timeouts, resets, media failures) observed
    /// via completion reports.
    pub fault_events: u64,
    /// Budget crossings the frontend acted on.
    pub budget_exceeded_events: u64,
    /// Children retired from the serving set — must equal
    /// `budget_exceeded_events` exactly.
    pub retired_children: u64,
    /// Budget crossings on the last survivor, where retirement is
    /// impossible (the budget resets instead).
    pub suppressed_retirements: u64,
    /// Reads orphaned by a retirement and re-dispatched to a survivor.
    pub failover_reads: u64,
    /// Writes whose last outstanding replica ack was the retired child;
    /// completed at retirement off the surviving acks.
    pub retire_completed_writes: u64,
    /// Completions that arrived for a seq/epoch no longer live (in
    /// flight across a retirement); dropped without effect.
    pub stale_acks: u64,
    /// Acks for writes forwarded to the rebuild target (background, not
    /// client-critical-path).
    pub forward_acks: u64,
    /// Rebuilds started (replacement arrived and was reformatted).
    pub rebuilds_started: u64,
    /// Rebuilds that caught up and re-admitted the child.
    pub rebuilds_completed: u64,
    /// Range copies that landed clean.
    pub ranges_copied: u64,
    /// Range copies re-done because a racing write dirtied them.
    pub range_recopies: u64,
    /// Racing writes that marked a range dirty (first write per copy
    /// pass only — the exactly-once guarantee).
    pub dirty_marks: u64,
    /// Client writes forwarded to the rebuild target (scan head at or
    /// past their range).
    pub forwarded_writes: u64,
    /// Client writes to ranges ahead of the scan head: not forwarded,
    /// the coming copy picks them up from a survivor.
    pub writes_awaiting_copy: u64,
    /// Rebuild copy reads whose source child was retired mid-copy and
    /// that were re-issued from another survivor.
    pub copy_source_failovers: u64,
    /// Barrier-invariant violations (`rebuilt + pending != total`)
    /// observed while a rebuild was live. Always zero on a correct run.
    pub accounting_violations: u64,
}

/// Deterministic outcome of one nexus run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NexusReport {
    /// Exact event counters.
    pub counters: NexusCounters,
    /// End-to-end latency of every client I/O.
    pub latency: Histogram,
    /// End-to-end latency of client I/Os dispatched while the mirror
    /// was degraded (the rebuild/degraded window).
    pub degraded: Histogram,
    /// Per-stage nanosecond totals over probed client I/Os, indexed by
    /// [`Stage::index`](ull_probe::Stage::index). All zero when probing
    /// is off.
    pub stage_ns: [u64; Stage::COUNT],
    /// Client I/Os with a recorded span.
    pub probed_ios: u64,
    /// Order-sensitive digest of the frontend's entire completion
    /// history — two runs that observe the same acks in a different
    /// order disagree here.
    pub checksum: u64,
    /// Children serving when the run drained.
    pub serving_children: u32,
    /// Range count of the volume (copy granularity of a full rebuild).
    pub total_ranges: u32,
    /// Ranges on which any two serving children's content digests
    /// disagree at drain. Always zero on a correct run.
    pub digest_mismatch_ranges: u32,
    /// Retirement instants (ns), in order.
    pub retire_ns: Vec<u64>,
    /// Re-admission instants (ns), in order.
    pub readmit_ns: Vec<u64>,
    /// Whether the run drained with no ops, no in-flight commands, no
    /// live rebuild and an empty rebuild queue.
    pub quiesced: bool,
    /// FTL table bytes the children's devices allocated, summed
    /// ([`ull_ssd::Ssd::table_bytes`]). Tables only grow, so this is the
    /// run's high-water mark.
    pub table_bytes: TableBytes,
}

impl NexusReport {
    /// Verifies every exact accounting identity of a quiesced run.
    ///
    /// # Errors
    ///
    /// Returns the first violated identity, named, with both sides.
    pub fn check(&self) -> Result<(), String> {
        let c = &self.counters;
        if !self.quiesced {
            return Err("run did not quiesce: ops or rebuild state left over".into());
        }
        if c.submitted != c.completed {
            return Err(format!(
                "continuity: submitted {} != completed {}",
                c.submitted, c.completed
            ));
        }
        if c.retired_children != c.budget_exceeded_events {
            return Err(format!(
                "retirement: retired_children {} != budget_exceeded_events {}",
                c.retired_children, c.budget_exceeded_events
            ));
        }
        if c.degraded_reads + c.normal_reads != c.total_reads {
            return Err(format!(
                "read split: degraded {} + normal {} != total {}",
                c.degraded_reads, c.normal_reads, c.total_reads
            ));
        }
        if c.total_reads + c.total_writes != c.completed {
            return Err(format!(
                "op split: reads {} + writes {} != completed {}",
                c.total_reads, c.total_writes, c.completed
            ));
        }
        if c.rebuilds_completed != c.retired_children {
            return Err(format!(
                "rebuild closure: rebuilds_completed {} != retired_children {}",
                c.rebuilds_completed, c.retired_children
            ));
        }
        if c.rebuilds_started != c.rebuilds_completed {
            return Err(format!(
                "rebuild closure: rebuilds_started {} != rebuilds_completed {}",
                c.rebuilds_started, c.rebuilds_completed
            ));
        }
        if c.range_recopies != c.dirty_marks {
            return Err(format!(
                "exactly-once: range_recopies {} != dirty_marks {} \
                 (every dirtied copy pass is re-copied exactly once)",
                c.range_recopies, c.dirty_marks
            ));
        }
        if c.ranges_copied != u64::from(self.total_ranges) * c.rebuilds_completed {
            return Err(format!(
                "coverage: ranges_copied {} != total_ranges {} * rebuilds_completed {}",
                c.ranges_copied, self.total_ranges, c.rebuilds_completed
            ));
        }
        if c.accounting_violations != 0 {
            return Err(format!(
                "dirty-log barrier: {} violations of rebuilt + pending == total",
                c.accounting_violations
            ));
        }
        if self.digest_mismatch_ranges != 0 {
            return Err(format!(
                "replica divergence: {} ranges disagree across serving children",
                self.digest_mismatch_ranges
            ));
        }
        if self.latency.count() != c.completed {
            return Err(format!(
                "histogram: {} samples != {} completions",
                self.latency.count(),
                c.completed
            ));
        }
        Ok(())
    }
}
