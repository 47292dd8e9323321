//! Per-bank state machine with earliest-issue-time bookkeeping.
//!
//! A bank tracks its open row(s), the subarray kind of each, and the
//! earliest tick at which each command class may legally be issued. Rank-
//! and channel-level constraints (tRRD, tFAW, data bus, turnarounds) live
//! in [`crate::rank`].
//!
//! Two operating modes:
//! * **conventional** (default): one row buffer per bank — an ACT requires
//!   the bank precharged, the classic §2.3 machine;
//! * **SALP** (`with_subarrays`): one local row buffer per subarray (the
//!   MASA scheme of Kim et al., cited in §8 as composable with
//!   hybrid-bitline designs). Different subarrays of a bank may hold open
//!   rows simultaneously; ACTs within a bank are spaced by an
//!   inter-subarray gap, and the column path remains shared.

use crate::geometry::SubarrayKind;
use crate::tick::Tick;
use crate::timing::{TimingParams, TimingSet};

/// The open/closed state of one row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferState {
    /// All bitlines precharged; an ACT is required before column access.
    Precharged,
    /// A row is (being) opened; column commands become legal at `tRCD`.
    Open {
        /// Physical row latched in the row buffer.
        phys_row: u32,
        /// Subarray kind of the open row (selects timing parameters).
        kind: SubarrayKind,
    },
}

/// One row buffer's scheduling state.
#[derive(Debug, Clone, Copy)]
struct BufferState {
    state: RowBufferState,
    act_ready: Tick,
    rd_ready: Tick,
    wr_ready: Tick,
    pre_ready: Tick,
}

impl BufferState {
    fn new() -> Self {
        BufferState {
            state: RowBufferState::Precharged,
            act_ready: Tick::ZERO,
            rd_ready: Tick::ZERO,
            wr_ready: Tick::ZERO,
            pre_ready: Tick::ZERO,
        }
    }
}

/// Event counters for one bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Number of ACT commands.
    pub activates: u64,
    /// Number of READ commands.
    pub reads: u64,
    /// Number of WRITE commands.
    pub writes: u64,
    /// Number of PRE commands.
    pub precharges: u64,
    /// Number of row swaps.
    pub swaps: u64,
}

/// One DRAM bank. See the [module docs](self) for the two operating modes.
///
/// All mutating operations take a buffer index (`0` in conventional mode),
/// assert legality in debug builds, and update the earliest-time fields.
/// Query methods are side-effect free so a scheduler can rank candidate
/// commands before committing to one.
#[derive(Debug, Clone)]
pub struct Bank {
    buffers: Vec<BufferState>,
    /// Earliest tick the *bank* may accept another ACT (inter-subarray
    /// spacing under SALP; unused extra constraint otherwise).
    bank_act_ready: Tick,
    /// Shared column path: earliest next column command.
    col_ready: Tick,
    stats: BankStats,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// A conventional bank: one row buffer.
    pub fn new() -> Self {
        Self::with_subarrays(1)
    }

    /// A SALP bank with one local row buffer per subarray.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays == 0`.
    pub fn with_subarrays(subarrays: usize) -> Self {
        assert!(subarrays > 0, "a bank needs at least one row buffer");
        Bank {
            buffers: vec![BufferState::new(); subarrays],
            bank_act_ready: Tick::ZERO,
            col_ready: Tick::ZERO,
            stats: BankStats::default(),
        }
    }

    /// Number of independent row buffers.
    pub fn buffers(&self) -> usize {
        self.buffers.len()
    }

    fn buf(&self, idx: usize) -> &BufferState {
        &self.buffers[idx.min(self.buffers.len() - 1)]
    }

    fn buf_mut(&mut self, idx: usize) -> &mut BufferState {
        let idx = idx.min(self.buffers.len() - 1);
        &mut self.buffers[idx]
    }

    /// Current state of buffer `idx`.
    pub fn state(&self, idx: usize) -> RowBufferState {
        self.buf(idx).state
    }

    /// The physical row open in buffer `idx`, if any.
    pub fn open_row(&self, idx: usize) -> Option<u32> {
        match self.buf(idx).state {
            RowBufferState::Open { phys_row, .. } => Some(phys_row),
            RowBufferState::Precharged => None,
        }
    }

    /// All open rows of the bank, in buffer order (none when fully
    /// precharged).
    pub fn open_rows(&self) -> impl Iterator<Item = u32> + '_ {
        self.buffers.iter().filter_map(|b| match b.state {
            RowBufferState::Open { phys_row, .. } => Some(phys_row),
            RowBufferState::Precharged => None,
        })
    }

    /// Whether every buffer is precharged.
    pub fn all_precharged(&self) -> bool {
        self.buffers
            .iter()
            .all(|b| b.state == RowBufferState::Precharged)
    }

    /// Per-bank statistics.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Earliest tick an ACT into buffer `idx` may issue. `None` if that
    /// buffer holds an open row (a PRE must come first).
    pub fn earliest_activate(&self, idx: usize) -> Option<Tick> {
        match self.buf(idx).state {
            RowBufferState::Precharged => Some(self.buf(idx).act_ready.max(self.bank_act_ready)),
            RowBufferState::Open { .. } => None,
        }
    }

    /// Earliest tick a READ of buffer `idx`'s open row may issue.
    pub fn earliest_read(&self, idx: usize) -> Option<Tick> {
        self.open_row(idx)
            .map(|_| self.buf(idx).rd_ready.max(self.col_ready))
    }

    /// Earliest tick a WRITE to buffer `idx`'s open row may issue.
    pub fn earliest_write(&self, idx: usize) -> Option<Tick> {
        self.open_row(idx)
            .map(|_| self.buf(idx).wr_ready.max(self.col_ready))
    }

    /// Earliest tick a PRE of buffer `idx` may issue. `None` if precharged.
    pub fn earliest_precharge(&self, idx: usize) -> Option<Tick> {
        self.open_row(idx).map(|_| self.buf(idx).pre_ready)
    }

    /// Earliest tick the whole bank is precharged and ACT-ready (for
    /// refresh and migration): `None` if any buffer is open.
    pub fn earliest_all_precharged(&self) -> Option<Tick> {
        let mut t = self.bank_act_ready;
        for b in &self.buffers {
            if b.state != RowBufferState::Precharged {
                return None;
            }
            t = t.max(b.act_ready);
        }
        Some(t)
    }

    /// Earliest tick a row swap may start: the bank must be fully
    /// precharged.
    pub fn earliest_swap(&self) -> Option<Tick> {
        self.earliest_all_precharged()
    }

    /// Applies an ACT of `phys_row` (of subarray `kind`) into buffer `idx`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the buffer is open or `at` precedes readiness.
    pub fn activate(
        &mut self,
        idx: usize,
        phys_row: u32,
        kind: SubarrayKind,
        timing: &TimingSet,
        at: Tick,
    ) {
        let inter_act = if self.buffers.len() > 1 {
            // SALP: ACTs to different subarrays spaced like same-rank ACTs.
            timing.rank_params().trrd
        } else {
            Tick::ZERO
        };
        let p = *timing.params_for(kind);
        let b = self.buf_mut(idx);
        debug_assert_eq!(b.state, RowBufferState::Precharged, "ACT on open buffer");
        debug_assert!(
            at >= b.act_ready,
            "ACT at {at} before buffer ready {}",
            b.act_ready
        );
        debug_assert!(at >= self.bank_act_ready, "ACT at {at} before bank ready");
        let b = self.buf_mut(idx);
        b.state = RowBufferState::Open { phys_row, kind };
        b.rd_ready = at + p.trcd;
        b.wr_ready = at + p.trcd;
        b.pre_ready = at + p.tras;
        b.act_ready = at + p.trc();
        self.bank_act_ready = at + inter_act.max(Tick::ZERO);
        if self.buffers.len() == 1 {
            // Conventional: the bank-level ACT window is the row cycle.
            self.bank_act_ready = at + p.trc();
        }
        self.stats.activates += 1;
    }

    /// Applies a READ on buffer `idx` at `at`, returning the tick the data
    /// burst finishes (`at + CL + tBurst`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if no row is open or `at` precedes readiness.
    pub fn read(&mut self, idx: usize, timing: &TimingSet, at: Tick) -> Tick {
        let p = *self.open_params(idx, timing);
        let b = self.buf_mut(idx);
        debug_assert!(at >= b.rd_ready, "RD at {at} before ready {}", b.rd_ready);
        b.rd_ready = b.rd_ready.max(at + p.tccd);
        b.wr_ready = b.wr_ready.max(at + p.cl + p.tburst + p.tccd);
        b.pre_ready = b.pre_ready.max(at + p.trtp);
        self.col_ready = self.col_ready.max(at + p.tccd);
        self.stats.reads += 1;
        at + p.cl + p.tburst
    }

    /// Applies a WRITE on buffer `idx` at `at`, returning the tick the
    /// write data burst finishes (`at + CWL + tBurst`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if no row is open or `at` precedes readiness.
    pub fn write(&mut self, idx: usize, timing: &TimingSet, at: Tick) -> Tick {
        let p = *self.open_params(idx, timing);
        let b = self.buf_mut(idx);
        debug_assert!(at >= b.wr_ready, "WR at {at} before ready {}", b.wr_ready);
        let data_end = at + p.cwl + p.tburst;
        b.wr_ready = b.wr_ready.max(at + p.tccd);
        // A read after a write in the same buffer must wait for the
        // turnaround; precharge must respect write recovery.
        b.rd_ready = b.rd_ready.max(data_end + p.twtr);
        b.pre_ready = b.pre_ready.max(data_end + p.twr);
        self.col_ready = self.col_ready.max(at + p.tccd);
        self.stats.writes += 1;
        data_end
    }

    /// Applies a PRE on buffer `idx` at `at`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the buffer is closed or `at` precedes readiness.
    pub fn precharge(&mut self, idx: usize, timing: &TimingSet, at: Tick) {
        let p = *self.open_params(idx, timing);
        let b = self.buf_mut(idx);
        debug_assert!(
            at >= b.pre_ready,
            "PRE at {at} before ready {}",
            b.pre_ready
        );
        b.state = RowBufferState::Precharged;
        b.act_ready = b.act_ready.max(at + p.trp);
        self.stats.precharges += 1;
    }

    /// Applies a row swap starting at `at` with the given total duration,
    /// blocking the whole bank until it completes (the migration rows and
    /// half row buffers are shared structures).
    ///
    /// # Panics
    ///
    /// Panics (debug) if any buffer is open or `at` precedes readiness.
    pub fn swap(&mut self, duration: Tick, at: Tick) -> Tick {
        debug_assert!(self.all_precharged(), "SWAP on open bank");
        let done = at + duration;
        for b in &mut self.buffers {
            b.act_ready = b.act_ready.max(done);
        }
        self.bank_act_ready = self.bank_act_ready.max(done);
        self.stats.swaps += 1;
        done
    }

    /// Blocks the bank until `until` (used for refresh).
    pub fn block_until(&mut self, until: Tick) {
        debug_assert!(self.all_precharged(), "refresh on open bank");
        for b in &mut self.buffers {
            b.act_ready = b.act_ready.max(until);
        }
        self.bank_act_ready = self.bank_act_ready.max(until);
    }

    fn open_params<'a>(&self, idx: usize, timing: &'a TimingSet) -> &'a TimingParams {
        match self.buf(idx).state {
            RowBufferState::Open { kind, .. } => timing.params_for(kind),
            RowBufferState::Precharged => panic!("column/precharge command on closed buffer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: f64) -> Tick {
        Tick::from_ns(ns)
    }

    #[test]
    fn closed_bank_accepts_only_act() {
        let b = Bank::new();
        assert_eq!(b.earliest_activate(0), Some(Tick::ZERO));
        assert_eq!(b.earliest_read(0), None);
        assert_eq!(b.earliest_write(0), None);
        assert_eq!(b.earliest_precharge(0), None);
        assert_eq!(b.open_row(0), None);
        assert!(b.all_precharged());
    }

    #[test]
    fn act_rd_pre_act_sequence_respects_trc() {
        let set = TimingSet::homogeneous_slow();
        let mut b = Bank::new();
        b.activate(0, 42, SubarrayKind::Slow, &set, Tick::ZERO);
        assert_eq!(b.open_row(0), Some(42));
        assert_eq!(
            b.earliest_activate(0),
            None,
            "must precharge before next ACT"
        );
        assert_eq!(b.earliest_read(0), Some(t(13.75)));
        let data_end = b.read(0, &set, t(13.75));
        assert_eq!(data_end, t(13.75 + 13.75 + 5.0));
        assert_eq!(b.earliest_precharge(0), Some(t(35.0)));
        b.precharge(0, &set, t(35.0));
        assert_eq!(b.earliest_activate(0), Some(t(48.75)));
    }

    #[test]
    fn fast_row_uses_fast_timings() {
        let set = TimingSet::asymmetric();
        let mut b = Bank::new();
        b.activate(0, 0, SubarrayKind::Fast, &set, Tick::ZERO);
        assert_eq!(b.earliest_read(0), Some(t(8.75)));
        assert_eq!(b.earliest_precharge(0), Some(t(17.5)));
        b.read(0, &set, t(8.75));
        b.precharge(0, &set, t(17.5));
        assert_eq!(b.earliest_activate(0), Some(t(25.0)), "fast tRC = 25 ns");
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let set = TimingSet::homogeneous_slow();
        let mut b = Bank::new();
        b.activate(0, 1, SubarrayKind::Slow, &set, Tick::ZERO);
        let data_end = b.write(0, &set, t(13.75));
        assert_eq!(data_end, t(13.75 + 10.0 + 5.0));
        assert_eq!(b.earliest_precharge(0), Some(data_end + t(15.0)));
        assert_eq!(b.earliest_read(0), Some(data_end + t(7.5)));
    }

    #[test]
    fn back_to_back_reads_spaced_by_tccd() {
        let set = TimingSet::homogeneous_slow();
        let mut b = Bank::new();
        b.activate(0, 1, SubarrayKind::Slow, &set, Tick::ZERO);
        b.read(0, &set, t(13.75));
        assert_eq!(b.earliest_read(0), Some(t(13.75 + 5.0)));
    }

    #[test]
    fn swap_blocks_bank_for_duration() {
        let set = TimingSet::asymmetric();
        let mut b = Bank::new();
        assert_eq!(b.earliest_swap(), Some(Tick::ZERO));
        let done = b.swap(set.swap, Tick::ZERO);
        assert_eq!(done, t(146.25));
        assert_eq!(b.earliest_activate(0), Some(t(146.25)));
        assert_eq!(b.stats().swaps, 1);
    }

    #[test]
    fn swap_illegal_while_open() {
        let set = TimingSet::asymmetric();
        let mut b = Bank::new();
        b.activate(0, 0, SubarrayKind::Slow, &set, Tick::ZERO);
        assert_eq!(b.earliest_swap(), None);
    }

    #[test]
    fn stats_count_commands() {
        let set = TimingSet::homogeneous_slow();
        let mut b = Bank::new();
        b.activate(0, 1, SubarrayKind::Slow, &set, Tick::ZERO);
        b.read(0, &set, t(13.75));
        b.read(0, &set, t(20.0));
        b.precharge(0, &set, t(40.0));
        let s = b.stats();
        assert_eq!((s.activates, s.reads, s.writes, s.precharges), (1, 2, 0, 1));
    }

    // ---- SALP mode -------------------------------------------------------

    #[test]
    fn salp_allows_two_open_rows() {
        let set = TimingSet::homogeneous_slow();
        let mut b = Bank::with_subarrays(4);
        b.activate(0, 10, SubarrayKind::Slow, &set, Tick::ZERO);
        // A second ACT in another subarray waits only the inter-ACT gap.
        assert_eq!(b.earliest_activate(1), Some(t(6.25)));
        b.activate(1, 600, SubarrayKind::Slow, &set, t(6.25));
        assert_eq!(b.open_rows().collect::<Vec<_>>(), vec![10, 600]);
        assert!(!b.all_precharged());
        // Both rows readable.
        assert!(b.earliest_read(0).is_some());
        assert!(b.earliest_read(1).is_some());
    }

    #[test]
    fn salp_conventional_act_gap_is_trc_without_salp() {
        let set = TimingSet::homogeneous_slow();
        let mut b = Bank::new();
        b.activate(0, 10, SubarrayKind::Slow, &set, Tick::ZERO);
        b.precharge(0, &set, t(35.0));
        assert_eq!(
            b.earliest_activate(0),
            Some(t(48.75)),
            "conventional bank keeps tRC"
        );
    }

    #[test]
    fn salp_column_path_is_shared() {
        let set = TimingSet::homogeneous_slow();
        let mut b = Bank::with_subarrays(2);
        b.activate(0, 10, SubarrayKind::Slow, &set, Tick::ZERO);
        b.activate(1, 600, SubarrayKind::Slow, &set, t(6.25));
        let rd0 = b.earliest_read(0).unwrap();
        b.read(0, &set, rd0);
        // The other buffer's read is pushed behind the shared column path.
        assert!(b.earliest_read(1).unwrap() >= rd0 + t(5.0));
    }

    #[test]
    fn salp_swap_requires_all_buffers_closed() {
        let set = TimingSet::asymmetric();
        let mut b = Bank::with_subarrays(2);
        b.activate(0, 10, SubarrayKind::Slow, &set, Tick::ZERO);
        assert_eq!(b.earliest_swap(), None);
        b.precharge(0, &set, t(35.0));
        let ready = b.earliest_swap().expect("all closed now");
        assert!(ready >= t(35.0));
    }
}
