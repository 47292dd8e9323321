//! One DRAM channel: banks, rank trackers and the shared data bus, with a
//! legality/earliest-time query interface for the memory controller.
//!
//! The controller's scheduler asks [`ChannelDevice::earliest_issue`] when a
//! candidate command could issue, picks one, and commits it with
//! [`ChannelDevice::issue`]. All timing constraints of §2.3 (and the swap of
//! §4.2) are enforced here.

use crate::bank::{Bank, BankStats, RowBufferState};
use crate::command::DramCommand;
use crate::geometry::{BankCoord, BankLayout, SubarrayKind};
use crate::rank::{BusDir, DataBus, RankTracker};
use crate::tick::Tick;
use crate::timing::TimingSet;

/// Result of committing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// For column commands, the tick the data burst completes on the bus.
    pub data_end: Option<Tick>,
    /// Tick at which the command's effect completes (row open, precharge
    /// done, swap finished, refresh finished).
    pub done: Tick,
}

/// One memory channel of the simulated device.
#[derive(Debug, Clone)]
pub struct ChannelDevice {
    channel_id: u8,
    layout: BankLayout,
    timing: TimingSet,
    banks_per_rank: u8,
    banks: Vec<Bank>,
    ranks: Vec<RankTracker>,
    bus: DataBus,
    salp: bool,
    /// Earliest refresh deadline over all ranks, `None` with refresh off.
    /// Deadlines move only when a REF issues, so it is recomputed there and
    /// every refresh query starts with one comparison against it.
    refresh_deadline: Option<Tick>,
}

impl ChannelDevice {
    /// Builds a channel with `ranks` ranks of `banks_per_rank` banks, all
    /// sharing the same bank `layout` and `timing`.
    pub fn new(
        channel_id: u8,
        ranks: u8,
        banks_per_rank: u8,
        layout: BankLayout,
        timing: TimingSet,
        refresh_enabled: bool,
    ) -> Self {
        Self::with_salp(
            channel_id,
            ranks,
            banks_per_rank,
            layout,
            timing,
            refresh_enabled,
            false,
        )
    }

    /// Like [`ChannelDevice::new`] with subarray-level parallelism (one
    /// local row buffer per subarray — the SALP/MASA composition §8 calls
    /// compatible with hybrid-bitline designs).
    #[allow(clippy::too_many_arguments)]
    pub fn with_salp(
        channel_id: u8,
        ranks: u8,
        banks_per_rank: u8,
        layout: BankLayout,
        timing: TimingSet,
        refresh_enabled: bool,
        salp: bool,
    ) -> Self {
        let cadence = timing.slow.refresh_cadence();
        assert_eq!(
            timing.fast.refresh_cadence(),
            cadence,
            "both latency levels refresh on one cadence"
        );
        let buffers = if salp { layout.subarrays().len() } else { 1 };
        let ranks: Vec<RankTracker> = (0..ranks).map(|_| RankTracker::new(cadence)).collect();
        ChannelDevice {
            channel_id,
            layout,
            timing,
            banks_per_rank,
            banks: (0..ranks.len() * banks_per_rank as usize)
                .map(|_| Bank::with_subarrays(buffers))
                .collect(),
            refresh_deadline: earliest_deadline(&ranks).filter(|_| refresh_enabled),
            ranks,
            bus: DataBus::new(),
            salp,
        }
    }

    fn buffer_of(&self, phys_row: u32) -> usize {
        if self.salp {
            self.layout.classify(phys_row).0
        } else {
            0
        }
    }

    fn bank_idx(&self, bank: BankCoord) -> usize {
        debug_assert_eq!(
            bank.channel, self.channel_id,
            "command routed to wrong channel"
        );
        bank.rank as usize * self.banks_per_rank as usize + bank.bank as usize
    }

    /// The bank layout shared by all banks of this channel.
    pub fn layout(&self) -> &BankLayout {
        &self.layout
    }

    /// The timing set in force.
    pub fn timing(&self) -> &TimingSet {
        &self.timing
    }

    /// Whether `phys_row` is currently open in its serving row buffer.
    pub fn is_row_open(&self, bank: BankCoord, phys_row: u32) -> bool {
        let idx = self.buffer_of(phys_row);
        self.banks[self.bank_idx(bank)].open_row(idx) == Some(phys_row)
    }

    /// The row currently occupying the buffer that would serve `phys_row`
    /// (the bank's only buffer in conventional mode).
    pub fn open_row_in_buffer_of(&self, bank: BankCoord, phys_row: u32) -> Option<u32> {
        let idx = self.buffer_of(phys_row);
        self.banks[self.bank_idx(bank)].open_row(idx)
    }

    /// All rows currently open in `bank`.
    pub fn open_rows(&self, bank: BankCoord) -> Vec<u32> {
        self.banks[self.bank_idx(bank)].open_rows()
    }

    /// The physical row currently open in `bank`'s conventional buffer
    /// (buffer 0), if any.
    pub fn open_row(&self, bank: BankCoord) -> Option<u32> {
        self.banks[self.bank_idx(bank)].open_row(0)
    }

    /// Aggregated statistics over all banks of the channel.
    pub fn channel_stats(&self) -> BankStats {
        let mut total = BankStats::default();
        for b in &self.banks {
            let s = b.stats();
            total.activates += s.activates;
            total.reads += s.reads;
            total.writes += s.writes;
            total.precharges += s.precharges;
            total.swaps += s.swaps;
        }
        total
    }

    /// Subarray kind of a physical row under this channel's layout.
    pub fn row_kind(&self, phys_row: u32) -> SubarrayKind {
        self.layout.row_kind(phys_row)
    }

    /// Coordinates of every bank of `rank` that currently has a row open.
    pub fn open_banks_of_rank(&self, rank: u8) -> Vec<BankCoord> {
        (0..self.banks_per_rank)
            .map(|b| BankCoord::new(self.channel_id, rank, b))
            .filter(|&c| !self.banks[self.bank_idx(c)].all_precharged())
            .collect()
    }

    /// Number of ranks on this channel.
    pub fn ranks(&self) -> u8 {
        self.ranks.len() as u8
    }

    /// Earliest tick `cmd` may legally issue, or `None` if the bank state
    /// does not admit it at all (e.g. READ with no open row) so another
    /// command must come first.
    pub fn earliest_issue(&self, cmd: &DramCommand, now: Tick) -> Option<Tick> {
        let rp = self.timing.rank_params();
        let t = match *cmd {
            DramCommand::Activate { bank, phys_row } => {
                let idx = self.buffer_of(phys_row);
                let b = &self.banks[self.bank_idx(bank)];
                let rank = &self.ranks[bank.rank as usize];
                b.earliest_activate(idx)?
                    .max(rank.earliest_activate(rp.trrd, rp.tfaw))
            }
            DramCommand::Read { bank, phys_row, .. } => {
                if !self.is_row_open(bank, phys_row) {
                    return None;
                }
                let idx = self.buffer_of(phys_row);
                let b = &self.banks[self.bank_idx(bank)];
                let cmd_ready = b.earliest_read(idx)?;
                let p = self.open_row_params(bank, phys_row)?;
                let bus_start = self.bus.earliest_start(BusDir::Read, rp.twtr, rp.tck * 2);
                cmd_ready.max(bus_start.saturating_sub(p.cl))
            }
            DramCommand::Write { bank, phys_row, .. } => {
                if !self.is_row_open(bank, phys_row) {
                    return None;
                }
                let idx = self.buffer_of(phys_row);
                let b = &self.banks[self.bank_idx(bank)];
                let cmd_ready = b.earliest_write(idx)?;
                let p = self.open_row_params(bank, phys_row)?;
                let bus_start = self.bus.earliest_start(BusDir::Write, rp.twtr, rp.tck * 2);
                cmd_ready.max(bus_start.saturating_sub(p.cwl))
            }
            DramCommand::Precharge { bank, phys_row } => {
                let idx = self.buffer_of(phys_row);
                self.banks[self.bank_idx(bank)].earliest_precharge(idx)?
            }
            DramCommand::RowSwap {
                bank,
                phys_a,
                phys_b,
                ..
            } => {
                if !self.timing.supports_migration() {
                    return None;
                }
                debug_assert_ne!(phys_a, phys_b, "swap of a row with itself");
                let b = &self.banks[self.bank_idx(bank)];
                let rank = &self.ranks[bank.rank as usize];
                b.earliest_swap()?
                    .max(rank.earliest_activate(rp.trrd, rp.tfaw))
            }
            DramCommand::Refresh { rank } => {
                let tracker = &self.ranks[rank as usize];
                let mut t = tracker.busy_until();
                for b in 0..self.banks_per_rank {
                    let coord = BankCoord::new(self.channel_id, rank, b);
                    // Every bank must be fully precharged before REF.
                    t = t.max(self.banks[self.bank_idx(coord)].earliest_all_precharged()?);
                }
                t
            }
        };
        Some(t.max(now))
    }

    /// Commits `cmd` at tick `at` (which must be ≥ the value returned by
    /// [`ChannelDevice::earliest_issue`]).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the command is illegal at `at`.
    pub fn issue(&mut self, cmd: &DramCommand, at: Tick) -> IssueOutcome {
        let timing = self.timing;
        let rp = *timing.rank_params();
        match *cmd {
            DramCommand::Activate { bank, phys_row } => {
                let kind = self.layout.row_kind(phys_row);
                let buf = self.buffer_of(phys_row);
                let idx = self.bank_idx(bank);
                self.banks[idx].activate(buf, phys_row, kind, &timing, at);
                self.ranks[bank.rank as usize].record_activate(at);
                IssueOutcome {
                    data_end: None,
                    done: at + timing.params_for(kind).trcd,
                }
            }
            DramCommand::Read { bank, phys_row, .. } => {
                let p = *self
                    .open_row_params(bank, phys_row)
                    .expect("READ on closed row");
                let buf = self.buffer_of(phys_row);
                let idx = self.bank_idx(bank);
                let data_end = self.banks[idx].read(buf, &timing, at);
                self.bus.occupy(BusDir::Read, at + p.cl, data_end);
                IssueOutcome {
                    data_end: Some(data_end),
                    done: data_end,
                }
            }
            DramCommand::Write { bank, phys_row, .. } => {
                let p = *self
                    .open_row_params(bank, phys_row)
                    .expect("WRITE on closed row");
                let buf = self.buffer_of(phys_row);
                let idx = self.bank_idx(bank);
                let data_end = self.banks[idx].write(buf, &timing, at);
                self.bus.occupy(BusDir::Write, at + p.cwl, data_end);
                IssueOutcome {
                    data_end: Some(data_end),
                    done: data_end,
                }
            }
            DramCommand::Precharge { bank, phys_row } => {
                let buf = self.buffer_of(phys_row);
                let idx = self.bank_idx(bank);
                self.banks[idx].precharge(buf, &timing, at);
                let done = at + rp.trp;
                IssueOutcome {
                    data_end: None,
                    done,
                }
            }
            DramCommand::RowSwap { bank, kind, .. } => {
                assert!(
                    timing.supports_migration(),
                    "device has no migration support"
                );
                let duration = match kind {
                    crate::command::MigrationKind::Swap => timing.swap,
                    crate::command::MigrationKind::Copy => timing.single_migration,
                    crate::command::MigrationKind::CopyWithWriteback => timing.single_migration * 2,
                };
                let idx = self.bank_idx(bank);
                let done = self.banks[idx].swap(duration, at);
                self.ranks[bank.rank as usize].record_activate(at);
                IssueOutcome {
                    data_end: None,
                    done,
                }
            }
            DramCommand::Refresh { rank } => {
                let done = self.ranks[rank as usize].refresh(at);
                if self.refresh_deadline.is_some() {
                    self.refresh_deadline = earliest_deadline(&self.ranks);
                }
                for b in 0..self.banks_per_rank {
                    let coord = BankCoord::new(self.channel_id, rank, b);
                    let idx = self.bank_idx(coord);
                    self.banks[idx].block_until(done);
                }
                IssueOutcome {
                    data_end: None,
                    done,
                }
            }
        }
    }

    /// Whether a refresh is pending on any rank at `now` (always `false`
    /// when refresh is disabled).
    pub fn refresh_due(&self, now: Tick) -> Option<u8> {
        if now < self.refresh_deadline? {
            return None;
        }
        self.ranks
            .iter()
            .position(|r| r.refresh_due(now))
            .map(|i| i as u8)
    }

    /// Earliest tick at which any rank will require a refresh.
    pub fn next_refresh_due(&self) -> Option<Tick> {
        self.refresh_deadline
    }

    /// Earliest refresh deadline of any rank strictly after `now`: the
    /// next tick at which [`ChannelDevice::refresh_due`] can change without
    /// a command being issued.
    pub fn next_refresh_due_after(&self, now: Tick) -> Option<Tick> {
        let deadline = self.refresh_deadline?;
        if now < deadline {
            return Some(deadline);
        }
        self.ranks
            .iter()
            .map(|r| r.next_refresh_due())
            .filter(|&t| t > now)
            .min()
    }

    /// Timing parameters of the row open in the buffer serving `phys_row`,
    /// by the subarray kind the bank recorded at ACT.
    fn open_row_params(
        &self,
        bank: BankCoord,
        phys_row: u32,
    ) -> Option<&crate::timing::TimingParams> {
        let idx = self.buffer_of(phys_row);
        match self.banks[self.bank_idx(bank)].state(idx) {
            RowBufferState::Open { kind, .. } => Some(self.timing.params_for(kind)),
            RowBufferState::Precharged => None,
        }
    }
}

/// Earliest refresh deadline over `ranks` (`None` for no ranks).
fn earliest_deadline(ranks: &[RankTracker]) -> Option<Tick> {
    ranks.iter().map(RankTracker::next_refresh_due).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Arrangement, FastRatio};

    fn device(timing: TimingSet) -> ChannelDevice {
        let layout =
            BankLayout::build(4096, FastRatio::new(1, 8), Arrangement::default(), 128, 512);
        ChannelDevice::new(0, 2, 8, layout, timing, false)
    }

    fn bank0() -> BankCoord {
        BankCoord::new(0, 0, 0)
    }

    #[test]
    fn full_access_cycle_timing() {
        let mut d = device(TimingSet::homogeneous_slow());
        let slow_row = d.layout().slow_to_phys(0);
        let act = DramCommand::Activate {
            bank: bank0(),
            phys_row: slow_row,
        };
        let t0 = d.earliest_issue(&act, Tick::ZERO).unwrap();
        assert_eq!(t0, Tick::ZERO);
        d.issue(&act, t0);
        let rd = DramCommand::Read {
            bank: bank0(),
            phys_row: slow_row,
            col: 3,
        };
        let t1 = d.earliest_issue(&rd, Tick::ZERO).unwrap();
        assert_eq!(t1, Tick::from_ns(13.75));
        let out = d.issue(&rd, t1);
        assert_eq!(out.data_end, Some(Tick::from_ns(13.75 + 13.75 + 5.0)));
        assert_eq!(d.open_row(bank0()), Some(slow_row));
    }

    #[test]
    fn read_with_closed_bank_is_inadmissible() {
        let d = device(TimingSet::homogeneous_slow());
        assert_eq!(
            d.earliest_issue(
                &DramCommand::Read {
                    bank: bank0(),
                    phys_row: 0,
                    col: 0
                },
                Tick::ZERO
            ),
            None
        );
    }

    #[test]
    fn fast_row_read_is_faster_end_to_end() {
        let mut d = device(TimingSet::asymmetric());
        let run = |d: &mut ChannelDevice, row: u32| {
            let act = DramCommand::Activate {
                bank: bank0(),
                phys_row: row,
            };
            let t = d.earliest_issue(&act, Tick::ZERO).unwrap();
            d.issue(&act, t);
            let rd = DramCommand::Read {
                bank: bank0(),
                phys_row: row,
                col: 0,
            };
            let t = d.earliest_issue(&rd, Tick::ZERO).unwrap();
            d.issue(&rd, t).data_end.unwrap()
        };
        let fast_row = d.layout().fast_to_phys(0);
        let fast_done = run(&mut d, fast_row);
        let mut d2 = device(TimingSet::asymmetric());
        let slow_row = d2.layout().slow_to_phys(0);
        let slow_done = run(&mut d2, slow_row);
        assert!(
            fast_done < slow_done,
            "fast {fast_done} !< slow {slow_done}"
        );
        assert_eq!(
            slow_done - fast_done,
            Tick::from_ns(5.0),
            "tRCD delta 13.75-8.75"
        );
    }

    #[test]
    fn bus_serialises_reads_across_banks() {
        let mut d = device(TimingSet::homogeneous_slow());
        let b0 = BankCoord::new(0, 0, 0);
        let b1 = BankCoord::new(0, 0, 1);
        let row = d.layout().slow_to_phys(0);
        for b in [b0, b1] {
            let act = DramCommand::Activate {
                bank: b,
                phys_row: row,
            };
            let t = d.earliest_issue(&act, Tick::ZERO).unwrap();
            d.issue(&act, t);
        }
        let rd0 = DramCommand::Read {
            bank: b0,
            phys_row: row,
            col: 0,
        };
        let t = d.earliest_issue(&rd0, Tick::ZERO).unwrap();
        let out0 = d.issue(&rd0, t);
        let rd1 = DramCommand::Read {
            bank: b1,
            phys_row: row,
            col: 0,
        };
        let t1 = d.earliest_issue(&rd1, Tick::ZERO).unwrap();
        let out1 = d.issue(&rd1, t1);
        // Second burst cannot overlap the first.
        assert!(out1.data_end.unwrap() >= out0.data_end.unwrap() + Tick::from_ns(5.0));
    }

    #[test]
    fn trrd_spaces_cross_bank_activates() {
        let mut d = device(TimingSet::homogeneous_slow());
        let row = d.layout().slow_to_phys(0);
        let a0 = DramCommand::Activate {
            bank: BankCoord::new(0, 0, 0),
            phys_row: row,
        };
        d.issue(&a0, Tick::ZERO);
        let a1 = DramCommand::Activate {
            bank: BankCoord::new(0, 0, 1),
            phys_row: row,
        };
        assert_eq!(d.earliest_issue(&a1, Tick::ZERO), Some(Tick::from_ns(6.25)));
        // A different rank is unconstrained by this rank's tRRD.
        let a2 = DramCommand::Activate {
            bank: BankCoord::new(0, 1, 0),
            phys_row: row,
        };
        assert_eq!(d.earliest_issue(&a2, Tick::ZERO), Some(Tick::ZERO));
    }

    #[test]
    fn swap_requires_migration_support() {
        let d = device(TimingSet::homogeneous_slow());
        let cmd = DramCommand::RowSwap {
            bank: bank0(),
            phys_a: 0,
            phys_b: 1,
            kind: Default::default(),
        };
        assert_eq!(d.earliest_issue(&cmd, Tick::ZERO), None);

        let mut d = device(TimingSet::asymmetric());
        let fast = d.layout().fast_to_phys(0);
        let slow = d.layout().slow_to_phys(0);
        let cmd = DramCommand::RowSwap {
            bank: bank0(),
            phys_a: fast,
            phys_b: slow,
            kind: Default::default(),
        };
        let t = d.earliest_issue(&cmd, Tick::ZERO).unwrap();
        let out = d.issue(&cmd, t);
        assert_eq!(out.done, Tick::from_ns(146.25));
        // Bank blocked until the swap completes.
        let act = DramCommand::Activate {
            bank: bank0(),
            phys_row: slow,
        };
        assert_eq!(
            d.earliest_issue(&act, Tick::ZERO),
            Some(Tick::from_ns(146.25))
        );
        assert_eq!(d.channel_stats().swaps, 1);
    }

    #[test]
    fn refresh_requires_all_banks_closed_and_blocks_them() {
        let layout =
            BankLayout::build(4096, FastRatio::new(1, 8), Arrangement::default(), 128, 512);
        let mut d = ChannelDevice::new(0, 1, 2, layout, TimingSet::homogeneous_slow(), true);
        assert_eq!(d.refresh_due(Tick::ZERO), None);
        assert!(d.refresh_due(Tick::from_ns(7800.0)).is_some());
        // Open a bank: refresh becomes inadmissible.
        let row = d.layout().slow_to_phys(0);
        d.issue(
            &DramCommand::Activate {
                bank: bank0(),
                phys_row: row,
            },
            Tick::ZERO,
        );
        assert_eq!(
            d.earliest_issue(&DramCommand::Refresh { rank: 0 }, Tick::ZERO),
            None
        );
        // Close it and refresh.
        let pre = DramCommand::Precharge {
            bank: bank0(),
            phys_row: row,
        };
        let t = d.earliest_issue(&pre, Tick::ZERO).unwrap();
        d.issue(&pre, t);
        let refr = DramCommand::Refresh { rank: 0 };
        let t = d.earliest_issue(&refr, Tick::from_ns(7800.0)).unwrap();
        let out = d.issue(&refr, t);
        assert_eq!(out.done, t + Tick::from_ns(160.0));
        let act = DramCommand::Activate {
            bank: bank0(),
            phys_row: row,
        };
        assert_eq!(d.earliest_issue(&act, t), Some(out.done));
    }

    #[test]
    fn earliest_issue_respects_now() {
        let d = device(TimingSet::homogeneous_slow());
        let act = DramCommand::Activate {
            bank: bank0(),
            phys_row: 0,
        };
        assert_eq!(
            d.earliest_issue(&act, Tick::from_ns(99.0)),
            Some(Tick::from_ns(99.0))
        );
    }

    /// The pre-rewrite refresh queries and open-row timing lookup, verbatim
    /// except that the refresh switch is a parameter: a fold over every
    /// rank's schedules per query, and the open row's kind re-derived from
    /// the layout.
    mod oracle {
        use super::super::ChannelDevice;
        use crate::bank::Bank;
        use crate::command::DramCommand;
        use crate::geometry::BankCoord;
        use crate::rank::BusDir;
        use crate::tick::Tick;
        use crate::timing::TimingParams;

        pub(super) fn refresh_due(d: &ChannelDevice, enabled: bool, now: Tick) -> Option<u8> {
            if !enabled {
                return None;
            }
            d.ranks
                .iter()
                .enumerate()
                .find(|(_, r)| r.refresh_due(now))
                .map(|(i, _)| i as u8)
        }

        pub(super) fn next_refresh_due(d: &ChannelDevice, enabled: bool) -> Option<Tick> {
            if !enabled {
                return None;
            }
            d.ranks.iter().map(|r| r.next_refresh_due()).min()
        }

        pub(super) fn next_refresh_due_after(
            d: &ChannelDevice,
            enabled: bool,
            now: Tick,
        ) -> Option<Tick> {
            if !enabled {
                return None;
            }
            d.ranks
                .iter()
                .map(|r| r.next_refresh_due())
                .filter(|&t| t > now)
                .min()
        }

        fn open_row_params(
            d: &ChannelDevice,
            bank: BankCoord,
            phys_row: u32,
        ) -> Option<&TimingParams> {
            let idx = d.buffer_of(phys_row);
            let row = d.banks[d.bank_idx(bank)].open_row(idx)?;
            Some(d.timing.params_for(d.layout.row_kind(row)))
        }

        /// `earliest_issue` for READ and WRITE.
        pub(super) fn earliest_column(
            d: &ChannelDevice,
            cmd: &DramCommand,
            now: Tick,
        ) -> Option<Tick> {
            let rp = d.timing.rank_params();
            let bank_of = |bank: BankCoord| -> &Bank { &d.banks[d.bank_idx(bank)] };
            let t = match *cmd {
                DramCommand::Read { bank, phys_row, .. } => {
                    if !d.is_row_open(bank, phys_row) {
                        return None;
                    }
                    let idx = d.buffer_of(phys_row);
                    let cmd_ready = bank_of(bank).earliest_read(idx)?;
                    let p = open_row_params(d, bank, phys_row)?;
                    let bus_start = d.bus.earliest_start(BusDir::Read, rp.twtr, rp.tck * 2);
                    cmd_ready.max(bus_start.saturating_sub(p.cl))
                }
                DramCommand::Write { bank, phys_row, .. } => {
                    if !d.is_row_open(bank, phys_row) {
                        return None;
                    }
                    let idx = d.buffer_of(phys_row);
                    let cmd_ready = bank_of(bank).earliest_write(idx)?;
                    let p = open_row_params(d, bank, phys_row)?;
                    let bus_start = d.bus.earliest_start(BusDir::Write, rp.twtr, rp.tck * 2);
                    cmd_ready.max(bus_start.saturating_sub(p.cwl))
                }
                _ => unreachable!("column commands only"),
            };
            Some(t.max(now))
        }
    }

    /// Checks every refresh query and the column-command timing of every
    /// open row (and of a closed one) against the oracle.
    fn assert_matches_oracle(d: &ChannelDevice, enabled: bool, now: Tick, probe: Tick, ctx: &str) {
        for t in [now, probe, probe + Tick::new(1)] {
            assert_eq!(
                d.refresh_due(t),
                oracle::refresh_due(d, enabled, t),
                "{ctx}"
            );
            assert_eq!(
                d.next_refresh_due_after(t),
                oracle::next_refresh_due_after(d, enabled, t),
                "{ctx}"
            );
        }
        assert_eq!(
            d.next_refresh_due(),
            oracle::next_refresh_due(d, enabled),
            "{ctx}"
        );
        for rank in 0..d.ranks() {
            for b in 0..d.banks_per_rank {
                let bank = BankCoord::new(0, rank, b);
                let mut rows = d.open_rows(bank);
                rows.push(d.layout().slow_to_phys(3));
                for phys_row in rows {
                    for cmd in [
                        DramCommand::Read {
                            bank,
                            phys_row,
                            col: 0,
                        },
                        DramCommand::Write {
                            bank,
                            phys_row,
                            col: 0,
                        },
                    ] {
                        assert_eq!(
                            d.earliest_issue(&cmd, now),
                            oracle::earliest_column(d, &cmd, now),
                            "{ctx}: {cmd:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_queries_and_column_timing_match_the_pre_rewrite_algorithms() {
        let cases = [
            (TimingSet::asymmetric(), true, false),
            (TimingSet::asymmetric(), false, false),
            (TimingSet::homogeneous_slow(), true, true),
        ];
        for (case, &(timing, enabled, salp)) in cases.iter().enumerate() {
            let layout =
                BankLayout::build(4096, FastRatio::new(1, 8), Arrangement::default(), 128, 512);
            let mut d = ChannelDevice::with_salp(0, 2, 2, layout, timing, enabled, salp);
            let mut rng = das_faults::Prng::new(0x5e_f1e5 + case as u64);
            let rows: Vec<u32> = (0..4)
                .flat_map(|i| [d.layout().fast_to_phys(i), d.layout().slow_to_phys(i * 700)])
                .collect();
            let mut now = Tick::ZERO;
            let mut refreshes = 0;
            for step in 0..6_000 {
                if rng.gen_bool(0.05) {
                    now += Tick::from_ns_int(rng.range_u64(0, 3000));
                }
                let bank = BankCoord::new(0, rng.range_u32(0, 2) as u8, rng.range_u32(0, 2) as u8);
                let open = d.open_rows(bank);
                let phys_row = match open.first() {
                    Some(&r) if rng.gen_bool(0.7) => r,
                    _ => rows[rng.range_usize(0, rows.len())],
                };
                let cmd = match rng.bounded_u64(6) {
                    0 => DramCommand::Activate { bank, phys_row },
                    1 => DramCommand::Read {
                        bank,
                        phys_row,
                        col: 1,
                    },
                    2 => DramCommand::Write {
                        bank,
                        phys_row,
                        col: 2,
                    },
                    3 | 4 => DramCommand::Precharge { bank, phys_row },
                    _ => DramCommand::Refresh {
                        rank: d.refresh_due(now).unwrap_or(bank.rank),
                    },
                };
                if let Some(at) = d.earliest_issue(&cmd, now) {
                    d.issue(&cmd, at);
                    now = at;
                    refreshes += u32::from(matches!(cmd, DramCommand::Refresh { .. }));
                }
                let probe = d.next_refresh_due().unwrap_or(now);
                assert_matches_oracle(&d, enabled, now, probe, &format!("case {case} step {step}"));
            }
            assert!(refreshes > 10, "case {case}: only {refreshes} REFs issued");
        }
    }
}
