//! Rank-level activation constraints (tRRD, tFAW, refresh) and the shared
//! per-channel data bus with read/write turnaround tracking.

use crate::tick::Tick;
use crate::timing::RefreshCadence;

/// Direction of a data-bus transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusDir {
    /// Device → controller (READ data).
    Read,
    /// Controller → device (WRITE data).
    Write,
}

/// Occupancy and turnaround state of one channel's data bus.
///
/// The bus serialises all data bursts on a channel. Direction switches pay a
/// turnaround gap: writes after reads wait two tCK of bus turnaround, reads
/// after writes wait the rank write-to-read turnaround (tWTR) measured from
/// the end of the write burst.
#[derive(Debug, Clone)]
pub struct DataBus {
    free_at: Tick,
    last_dir: Option<BusDir>,
    last_end: Tick,
}

impl Default for DataBus {
    fn default() -> Self {
        Self::new()
    }
}

impl DataBus {
    /// An idle bus.
    pub fn new() -> Self {
        DataBus {
            free_at: Tick::ZERO,
            last_dir: None,
            last_end: Tick::ZERO,
        }
    }

    /// Earliest tick a burst in `dir` may *start* on the bus, given the
    /// write-to-read turnaround `twtr` and the read-to-write gap `rtw`.
    pub fn earliest_start(&self, dir: BusDir, twtr: Tick, rtw: Tick) -> Tick {
        let mut t = self.free_at;
        match (self.last_dir, dir) {
            (Some(BusDir::Write), BusDir::Read) => t = t.max(self.last_end + twtr),
            (Some(BusDir::Read), BusDir::Write) => t = t.max(self.last_end + rtw),
            _ => {}
        }
        t
    }

    /// Records a burst occupying `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the burst starts before the bus is free.
    pub fn occupy(&mut self, dir: BusDir, start: Tick, end: Tick) {
        debug_assert!(
            start >= self.free_at,
            "bus conflict: start {start} < free {}",
            self.free_at
        );
        debug_assert!(end >= start);
        self.free_at = end;
        self.last_dir = Some(dir);
        self.last_end = end;
    }

    /// Tick at which the bus becomes idle.
    pub fn free_at(&self) -> Tick {
        self.free_at
    }
}

/// Sliding-window activation and refresh tracker for one rank.
#[derive(Debug, Clone)]
pub struct RankTracker {
    /// Issue times of the most recent four ACTs (ring buffer), oldest first
    /// via `head`.
    act_window: [Tick; 4],
    head: usize,
    acts_seen: u64,
    last_act: Tick,
    busy_until: Tick,
    cadence: RefreshCadence,
    next_due: Tick,
    refreshes: u64,
}

impl RankTracker {
    /// A fresh rank on `cadence`, first REF due after one tREFI.
    pub fn new(cadence: RefreshCadence) -> Self {
        RankTracker {
            act_window: [Tick::ZERO; 4],
            head: 0,
            acts_seen: 0,
            last_act: Tick::ZERO,
            busy_until: Tick::ZERO,
            cadence,
            next_due: cadence.trefi,
            refreshes: 0,
        }
    }

    /// Earliest tick a new ACT may issue in this rank under tRRD/tFAW and
    /// any in-progress refresh.
    pub fn earliest_activate(&self, trrd: Tick, tfaw: Tick) -> Tick {
        let mut t = self.busy_until;
        if self.acts_seen > 0 {
            t = t.max(self.last_act + trrd);
        }
        if self.acts_seen >= self.act_window.len() as u64 {
            // The oldest of the last four ACTs bounds the 4-activate window.
            t = t.max(self.act_window[self.head] + tfaw);
        }
        t
    }

    /// Records an ACT at `at`.
    pub fn record_activate(&mut self, at: Tick) {
        self.last_act = at;
        self.act_window[self.head] = at;
        self.head = (self.head + 1) % self.act_window.len();
        self.acts_seen += 1;
    }

    /// Whether a refresh is due at `now`.
    pub fn refresh_due(&self, now: Tick) -> bool {
        now >= self.next_due
    }

    /// Tick of the next scheduled refresh.
    pub fn next_refresh_due(&self) -> Tick {
        self.next_due
    }

    /// Rank busy (refresh in progress) until this tick.
    pub fn busy_until(&self) -> Tick {
        self.busy_until
    }

    /// Starts a refresh at `at`, blocking the rank for tRFC and scheduling
    /// the next one tREFI later. Returns the completion tick.
    pub fn refresh(&mut self, at: Tick) -> Tick {
        debug_assert!(at >= self.busy_until);
        self.busy_until = at + self.cadence.trfc;
        self.next_due += self.cadence.trefi;
        self.refreshes += 1;
        self.busy_until
    }

    /// Number of refreshes performed.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: f64) -> Tick {
        Tick::from_ns(ns)
    }

    fn cadence(trefi: f64, trfc: f64) -> RefreshCadence {
        RefreshCadence {
            trefi: t(trefi),
            trfc: t(trfc),
        }
    }

    #[test]
    fn bus_serialises_bursts() {
        let mut bus = DataBus::new();
        assert_eq!(bus.earliest_start(BusDir::Read, t(7.5), t(2.5)), Tick::ZERO);
        bus.occupy(BusDir::Read, t(10.0), t(15.0));
        assert_eq!(bus.free_at(), t(15.0));
        assert_eq!(bus.earliest_start(BusDir::Read, t(7.5), t(2.5)), t(15.0));
    }

    #[test]
    fn bus_turnarounds() {
        let mut bus = DataBus::new();
        bus.occupy(BusDir::Write, t(10.0), t(15.0));
        // Read after write: wait tWTR past the data end.
        assert_eq!(bus.earliest_start(BusDir::Read, t(7.5), t(2.5)), t(22.5));
        // Write after write: no turnaround.
        assert_eq!(bus.earliest_start(BusDir::Write, t(7.5), t(2.5)), t(15.0));
        let mut bus2 = DataBus::new();
        bus2.occupy(BusDir::Read, t(0.0), t(5.0));
        assert_eq!(bus2.earliest_start(BusDir::Write, t(7.5), t(2.5)), t(7.5));
    }

    #[test]
    fn trrd_spaces_activates() {
        let mut r = RankTracker::new(cadence(7800.0, 160.0));
        assert_eq!(r.earliest_activate(t(6.25), t(30.0)), Tick::ZERO);
        r.record_activate(t(0.0));
        assert_eq!(r.earliest_activate(t(6.25), t(30.0)), t(6.25));
    }

    #[test]
    fn tfaw_limits_four_activates() {
        let mut r = RankTracker::new(cadence(7800.0, 160.0));
        for i in 0..4 {
            let at = t(6.25 * i as f64);
            assert!(r.earliest_activate(t(6.25), t(30.0)) <= at);
            r.record_activate(at);
        }
        // Fifth ACT must wait until 30 ns after the first.
        assert_eq!(r.earliest_activate(t(6.25), t(30.0)), t(30.0));
    }

    #[test]
    fn refresh_blocks_rank_and_reschedules() {
        let mut r = RankTracker::new(cadence(100.0, 160.0));
        assert!(!r.refresh_due(t(50.0)));
        assert!(r.refresh_due(t(100.0)));
        let done = r.refresh(t(100.0));
        assert_eq!(done, t(260.0));
        assert_eq!(r.earliest_activate(t(6.25), t(30.0)), t(260.0));
        assert_eq!(r.next_refresh_due(), t(200.0));
        assert_eq!(r.refreshes(), 1);
    }
}
