//! The per-channel memory controller: 32-entry read queue, open-page
//! FR-FCFS scheduling, watermark-based write draining, refresh, and
//! migration (row swap) scheduling (Table 1).
//!
//! The controller is event-driven and passive: the simulator calls
//! [`MemoryController::advance_into`] with the current tick to let it issue
//! every command that has become legal, and
//! [`MemoryController::next_action_time`] to learn when to wake it next.
//!
//! Both ask the scheduler for its pick, which is computed once per state
//! change: the chosen command and its role depend only on controller and
//! device state, except that a rank's refresh falling due or a queued
//! migration reaching its starvation bound can change them, and the issue
//! tick of a pick computed at `t0` is `max(at, now)` for any later `now`.
//! So the pick is cached until the next enqueue, issued command, or
//! time-based edge, whichever comes first.
//!
//! A fresh pick finds the oldest request and the oldest row hit without a
//! scan. The read and write queues are kept sorted by `(arrival, id)`, so
//! the oldest request is entry 0, and each queue carries a bitmask of the
//! entries whose row is open in its serving row buffer, so the oldest row
//! hit is the mask's lowest set bit. Only ACT and PRE change which rows
//! are open (REF and SWAP need a precharged bank), so after either the
//! controller re-tests the entries of that one bank; this stays exact
//! under SALP's per-subarray buffers. A mask is one `u64`, which bounds
//! each queue at 64 entries.

use core::fmt;

use das_dram::channel::ChannelDevice;
use das_dram::command::DramCommand;
use das_dram::geometry::BankCoord;
use das_dram::tick::Tick;

use crate::request::{Completion, Request, ServiceClass, SwapOp};

/// Errors the controller reports instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerError {
    /// [`MemoryController::enqueue`] was called with the corresponding
    /// queue already full; callers should check `can_accept_*` first.
    QueueOverflow {
        /// Whether the rejected request was a write.
        is_write: bool,
        /// Capacity of the queue that rejected it.
        capacity: usize,
    },
    /// The device produced no data edge for a column command — a device
    /// model inconsistency the simulation must surface, not swallow.
    MissingDataEdge {
        /// Id of the request whose data edge is missing.
        id: u64,
    },
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::QueueOverflow { is_write, capacity } => {
                let kind = if *is_write { "write" } else { "read" };
                write!(f, "{kind} queue overflow (capacity {capacity})")
            }
            ControllerError::MissingDataEdge { id } => {
                write!(f, "column command for request {id} returned no data edge")
            }
        }
    }
}

impl std::error::Error for ControllerError {}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Leave rows open after column accesses, betting on row-buffer hits
    /// (Table 1's policy).
    #[default]
    Open,
    /// Close rows as soon as no queued request wants them, betting against
    /// locality (saves the precharge from the critical path of conflicts).
    Closed,
}

/// Scheduling discipline for demand requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// First-ready, first-come-first-served: row-buffer hits first, then
    /// oldest (Table 1).
    #[default]
    FrFcfs,
    /// Pure first-come-first-served (scheduler ablation baseline).
    Fcfs,
}

/// Controller configuration (Table 1 defaults).
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Read-queue capacity (Table 1: 32).
    pub read_queue: usize,
    /// Write-queue capacity.
    pub write_queue: usize,
    /// Scheduling discipline.
    pub scheduler: SchedulerKind,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Start draining writes when the write queue reaches this fill level.
    pub write_drain_high: usize,
    /// Stop draining when it falls to this level.
    pub write_drain_low: usize,
    /// Force a queued migration to the front once it has waited this long.
    pub migration_starvation: Tick,
}

impl ControllerConfig {
    /// The paper's controller: 32-entry request queue, open-page FR-FCFS.
    pub fn paper_default() -> Self {
        ControllerConfig {
            read_queue: 32,
            write_queue: 32,
            scheduler: SchedulerKind::FrFcfs,
            page_policy: PagePolicy::Open,
            write_drain_high: 24,
            write_drain_low: 8,
            migration_starvation: Tick::from_ns_int(2000),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: Request,
    /// Set once this request caused an ACT (so its service class is a row
    /// miss even if the row is open by the time the column command goes).
    activated: Option<ServiceClass>,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerStats {
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Swaps completed.
    pub swaps: u64,
    /// Row-buffer hits among completed data requests.
    pub row_hits: u64,
    /// Fast-level row activations among completed data requests.
    pub fast_misses: u64,
    /// Slow-level row activations among completed data requests.
    pub slow_misses: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Sum of read queueing+service latency in ticks (arrival → data).
    pub read_latency_ticks: u64,
}

/// A scheduling decision: the command, its earliest issue tick, and the
/// bookkeeping role it plays.
type Pick = (DramCommand, Tick, Role);

/// The scheduler's pick, valid for every `now` in
/// `[computed_at, valid_until)` while the controller state is unchanged.
#[derive(Debug, Clone, Copy)]
struct CachedPick {
    computed_at: Tick,
    /// The next refresh deadline or migration starvation bound after
    /// `computed_at`.
    valid_until: Tick,
    pick: Option<Pick>,
}

/// One channel's memory controller. See the [module docs](self).
#[derive(Debug)]
pub struct MemoryController {
    cfg: ControllerConfig,
    channel: ChannelDevice,
    /// Sorted by `(arrival, id)`, oldest first.
    reads: Vec<Pending>,
    /// Sorted by `(arrival, id)`, oldest first.
    writes: Vec<Pending>,
    /// Bit `i` is set iff `reads[i]`'s row is open in its serving buffer.
    read_hits: u64,
    /// Bit `i` is set iff `writes[i]`'s row is open in its serving buffer.
    write_hits: u64,
    swaps: Vec<SwapOp>,
    draining: bool,
    /// Command-bus spacing: commands are at least one tCK apart.
    last_cmd: Tick,
    first_cmd_issued: bool,
    /// Dropped on every enqueue and every issued command.
    cached: Option<CachedPick>,
    stats: ControllerStats,
}

impl MemoryController {
    /// Creates a controller owning `channel`.
    pub fn new(cfg: ControllerConfig, channel: ChannelDevice) -> Self {
        assert!(cfg.read_queue > 0 && cfg.write_queue > 0);
        assert!(
            cfg.read_queue <= 64 && cfg.write_queue <= 64,
            "a queue's row-hit mask is one u64"
        );
        assert!(cfg.write_drain_high <= cfg.write_queue);
        assert!(cfg.write_drain_low < cfg.write_drain_high);
        MemoryController {
            cfg,
            channel,
            reads: Vec::new(),
            writes: Vec::new(),
            read_hits: 0,
            write_hits: 0,
            swaps: Vec::new(),
            draining: false,
            last_cmd: Tick::ZERO,
            first_cmd_issued: false,
            cached: None,
            stats: ControllerStats::default(),
        }
    }

    /// The device owned by this controller.
    pub fn channel(&self) -> &ChannelDevice {
        &self.channel
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Whether a new read can be accepted.
    pub fn can_accept_read(&self) -> bool {
        self.reads.len() < self.cfg.read_queue
    }

    /// Whether a new write can be accepted.
    pub fn can_accept_write(&self) -> bool {
        self.writes.len() < self.cfg.write_queue
    }

    /// Queued demand requests (reads + writes).
    pub fn queued(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Queued migrations.
    pub fn queued_swaps(&self) -> usize {
        self.swaps.len()
    }

    /// Queued demand reads (telemetry occupancy sampling).
    pub fn queued_reads(&self) -> usize {
        self.reads.len()
    }

    /// Queued writes awaiting drain (telemetry occupancy sampling).
    pub fn queued_writes(&self) -> usize {
        self.writes.len()
    }

    /// Total scheduling backlog: demand reads + writes + pending swaps —
    /// the work the timing engine still has to drain.
    pub fn backlog(&self) -> usize {
        self.queued() + self.queued_swaps()
    }

    /// Enqueues a demand request, rejecting it with
    /// [`ControllerError::QueueOverflow`] when the corresponding queue is
    /// full (callers should check `can_accept_*` first).
    pub fn enqueue(&mut self, req: Request) -> Result<(), ControllerError> {
        let (accept, capacity) = if req.is_write {
            (self.can_accept_write(), self.cfg.write_queue)
        } else {
            (self.can_accept_read(), self.cfg.read_queue)
        };
        if !accept {
            return Err(ControllerError::QueueOverflow {
                is_write: req.is_write,
                capacity,
            });
        }
        let hit = self.channel.is_row_open(req.coord.bank, req.coord.row);
        let (q, hits) = if req.is_write {
            (&mut self.writes, &mut self.write_hits)
        } else {
            (&mut self.reads, &mut self.read_hits)
        };
        // After every equal key: a duplicate id would keep enqueue order.
        let key = (req.arrival, req.id);
        let pos = q.partition_point(|p| (p.req.arrival, p.req.id) <= key);
        q.insert(
            pos,
            Pending {
                req,
                activated: None,
            },
        );
        *hits = insert_bit(*hits, pos, hit);
        self.cached = None;
        Ok(())
    }

    /// Enqueues a row swap.
    pub fn enqueue_swap(&mut self, op: SwapOp) {
        self.swaps.push(op);
        self.cached = None;
    }

    fn cmd_gap(&self) -> Tick {
        self.channel.timing().rank_params().tck
    }

    fn bus_ready(&self, t: Tick) -> Tick {
        if self.first_cmd_issued {
            t.max(self.last_cmd + self.cmd_gap())
        } else {
            t
        }
    }

    /// Like [`MemoryController::advance_into`], returning the completions
    /// in a new vector.
    pub fn advance(&mut self, now: Tick) -> Result<Vec<Completion>, ControllerError> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out)?;
        Ok(out)
    }

    /// Issues every command that is legal at or before `now`, appending the
    /// completions generated to `out`. Call again at
    /// [`MemoryController::next_action_time`].
    pub fn advance_into(
        &mut self,
        now: Tick,
        out: &mut Vec<Completion>,
    ) -> Result<(), ControllerError> {
        // Cap iterations defensively; each loop issues at most one command.
        for _ in 0..4096 {
            let Some((cmd, at, role)) = self.pick(now) else {
                break;
            };
            if at > now {
                break;
            }
            self.cached = None;
            let outcome = self.channel.issue(&cmd, at);
            self.last_cmd = at;
            self.first_cmd_issued = true;
            if let DramCommand::Activate { bank, .. } | DramCommand::Precharge { bank, .. } = cmd {
                self.retest_hits(bank);
            }
            match role {
                Role::Refresh => self.stats.refreshes += 1,
                Role::Activate {
                    list,
                    idx,
                    phys_row,
                } => {
                    let service = match self.channel.row_kind(phys_row) {
                        das_dram::SubarrayKind::Fast => ServiceClass::FastMiss,
                        das_dram::SubarrayKind::Slow => ServiceClass::SlowMiss,
                    };
                    self.pending_mut(list, idx).activated = Some(service);
                }
                Role::Precharge => {}
                Role::Column { list, idx } => {
                    let p = self.remove_pending(list, idx);
                    let service = p.activated.unwrap_or(ServiceClass::RowBufferHit);
                    let Some(at_done) = outcome.data_end else {
                        return Err(ControllerError::MissingDataEdge { id: p.req.id });
                    };
                    match service {
                        ServiceClass::RowBufferHit => self.stats.row_hits += 1,
                        ServiceClass::FastMiss => self.stats.fast_misses += 1,
                        ServiceClass::SlowMiss => self.stats.slow_misses += 1,
                    }
                    let latency = at_done - p.req.arrival;
                    if p.req.is_write {
                        self.stats.writes += 1;
                        out.push(Completion::WriteDone {
                            id: p.req.id,
                            at: at_done,
                            service,
                            latency,
                        });
                    } else {
                        self.stats.reads += 1;
                        self.stats.read_latency_ticks += latency.raw();
                        out.push(Completion::ReadDone {
                            id: p.req.id,
                            at: at_done,
                            service,
                            latency,
                        });
                    }
                }
                Role::Swap { idx } => {
                    let op = self.swaps.remove(idx);
                    self.stats.swaps += 1;
                    out.push(Completion::SwapDone {
                        token: op.token,
                        at: outcome.done,
                    });
                }
            }
        }
        Ok(())
    }

    /// The earliest tick at which [`MemoryController::advance_into`] could make
    /// progress, or `None` when nothing is queued and no refresh is armed.
    pub fn next_action_time(&mut self, now: Tick) -> Option<Tick> {
        let cmd = self.pick(now).map(|(_, at, _)| at);
        // A refresh deadline that has already passed is handled by
        // `best_command` (which schedules the REF or the precharges leading
        // to it); reporting it here would wedge the caller at `now`.
        let refresh = self.channel.next_refresh_due().filter(|&r| r > now);
        match (cmd, refresh) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (Some(a), None) => Some(a),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        }
    }

    /// The scheduler's pick at `now`: the cached one when still valid (see
    /// the [module docs](self)), else a fresh [`Self::best_command`].
    fn pick(&mut self, now: Tick) -> Option<Pick> {
        if let Some(c) = self.cached {
            if c.computed_at <= now && now < c.valid_until {
                return c.pick.map(|(cmd, at, role)| (cmd, at.max(now), role));
            }
        }
        // Drain mode follows the write-queue length alone, which only
        // changes with a state change that drops the cache.
        self.update_drain_mode();
        let pick = self.best_command(now);
        self.cached = Some(CachedPick {
            computed_at: now,
            valid_until: self.pick_horizon(now),
            pick,
        });
        pick
    }

    /// The first tick after `now` at which [`Self::best_command`] may choose
    /// differently without a state change: a rank's refresh falls due or a
    /// queued migration reaches its starvation bound.
    fn pick_horizon(&self, now: Tick) -> Tick {
        let refresh = self
            .channel
            .next_refresh_due_after(now)
            .unwrap_or(Tick::MAX);
        if self.cfg.migration_starvation == Tick::MAX {
            return refresh;
        }
        self.swaps
            .iter()
            .map(|op| op.arrival + self.cfg.migration_starvation)
            .filter(|&t| t > now)
            .fold(refresh, Tick::min)
    }

    fn update_drain_mode(&mut self) {
        if self.writes.len() >= self.cfg.write_drain_high {
            self.draining = true;
        } else if self.writes.len() <= self.cfg.write_drain_low {
            self.draining = false;
        }
    }

    fn pending_mut(&mut self, list: List, idx: usize) -> &mut Pending {
        match list {
            List::Reads => &mut self.reads[idx],
            List::Writes => &mut self.writes[idx],
        }
    }

    fn remove_pending(&mut self, list: List, idx: usize) -> Pending {
        let (q, hits) = match list {
            List::Reads => (&mut self.reads, &mut self.read_hits),
            List::Writes => (&mut self.writes, &mut self.write_hits),
        };
        *hits = remove_bit(*hits, idx);
        q.remove(idx)
    }

    /// Re-tests the row-hit bits of every queued request to `bank`, after
    /// an ACT or PRE there changed which of its rows are open.
    fn retest_hits(&mut self, bank: BankCoord) {
        let channel = &self.channel;
        let retest = |q: &[Pending], mut hits: u64| {
            for (i, p) in q.iter().enumerate() {
                if p.req.coord.bank == bank {
                    let bit = 1u64 << i;
                    if channel.is_row_open(bank, p.req.coord.row) {
                        hits |= bit;
                    } else {
                        hits &= !bit;
                    }
                }
            }
            hits
        };
        self.read_hits = retest(&self.reads, self.read_hits);
        self.write_hits = retest(&self.writes, self.write_hits);
    }

    /// The row-hit mask of `q` recomputed from the device.
    fn fresh_hits(&self, q: &[Pending]) -> u64 {
        q.iter().enumerate().fold(0, |hits, (i, p)| {
            let open = self.channel.is_row_open(p.req.coord.bank, p.req.coord.row);
            hits | (u64::from(open) << i)
        })
    }

    /// Chooses the next command per the scheduling policy, returning the
    /// command, its earliest issue tick, and the bookkeeping role.
    fn best_command(&self, now: Tick) -> Option<Pick> {
        debug_assert_eq!(self.read_hits, self.fresh_hits(&self.reads));
        debug_assert_eq!(self.write_hits, self.fresh_hits(&self.writes));
        // 1. Refresh when due (mandatory, before new work).
        if let Some(rank) = self.channel.refresh_due(now) {
            let cmd = DramCommand::Refresh { rank };
            if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                return Some((cmd, self.bus_ready(t), Role::Refresh));
            }
            // Banks open: fall through — closing them proceeds below, but
            // block *new* activates to that rank by preferring precharges.
            if let Some(pick) = self.refresh_blocking_precharge(now, rank) {
                return Some(pick);
            }
        }
        // 1b. Starved migrations preempt demand (bounded wait, §5.3).
        if let Some(pick) = self.swap_command(now, true) {
            return Some(pick);
        }
        let serve_writes = self.draining || self.reads.is_empty();
        // 2. Row-buffer hits first (FR-FCFS), oldest first.
        if self.cfg.scheduler == SchedulerKind::FrFcfs {
            if let Some(pick) = self.oldest_row_hit(now, List::Reads) {
                return Some(pick);
            }
            if serve_writes {
                if let Some(pick) = self.oldest_row_hit(now, List::Writes) {
                    return Some(pick);
                }
            }
        }
        // 3. Oldest request's next step.
        if let Some(pick) = self.oldest_next_step(now, List::Reads) {
            return Some(pick);
        }
        if serve_writes {
            if let Some(pick) = self.oldest_next_step(now, List::Writes) {
                return Some(pick);
            }
        }
        // 4. Closed-page housekeeping: close rows nobody queued wants.
        if self.cfg.page_policy == PagePolicy::Closed {
            if let Some(pick) = self.idle_row_precharge(now) {
                return Some(pick);
            }
        }
        // 5. Migrations: when their bank has no queued demand.
        self.swap_command(now, false)
    }

    /// Closed-page policy: propose a PRE for any open row that no queued
    /// request targets.
    fn idle_row_precharge(&self, now: Tick) -> Option<Pick> {
        for rank in 0..self.channel.ranks() {
            for bank in self.channel.open_banks_of_rank(rank) {
                for row in self.channel.open_rows(bank) {
                    let wanted = self
                        .reads
                        .iter()
                        .chain(self.writes.iter())
                        .any(|p| p.req.coord.bank == bank && p.req.coord.row == row);
                    if wanted {
                        continue;
                    }
                    let cmd = DramCommand::Precharge {
                        bank,
                        phys_row: row,
                    };
                    if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                        return Some((cmd, self.bus_ready(t), Role::Precharge));
                    }
                }
            }
        }
        None
    }

    fn refresh_blocking_precharge(&self, now: Tick, rank: u8) -> Option<Pick> {
        // Close any open row of the refreshing rank (oldest-first demand
        // ordering is secondary to refresh urgency).
        for bank_coord in self.channel.open_banks_of_rank(rank) {
            for row in self.channel.open_rows(bank_coord) {
                let cmd = DramCommand::Precharge {
                    bank: bank_coord,
                    phys_row: row,
                };
                if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                    return Some((cmd, self.bus_ready(t), Role::Precharge));
                }
            }
        }
        None
    }

    /// The oldest queued request of `list` whose row is open: its column
    /// command. A column command's `earliest_issue` is `Some` iff its row
    /// is open, so the lowest set bit is the whole search.
    fn oldest_row_hit(&self, now: Tick, list: List) -> Option<Pick> {
        let (q, hits) = match list {
            List::Reads => (&self.reads, self.read_hits),
            List::Writes => (&self.writes, self.write_hits),
        };
        if hits == 0 {
            return None;
        }
        let idx = hits.trailing_zeros() as usize;
        let cmd = column_cmd(&q[idx].req);
        let t = self.bus_ready(self.channel.earliest_issue(&cmd, now)?);
        Some((cmd, t, Role::Column { list, idx }))
    }

    /// The next command of the oldest queued request of `list` (entry 0).
    fn oldest_next_step(&self, now: Tick, list: List) -> Option<Pick> {
        let q = match list {
            List::Reads => &self.reads,
            List::Writes => &self.writes,
        };
        let p = q.first()?;
        let bank = p.req.coord.bank;
        let cmd = match self.channel.open_row_in_buffer_of(bank, p.req.coord.row) {
            Some(row) if row == p.req.coord.row => column_cmd(&p.req),
            Some(_) => DramCommand::Precharge {
                bank,
                phys_row: p.req.coord.row,
            },
            None => DramCommand::Activate {
                bank,
                phys_row: p.req.coord.row,
            },
        };
        let t = self.channel.earliest_issue(&cmd, now)?;
        let t = self.bus_ready(t);
        let role = match cmd {
            DramCommand::Precharge { .. } => Role::Precharge,
            DramCommand::Activate { phys_row, .. } => Role::Activate {
                list,
                idx: 0,
                phys_row,
            },
            _ => Role::Column { list, idx: 0 },
        };
        Some((cmd, t, role))
    }

    fn swap_command(&self, now: Tick, only_starved: bool) -> Option<Pick> {
        for (idx, op) in self.swaps.iter().enumerate() {
            let starving = self.cfg.migration_starvation != Tick::MAX
                && now >= op.arrival + self.cfg.migration_starvation;
            if only_starved && !starving {
                continue;
            }
            let demand_on_bank = self
                .reads
                .iter()
                .chain(self.writes.iter())
                .any(|p| p.req.coord.bank == op.bank);
            if demand_on_bank && !starving {
                continue;
            }
            // Need the bank fully precharged; close open rows first.
            let mut open = self.channel.open_rows(op.bank).peekable();
            if open.peek().is_some() {
                for row in open {
                    let cmd = DramCommand::Precharge {
                        bank: op.bank,
                        phys_row: row,
                    };
                    if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                        return Some((cmd, self.bus_ready(t), Role::Precharge));
                    }
                }
                continue;
            }
            let cmd = DramCommand::RowSwap {
                bank: op.bank,
                phys_a: op.phys_a,
                phys_b: op.phys_b,
                kind: op.kind,
            };
            if let Some(t) = self.channel.earliest_issue(&cmd, now) {
                return Some((cmd, self.bus_ready(t), Role::Swap { idx }));
            }
        }
        None
    }
}

/// `hits` with a bit `hit` inserted at `pos`, the bits above moving up.
fn insert_bit(hits: u64, pos: usize, hit: bool) -> u64 {
    let below = (1u64 << pos) - 1;
    (hits & below) | ((hits & !below) << 1) | (u64::from(hit) << pos)
}

/// `hits` with bit `pos` removed, the bits above moving down.
fn remove_bit(hits: u64, pos: usize) -> u64 {
    let below = (1u64 << pos) - 1;
    (hits & below) | ((hits >> 1) & !below)
}

fn column_cmd(req: &Request) -> DramCommand {
    if req.is_write {
        DramCommand::Write {
            bank: req.coord.bank,
            phys_row: req.coord.row,
            col: req.coord.col,
        }
    } else {
        DramCommand::Read {
            bank: req.coord.bank,
            phys_row: req.coord.row,
            col: req.coord.col,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    Reads,
    Writes,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Refresh,
    Precharge,
    Activate {
        list: List,
        idx: usize,
        phys_row: u32,
    },
    Column {
        list: List,
        idx: usize,
    },
    Swap {
        idx: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_dram::geometry::{Arrangement, BankLayout, FastRatio, MemCoord};
    use das_dram::timing::TimingSet;

    fn device(timing: TimingSet, refresh: bool) -> ChannelDevice {
        let layout =
            BankLayout::build(4096, FastRatio::new(1, 8), Arrangement::default(), 128, 512);
        ChannelDevice::new(0, 2, 8, layout, timing, refresh)
    }

    fn ctrl(timing: TimingSet) -> MemoryController {
        MemoryController::new(ControllerConfig::paper_default(), device(timing, false))
    }

    fn read(id: u64, bank: u8, row: u32, col: u32, at: Tick) -> Request {
        Request {
            id,
            coord: MemCoord {
                bank: BankCoord::new(0, 0, bank),
                row,
                col,
            },
            is_write: false,
            arrival: at,
        }
    }

    fn run_until_idle(c: &mut MemoryController, mut now: Tick) -> Vec<Completion> {
        let mut all = Vec::new();
        for _ in 0..100_000 {
            all.extend(c.advance(now).unwrap());
            match c.next_action_time(now) {
                Some(t) if c.queued() > 0 || c.queued_swaps() > 0 => {
                    now = t.max(now + Tick::new(1));
                }
                _ => break,
            }
        }
        all
    }

    #[test]
    fn single_read_closed_bank_latency() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let slow_row = c.channel().layout().slow_to_phys(0);
        c.enqueue(read(1, 0, slow_row, 5, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 1);
        let Completion::ReadDone {
            id, at, service, ..
        } = done[0]
        else {
            panic!()
        };
        assert_eq!(id, 1);
        assert_eq!(service, ServiceClass::SlowMiss);
        // ACT at 0, RD at tRCD, data at +CL+burst.
        assert_eq!(at, Tick::from_ns(13.75 + 13.75 + 5.0));
    }

    #[test]
    fn second_read_same_row_is_row_hit() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row = c.channel().layout().slow_to_phys(3);
        c.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        c.enqueue(read(2, 0, row, 1, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 2);
        let services: Vec<_> = done
            .iter()
            .map(|d| match d {
                Completion::ReadDone { service, .. } => *service,
                _ => panic!(),
            })
            .collect();
        assert_eq!(
            services,
            [ServiceClass::SlowMiss, ServiceClass::RowBufferHit]
        );
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_conflict() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row_a = c.channel().layout().slow_to_phys(0);
        let row_b = c.channel().layout().slow_to_phys(1);
        // Open row_a via request 1 and let it complete (open-page keeps it).
        c.enqueue(read(1, 0, row_a, 0, Tick::ZERO)).unwrap();
        let first = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(first.len(), 1);
        // Now: older conflicting request (row_b) and younger row hit (row_a).
        let now = Tick::from_ns(100.0);
        c.enqueue(read(2, 0, row_b, 0, now)).unwrap();
        c.enqueue(read(3, 0, row_a, 1, now + Tick::from_ns(1.0)))
            .unwrap();
        let done = run_until_idle(&mut c, now + Tick::from_ns(1.0));
        let ids: Vec<u64> = done
            .iter()
            .map(|d| match d {
                Completion::ReadDone { id, .. } => *id,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ids, [3, 2], "row hit first under FR-FCFS");
    }

    #[test]
    fn fcfs_serves_in_order() {
        let dev = device(TimingSet::homogeneous_slow(), false);
        let cfg = ControllerConfig {
            scheduler: SchedulerKind::Fcfs,
            ..ControllerConfig::paper_default()
        };
        let mut c = MemoryController::new(cfg, dev);
        let row_a = c.channel().layout().slow_to_phys(0);
        let row_b = c.channel().layout().slow_to_phys(1);
        c.enqueue(read(1, 0, row_a, 0, Tick::ZERO)).unwrap();
        let first = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(first.len(), 1);
        let now = Tick::from_ns(100.0);
        c.enqueue(read(2, 0, row_b, 0, now)).unwrap();
        c.enqueue(read(3, 0, row_a, 1, now + Tick::from_ns(1.0)))
            .unwrap();
        let done = run_until_idle(&mut c, now + Tick::from_ns(1.0));
        let ids: Vec<u64> = done
            .iter()
            .filter_map(|d| match d {
                Completion::ReadDone { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, [2, 3], "FCFS ignores row locality");
    }

    #[test]
    fn writes_drain_when_reads_absent() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row = c.channel().layout().slow_to_phys(0);
        c.enqueue(Request {
            id: 9,
            coord: MemCoord {
                bank: BankCoord::new(0, 0, 0),
                row,
                col: 0,
            },
            is_write: true,
            arrival: Tick::ZERO,
        })
        .unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert!(matches!(done[0], Completion::WriteDone { id: 9, .. }));
        assert_eq!(c.stats().writes, 1);
    }

    #[test]
    fn swap_waits_for_demand_then_runs() {
        let mut c = ctrl(TimingSet::asymmetric());
        let fast = c.channel().layout().fast_to_phys(0);
        let slow = c.channel().layout().slow_to_phys(0);
        c.enqueue(read(1, 0, slow, 0, Tick::ZERO)).unwrap();
        c.enqueue_swap(SwapOp {
            token: 77,
            bank: BankCoord::new(0, 0, 0),
            phys_a: slow,
            phys_b: fast,
            kind: Default::default(),
            arrival: Tick::ZERO,
        });
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 2);
        // Read completes first; swap afterwards.
        assert!(matches!(done[0], Completion::ReadDone { id: 1, .. }));
        let Completion::SwapDone { token, at } = done[1] else {
            panic!()
        };
        assert_eq!(token, 77);
        assert!(at >= done[0].at());
        assert_eq!(c.stats().swaps, 1);
    }

    #[test]
    fn swap_on_idle_bank_runs_immediately() {
        let mut c = ctrl(TimingSet::asymmetric());
        let fast = c.channel().layout().fast_to_phys(0);
        let slow = c.channel().layout().slow_to_phys(0);
        c.enqueue_swap(SwapOp {
            token: 5,
            bank: BankCoord::new(0, 0, 3),
            phys_a: slow,
            phys_b: fast,
            kind: Default::default(),
            arrival: Tick::ZERO,
        });
        let done = run_until_idle(&mut c, Tick::ZERO);
        let Completion::SwapDone { at, .. } = done[0] else {
            panic!()
        };
        assert_eq!(at, Tick::from_ns(146.25));
    }

    #[test]
    fn refresh_fires_and_blocks_rank() {
        let dev = device(TimingSet::homogeneous_slow(), true);
        let mut c = MemoryController::new(ControllerConfig::paper_default(), dev);
        // Idle until past tREFI; then a read arrives. Refresh must go first.
        let t = Tick::from_ns(7800.0);
        let row = c.channel().layout().slow_to_phys(0);
        c.enqueue(read(1, 0, row, 0, t)).unwrap();
        let done = run_until_idle(&mut c, t);
        // Both ranks of the channel were due; at least the target's fired.
        assert!(c.stats().refreshes >= 1);
        let Completion::ReadDone { at, .. } = done[0] else {
            panic!()
        };
        assert!(at >= t + Tick::from_ns(160.0), "read waited for tRFC");
    }

    #[test]
    fn refresh_precharges_idle_open_banks() {
        let dev = device(TimingSet::homogeneous_slow(), true);
        let mut c = MemoryController::new(ControllerConfig::paper_default(), dev);
        let row = c.channel().layout().slow_to_phys(0);
        // Open a row; the queue then drains, leaving the bank open (open-page).
        c.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 1);
        assert!(c.channel().open_row(BankCoord::new(0, 0, 0)).is_some());
        // Let the refresh deadline pass with an empty queue; step time
        // forward so the precharge → refresh sequence can play out.
        let mut t = Tick::from_ns(8000.0);
        for _ in 0..64 {
            let _ = c.advance(t).unwrap();
            if c.stats().refreshes >= 1 {
                break;
            }
            t += Tick::from_ns(20.0);
        }
        assert!(
            c.stats().refreshes >= 1,
            "idle open bank was closed for refresh"
        );
        assert!(c.channel().open_row(BankCoord::new(0, 0, 0)).is_none());
    }

    #[test]
    fn closed_page_policy_precharges_idle_rows() {
        let cfg = ControllerConfig {
            page_policy: PagePolicy::Closed,
            ..ControllerConfig::paper_default()
        };
        let mut c = MemoryController::new(cfg, device(TimingSet::homogeneous_slow(), false));
        let row = c.channel().layout().slow_to_phys(0);
        c.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        assert_eq!(done.len(), 1);
        // Step time forward past tRAS: the idle row must get closed.
        let mut now = Tick::from_ns(40.0);
        for _ in 0..16 {
            let _ = c.advance(now).unwrap();
            now += Tick::from_ns(10.0);
        }
        assert!(
            c.channel().open_row(BankCoord::new(0, 0, 0)).is_none(),
            "closed-page must precharge idle rows"
        );
        // Open-page (default) leaves it open.
        let mut c2 = ctrl(TimingSet::homogeneous_slow());
        c2.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        let _ = run_until_idle(&mut c2, Tick::ZERO);
        assert!(c2.channel().open_row(BankCoord::new(0, 0, 0)).is_some());
    }

    #[test]
    fn write_drain_watermarks_hold() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        let row = c.channel().layout().slow_to_phys(0);
        // Below the high watermark and with reads pending, writes wait.
        for i in 0..4u64 {
            c.enqueue(Request {
                id: 100 + i,
                coord: MemCoord {
                    bank: BankCoord::new(0, 0, 1),
                    row,
                    col: i as u32,
                },
                is_write: true,
                arrival: Tick::ZERO,
            })
            .unwrap();
        }
        c.enqueue(read(1, 0, row, 0, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        // The read completes; once reads drain, writes go too.
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().writes, 4);
        assert_eq!(done.len(), 5);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut c = ctrl(TimingSet::homogeneous_slow());
        for i in 0..32 {
            assert!(c.can_accept_read());
            c.enqueue(read(i, (i % 8) as u8, 0, 0, Tick::ZERO)).unwrap();
        }
        assert!(!c.can_accept_read());
        assert!(c.can_accept_write());
        assert!(matches!(
            c.enqueue(read(99, 0, 0, 0, Tick::ZERO)),
            Err(ControllerError::QueueOverflow {
                is_write: false,
                capacity: 32
            })
        ));
    }

    #[test]
    fn fast_rows_complete_sooner_than_slow() {
        let mut c = ctrl(TimingSet::asymmetric());
        let fast = c.channel().layout().fast_to_phys(0);
        c.enqueue(read(1, 0, fast, 0, Tick::ZERO)).unwrap();
        let done = run_until_idle(&mut c, Tick::ZERO);
        let Completion::ReadDone {
            at: fast_at,
            service,
            ..
        } = done[0]
        else {
            panic!()
        };
        assert_eq!(service, ServiceClass::FastMiss);

        let mut c2 = ctrl(TimingSet::asymmetric());
        let slow = c2.channel().layout().slow_to_phys(0);
        c2.enqueue(read(1, 0, slow, 0, Tick::ZERO)).unwrap();
        let done2 = run_until_idle(&mut c2, Tick::ZERO);
        let Completion::ReadDone { at: slow_at, .. } = done2[0] else {
            panic!()
        };
        assert!(fast_at < slow_at, "fast {fast_at} !< slow {slow_at}");
    }

    #[test]
    fn starved_swap_preempts_demand_stream() {
        let cfg = ControllerConfig {
            migration_starvation: Tick::from_ns_int(100),
            ..ControllerConfig::paper_default()
        };
        let mut c = MemoryController::new(cfg, device(TimingSet::asymmetric(), false));
        let slow = c.channel().layout().slow_to_phys(0);
        let fast = c.channel().layout().fast_to_phys(0);
        c.enqueue_swap(SwapOp {
            token: 1,
            bank: BankCoord::new(0, 0, 0),
            phys_a: slow,
            phys_b: fast,
            kind: Default::default(),
            arrival: Tick::ZERO,
        });
        // Keep feeding demand to the same bank.
        let mut now = Tick::ZERO;
        let mut swap_done = false;
        for i in 0..200 {
            if c.can_accept_read() {
                c.enqueue(read(100 + i, 0, slow, (i % 128) as u32, now))
                    .unwrap();
            }
            for ev in c.advance(now).unwrap() {
                if matches!(ev, Completion::SwapDone { .. }) {
                    swap_done = true;
                }
            }
            now += Tick::from_ns_int(20);
            if swap_done {
                break;
            }
        }
        assert!(swap_done, "starvation bound must force the swap through");
    }

    /// xorshift64: a dependency-free seeded stream for the differential
    /// test below.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// `next_action_time` recomputed from an uncached `best_command`.
    fn uncached_next_action(c: &MemoryController, now: Tick) -> Option<Tick> {
        let cmd = c.best_command(now).map(|(_, at, _)| at);
        let refresh = c.channel.next_refresh_due().filter(|&r| r > now);
        match (cmd, refresh) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (a, r) => a.or(r),
        }
    }

    /// Oracle: the full-queue row-hit scan the hit masks replaced. It takes
    /// the minimum by `(arrival, id)`, so queue order does not affect it.
    fn scan_oldest_row_hit(c: &MemoryController, now: Tick, list: List) -> Option<Pick> {
        let q = match list {
            List::Reads => &c.reads,
            List::Writes => &c.writes,
        };
        let mut best: Option<(usize, Tick)> = None;
        for (i, p) in q.iter().enumerate() {
            if !c.channel.is_row_open(p.req.coord.bank, p.req.coord.row) {
                continue;
            }
            let Some(t) = c.channel.earliest_issue(&column_cmd(&p.req), now) else {
                continue;
            };
            let t = c.bus_ready(t);
            let better = match best {
                None => true,
                Some((bi, _)) => (p.req.arrival, p.req.id) < (q[bi].req.arrival, q[bi].req.id),
            };
            if better {
                best = Some((i, t));
            }
        }
        best.map(|(i, t)| (column_cmd(&q[i].req), t, Role::Column { list, idx: i }))
    }

    /// Oracle: the oldest-request scan that entry 0 of the sorted queue
    /// replaced.
    fn scan_oldest_next_step(c: &MemoryController, now: Tick, list: List) -> Option<Pick> {
        let q = match list {
            List::Reads => &c.reads,
            List::Writes => &c.writes,
        };
        let oldest = q
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| (p.req.arrival, p.req.id))
            .map(|(i, _)| i)?;
        let p = &q[oldest];
        let bank = p.req.coord.bank;
        let cmd = match c.channel.open_row_in_buffer_of(bank, p.req.coord.row) {
            Some(row) if row == p.req.coord.row => column_cmd(&p.req),
            Some(_) => DramCommand::Precharge {
                bank,
                phys_row: p.req.coord.row,
            },
            None => DramCommand::Activate {
                bank,
                phys_row: p.req.coord.row,
            },
        };
        let t = c.channel.earliest_issue(&cmd, now)?;
        let t = c.bus_ready(t);
        let role = match cmd {
            DramCommand::Precharge { .. } => Role::Precharge,
            DramCommand::Activate { phys_row, .. } => Role::Activate {
                list,
                idx: oldest,
                phys_row,
            },
            _ => Role::Column { list, idx: oldest },
        };
        Some((cmd, t, role))
    }

    /// A pick with the id of the request behind its role's queue index.
    fn with_id(c: &MemoryController, pick: Option<Pick>) -> Option<(Pick, Option<u64>)> {
        pick.map(|(cmd, at, role)| {
            let id = match role {
                Role::Activate { list, idx, .. } | Role::Column { list, idx } => {
                    let q = match list {
                        List::Reads => &c.reads,
                        List::Writes => &c.writes,
                    };
                    Some(q[idx].req.id)
                }
                _ => None,
            };
            ((cmd, at, role), id)
        })
    }

    /// Drives seeded random enqueues (single and bursts, with equal
    /// arrivals, older arrivals and out-of-order ids), swaps and advances
    /// over every scheduler × page policy × SALP shape with refresh on.
    /// After every step the cached pick must equal a fresh
    /// `best_command`, and the age-ordered queue picks must equal the
    /// scan oracles above: command, tick and the request behind the role.
    #[test]
    fn cached_pick_matches_uncached_best_command() {
        let mut hits = 0u64;
        let (mut full_reads, mut full_writes, mut drain_cycles) = (0u32, 0u32, 0u32);
        let (mut multi_hit_picks, mut multi_open_steps) = (0u64, 0u64);
        for case in 0..60u64 {
            let mut rng = XorShift(0x9e37_79b9_7f4a_7c15 ^ (case + 1).wrapping_mul(0x2545_f491));
            let cfg = ControllerConfig {
                scheduler: if case % 3 == 2 {
                    SchedulerKind::Fcfs
                } else {
                    SchedulerKind::FrFcfs
                },
                page_policy: if case % 4 == 3 {
                    PagePolicy::Closed
                } else {
                    PagePolicy::Open
                },
                // Short enough that queued swaps cross it mid-run.
                migration_starvation: Tick::from_ns_int(150 + 50 * (case % 5)),
                ..ControllerConfig::paper_default()
            };
            let salp = (case / 4) % 2 == 1;
            let layout =
                BankLayout::build(4096, FastRatio::new(1, 8), Arrangement::default(), 128, 512);
            let dev =
                ChannelDevice::with_salp(0, 2, 8, layout, TimingSet::asymmetric(), true, salp);
            let mut c = MemoryController::new(cfg, dev);
            // Slow rows 0 and 1 share a 512-row subarray, so they conflict
            // even under SALP; 600 and 1200 sit in two more, so SALP keeps
            // several rows of one bank open at once. Two fast rows follow.
            let rows: Vec<u32> = [0, 1, 600, 1200]
                .into_iter()
                .map(|i| c.channel().layout().slow_to_phys(i))
                .chain((0..2).map(|i| c.channel().layout().fast_to_phys(i)))
                .collect();
            let slow_rows = 4;
            let mut now = Tick::ZERO;
            let mut next_id = 0u64;
            // Ids handed out earlier than their request is enqueued, the
            // way a table read's follow-up demand keeps its older arrival.
            let mut reserved: Vec<(u64, Tick)> = Vec::new();
            let mut was_draining = false;
            let mut out = Vec::new();
            for step in 0..1500 {
                let ctx = format!("case {case} step {step} at {now}");
                // Alternate busy and quiet phases, so queues fill up and
                // then drain below the low watermark again.
                let quiet = (step / 250) % 2 == 1;
                let enqueues = match rng.below(12) {
                    0..=3 | 8 if quiet => {
                        c.advance_into(now, &mut out).unwrap();
                        0
                    }
                    0..=3 => 1,
                    8 => 1 + rng.below(16),
                    9 => {
                        for _ in 0..1 + rng.below(3) {
                            next_id += 1;
                            reserved.push((next_id, now));
                        }
                        0
                    }
                    4 => {
                        let a = rng.below(slow_rows) as usize;
                        let b = slow_rows as usize + rng.below(2) as usize;
                        c.enqueue_swap(SwapOp {
                            token: step,
                            bank: BankCoord::new(0, rng.below(2) as u8, rng.below(3) as u8),
                            phys_a: rows[a],
                            phys_b: rows[b],
                            kind: Default::default(),
                            arrival: now,
                        });
                        0
                    }
                    5..=7 => {
                        c.advance_into(now, &mut out).unwrap();
                        0
                    }
                    _ => 0,
                };
                let write_bias = if enqueues > 1 { 2 } else { 4 };
                for _ in 0..enqueues {
                    let is_write = rng.below(write_bias) == 0;
                    let ok = if is_write {
                        c.can_accept_write()
                    } else {
                        c.can_accept_read()
                    };
                    if !ok {
                        continue;
                    }
                    let (id, arrival) = if !reserved.is_empty() && rng.below(3) == 0 {
                        reserved.swap_remove(rng.below(reserved.len() as u64) as usize)
                    } else {
                        next_id += 1;
                        (next_id, now)
                    };
                    let bank = BankCoord::new(0, rng.below(2) as u8, rng.below(3) as u8);
                    let row = rows[rng.below(rows.len() as u64) as usize];
                    c.enqueue(Request {
                        id,
                        coord: MemCoord {
                            bank,
                            row,
                            col: rng.below(8) as u32,
                        },
                        is_write,
                        arrival,
                    })
                    .unwrap();
                }
                full_reads += u32::from(c.reads.len() == 32);
                full_writes += u32::from(c.writes.len() == 32);
                // Move time forward without touching state: either to the
                // controller's own wake-up or by a random stride.
                match c.next_action_time(now) {
                    Some(t) if rng.below(2) == 0 => now = t.max(now),
                    _ => now += Tick::from_ns_int(rng.below(120)),
                }
                if c.cached
                    .is_some_and(|p| p.computed_at <= now && now < p.valid_until)
                {
                    hits += 1;
                }
                assert_eq!(c.pick(now), c.best_command(now), "{ctx}");
                assert_eq!(
                    c.next_action_time(now),
                    uncached_next_action(&c, now),
                    "{ctx}"
                );
                if was_draining && !c.draining {
                    drain_cycles += 1;
                }
                was_draining = c.draining;
                for list in [List::Reads, List::Writes] {
                    assert_eq!(
                        with_id(&c, c.oldest_row_hit(now, list)),
                        with_id(&c, scan_oldest_row_hit(&c, now, list)),
                        "{ctx} {list:?} row hit"
                    );
                    assert_eq!(
                        with_id(&c, c.oldest_next_step(now, list)),
                        with_id(&c, scan_oldest_next_step(&c, now, list)),
                        "{ctx} {list:?} next step"
                    );
                }
                multi_hit_picks += u64::from(c.read_hits.count_ones() > 1);
                multi_open_steps += u64::from((0..2).any(|r| {
                    (0..3).any(|b| c.channel().open_rows(BankCoord::new(0, r, b)).count() > 1)
                }));
            }
            assert!(c.stats().refreshes > 0, "case {case}: refresh never fired");
            assert!(c.stats().swaps > 0, "case {case}: no swap completed");
        }
        assert!(
            hits > 10_000,
            "the cache was rarely exercised ({hits} hits)"
        );
        assert!(
            full_reads > 0 && full_writes > 0,
            "queues never filled ({full_reads} full reads, {full_writes} full writes)"
        );
        assert!(
            drain_cycles > 10,
            "the write drain never crossed both marks"
        );
        assert!(
            multi_open_steps > 1000,
            "SALP rarely held two rows of a bank open ({multi_open_steps} steps)"
        );
        assert!(
            multi_hit_picks > 1000,
            "too few picks among several row hits ({multi_hit_picks})"
        );
    }
}
