//! A cluster of per-core private L1 caches kept coherent over a
//! [`SnoopBus`] by a [`ProtocolKind`].
//!
//! The cluster sits between N trace-fed cores and the shared memory
//! hierarchy: every core access goes through [`CoherentCluster::access`],
//! which resolves the private-cache lookup, broadcasts whatever bus
//! transaction the protocol demands, snoops every peer cache, and reports
//! whether the request still has to fetch from the shared LLC below
//! (`fetch_below`) plus any dirty lines flushed on the way
//! (`writebacks`).
//!
//! Everything is deterministic: peers are snooped in ascending core
//! order (the lowest-index holder is the cache-to-cache supplier), and
//! each private L1 keeps its lines on an exact recency list, so the LRU
//! victim is well-defined and found without scanning the cache.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::bus::{SnoopBus, C2C_TRANSFER_CYCLES, UPD_WORD_CYCLES};
use crate::protocol::{BusTx, CohState, ProtocolKind};

/// Shape of the private-cache cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of cores (== number of private L1s).
    pub cores: usize,
    /// Lines per private L1 (fully associative, LRU).
    pub l1_lines: usize,
    /// Line size in bytes (must match the shared hierarchy's line size).
    pub line_bytes: u64,
    /// Private-cache hit latency in core cycles.
    pub hit_cycles: u64,
}

/// What one access did, from the shared hierarchy's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Core cycles until the access retires *within the cluster* (private
    /// lookup + bus arbitration + any cache-to-cache transfer). When
    /// `fetch_below` is set the memory-side latency comes on top.
    pub cycles: u64,
    /// The line was supplied by no peer cache: fetch it from the shared
    /// LLC / DRAM below.
    pub fetch_below: bool,
    /// Dirty lines flushed out of the cluster by this access (snoop
    /// write-backs and dirty LRU victims), as line addresses.
    pub writebacks: Vec<u64>,
    /// Another core's L1 held the line valid: a sharing-induced access.
    /// The simulator turns it into per-row sharing heat for the migration
    /// policy.
    pub shared: bool,
}

/// Counters for everything the coherence layer did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    pub bus_rd: u64,
    pub bus_rdx: u64,
    pub bus_upgr: u64,
    pub bus_upd: u64,
    /// Peer lines invalidated by snooped transactions.
    pub invalidations: u64,
    /// Misses served by a peer cache (cache-to-cache transfer).
    pub interventions: u64,
    /// Dirty lines flushed below by snoops or evictions.
    pub writeback_flushes: u64,
    /// Cycles transactions spent waiting for the bus.
    pub bus_wait_cycles: u64,
    /// Cycles the bus spent occupied.
    pub bus_busy_cycles: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    /// DAS row promotions whose row lies in the shared footprint
    /// (recorded by the memory side via [`CoherentCluster::note_shared_promotion`]).
    pub shared_promotions: u64,
}

impl CoherenceStats {
    fn count_tx(&mut self, tx: BusTx) {
        match tx {
            BusTx::BusRd => self.bus_rd += 1,
            BusTx::BusRdX => self.bus_rdx += 1,
            BusTx::BusUpgr => self.bus_upgr += 1,
            BusTx::BusUpd => self.bus_upd += 1,
        }
    }

    /// Total bus transactions of any kind.
    pub fn bus_transactions(&self) -> u64 {
        self.bus_rd + self.bus_rdx + self.bus_upgr + self.bus_upd
    }
}

/// "No node" link in an [`LruTags`] recency list.
const NIL: u32 = u32::MAX;

/// One resident line of a private L1, linked into its recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    line: u64,
    state: CohState,
    prev: u32,
    next: u32,
}

/// Hashes a line address with one folded 64×64→128-bit multiply, the
/// scheme of `das_cache::fast_hash`, so the low bits the map indexes by
/// depend on every address bit. It has no seed, which is safe here: the
/// tag index is only probed, inserted into and removed from, never
/// iterated, and its keys are line addresses the simulator generates.
#[derive(Debug, Default, Clone, Copy)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        let p = u128::from(self.0 ^ i) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One private L1's tag store: exact LRU in O(1) per operation. Nodes
/// live in a slab (`nodes`, recycled through `free`) and form a doubly
/// linked recency list from `head` (most recently used) to `tail` (the
/// eviction victim); `slot` maps a line address to its node through a
/// [`LineHasher`].
#[derive(Debug)]
struct LruTags {
    nodes: Vec<Node>,
    free: Vec<u32>,
    slot: HashMap<u64, u32, BuildHasherDefault<LineHasher>>,
    head: u32,
    tail: u32,
}

impl LruTags {
    fn with_capacity(lines: usize) -> LruTags {
        LruTags {
            nodes: Vec::with_capacity(lines),
            free: Vec::new(),
            slot: HashMap::with_capacity_and_hasher(lines, Default::default()),
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.slot.len()
    }

    /// Node index of `line`, if resident.
    fn find(&self, line: u64) -> Option<u32> {
        self.slot.get(&line).copied()
    }

    fn get(&self, line: u64) -> Option<CohState> {
        self.find(line).map(|i| self.state(i))
    }

    fn state(&self, i: u32) -> CohState {
        self.nodes[i as usize].state
    }

    /// Sets node `i`'s state without changing its recency (a snoop).
    fn set_state(&mut self, i: u32, state: CohState) {
        self.nodes[i as usize].state = state;
    }

    /// Sets node `i`'s state and makes it the most recently used (a hit).
    fn touch(&mut self, i: u32, state: CohState) {
        self.set_state(i, state);
        if self.head != i {
            self.unlink(i);
            self.link_mru(i);
        }
    }

    /// Inserts a non-resident line as the most recently used.
    fn insert_mru(&mut self, line: u64, state: CohState) {
        let node = Node {
            line,
            state,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        let prior = self.slot.insert(line, i);
        debug_assert!(prior.is_none(), "line {line:#x} already resident");
        self.link_mru(i);
    }

    /// Drops node `i` from the cache.
    fn remove(&mut self, i: u32) {
        self.unlink(i);
        self.slot.remove(&self.nodes[i as usize].line);
        self.free.push(i);
    }

    /// Evicts the least recently used line.
    fn pop_lru(&mut self) -> Option<(u64, CohState)> {
        let i = self.tail;
        if i == NIL {
            return None;
        }
        let Node { line, state, .. } = self.nodes[i as usize];
        self.remove(i);
        Some((line, state))
    }

    /// Drops every dirty line, appending its address to `out`.
    fn drain_dirty(&mut self, out: &mut Vec<u64>) {
        let mut i = self.head;
        while i != NIL {
            let Node {
                line, state, next, ..
            } = self.nodes[i as usize];
            if state.is_dirty() {
                out.push(line);
                self.remove(i);
            }
            i = next;
        }
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_mru(&mut self, i: u32) {
        let node = &mut self.nodes[i as usize];
        node.prev = NIL;
        node.next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h as usize].prev = i,
        }
        self.head = i;
    }
}

/// N private L1s + snooping bus + protocol.
pub struct CoherentCluster {
    protocol: ProtocolKind,
    cfg: ClusterConfig,
    /// Per-core tag store.
    l1: Vec<LruTags>,
    bus: SnoopBus,
    stats: CoherenceStats,
}

impl CoherentCluster {
    pub fn new(kind: ProtocolKind, cfg: ClusterConfig) -> CoherentCluster {
        assert!(cfg.cores >= 1, "cluster needs at least one core");
        assert!(
            (1..NIL as usize).contains(&cfg.l1_lines),
            "private caches need at least one line and fewer than 2^32 - 1"
        );
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        CoherentCluster {
            protocol: kind,
            l1: (0..cfg.cores)
                .map(|_| LruTags::with_capacity(cfg.l1_lines))
                .collect(),
            cfg,
            bus: SnoopBus::new(),
            stats: CoherenceStats::default(),
        }
    }

    pub fn protocol_kind(&self) -> ProtocolKind {
        self.protocol
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    pub fn note_shared_promotion(&mut self) {
        self.stats.shared_promotions += 1;
    }

    /// State of `core`'s copy of the line holding `addr`, if any.
    pub fn probe(&self, core: usize, addr: u64) -> Option<CohState> {
        self.l1[core].get(addr & !(self.cfg.line_bytes - 1))
    }

    /// Does any core other than `core` hold a valid copy of `line`?
    fn others_hold(&self, core: usize, line: u64) -> bool {
        self.l1
            .iter()
            .enumerate()
            .any(|(c, tags)| c != core && tags.get(line).is_some_and(|s| s != CohState::I))
    }

    /// Broadcast `tx` from `core`: snoop every valid peer holder in
    /// ascending core order, apply the protocol's next states, and record
    /// invalidations / interventions / write-backs.
    fn snoop_peers(
        &mut self,
        core: usize,
        line: u64,
        tx: BusTx,
        writebacks: &mut Vec<u64>,
    ) -> bool {
        let mut supplied = false;
        for c in 0..self.cfg.cores {
            if c == core {
                continue;
            }
            let Some(i) = self.l1[c].find(line) else {
                continue;
            };
            let state = self.l1[c].state(i);
            if state == CohState::I {
                continue;
            }
            let out = self.protocol.on_snoop(state, tx);
            if out.supply && !supplied {
                // Lowest-index holder wins the supply race.
                supplied = true;
                self.stats.interventions += 1;
            }
            if out.writeback {
                writebacks.push(line);
                self.stats.writeback_flushes += 1;
            }
            if out.next == CohState::I {
                self.l1[c].remove(i);
                self.stats.invalidations += 1;
            } else {
                self.l1[c].set_state(i, out.next);
            }
        }
        supplied
    }

    /// Insert `line` into `core`'s L1, evicting the LRU entry if full.
    /// Dirty victims are flushed below.
    fn fill(&mut self, core: usize, line: u64, state: CohState, writebacks: &mut Vec<u64>) {
        let tags = &mut self.l1[core];
        if tags.len() >= self.cfg.l1_lines {
            let (victim, victim_state) = tags.pop_lru().expect("full cache has a victim");
            if victim_state.is_dirty() {
                writebacks.push(victim);
                self.stats.writeback_flushes += 1;
            }
        }
        tags.insert_mru(line, state);
    }

    /// One core access at `now` (core cycles). See [`AccessOutcome`].
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> AccessOutcome {
        assert!(core < self.cfg.cores, "core index out of range");
        let line = addr & !(self.cfg.line_bytes - 1);
        let mut writebacks = Vec::new();

        let held = self.l1[core].find(line);
        let valid = held
            .map(|i| (i, self.l1[core].state(i)))
            .filter(|&(_, s)| s != CohState::I);
        if let Some((i, state)) = valid {
            // ---- hit ----------------------------------------------------
            self.stats.l1_hits += 1;
            let others = self.others_hold(core, line);
            let out = self.protocol.on_hit(state, is_write, others);
            let mut done = now + self.cfg.hit_cycles;
            if let Some(tx) = out.bus {
                self.stats.count_tx(tx);
                let data = if tx == BusTx::BusUpd {
                    UPD_WORD_CYCLES
                } else {
                    0
                };
                let (_, bus_done) = self.bus.acquire(now, data);
                self.snoop_peers(core, line, tx, &mut writebacks);
                done = done.max(bus_done);
            }
            self.l1[core].touch(i, out.next);
            self.sync_bus_stats();
            return AccessOutcome {
                cycles: done - now,
                fetch_below: false,
                writebacks,
                shared: others,
            };
        }

        // ---- miss -------------------------------------------------------
        self.stats.l1_misses += 1;
        if let Some(i) = held {
            // Stale Invalid tag: drop it before refilling.
            self.l1[core].remove(i);
        }
        let others = self.others_hold(core, line);
        let out = self.protocol.on_miss(is_write, others);
        self.stats.count_tx(out.tx);
        // Any valid holder supplies under both protocols, so the data phase
        // is a cache-to-cache transfer exactly when peers hold the line.
        let data = if others { C2C_TRANSFER_CYCLES } else { 0 };
        let (_, mut done) = self.bus.acquire(now, data);
        let supplied = self.snoop_peers(core, line, out.tx, &mut writebacks);
        debug_assert_eq!(supplied, others);
        if let Some(tx2) = out.extra_tx {
            // Dragon write miss: the fetched line is updated on the bus in a
            // second transaction so surviving sharers absorb the word.
            self.stats.count_tx(tx2);
            let (_, upd_done) = self.bus.acquire(done, UPD_WORD_CYCLES);
            self.snoop_peers(core, line, tx2, &mut writebacks);
            done = upd_done;
        }
        self.fill(core, line, out.next, &mut writebacks);
        self.sync_bus_stats();
        AccessOutcome {
            cycles: (done - now) + self.cfg.hit_cycles,
            fetch_below: !supplied,
            writebacks,
            shared: others,
        }
    }

    /// Flush every dirty line out of the cluster (end-of-run drain).
    /// Returns the flushed line addresses in ascending order.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut lines: Vec<u64> = Vec::new();
        for tags in &mut self.l1 {
            tags.drain_dirty(&mut lines);
        }
        lines.sort_unstable();
        self.stats.writeback_flushes += lines.len() as u64;
        lines
    }

    fn sync_bus_stats(&mut self) {
        self.stats.bus_wait_cycles = self.bus.wait_cycles;
        self.stats.bus_busy_cycles = self.bus.busy_cycles;
    }
}

/// The stamp-scan tag store this module used before [`LruTags`], kept
/// with the cluster logic around it as the differential-test oracle: each
/// L1 maps line → (state, globally unique last-use stamp) and a fill
/// evicts the minimum stamp after scanning the whole cache.
#[cfg(test)]
mod stamp_oracle {
    use super::*;

    pub struct StampCluster {
        protocol: ProtocolKind,
        cfg: ClusterConfig,
        l1: Vec<HashMap<u64, (CohState, u64)>>,
        use_counter: u64,
        bus: SnoopBus,
        pub stats: CoherenceStats,
    }

    impl StampCluster {
        pub fn new(kind: ProtocolKind, cfg: ClusterConfig) -> StampCluster {
            StampCluster {
                protocol: kind,
                l1: vec![HashMap::new(); cfg.cores],
                cfg,
                use_counter: 0,
                bus: SnoopBus::new(),
                stats: CoherenceStats::default(),
            }
        }

        pub fn probe(&self, core: usize, addr: u64) -> Option<CohState> {
            self.l1[core]
                .get(&(addr & !(self.cfg.line_bytes - 1)))
                .map(|&(s, _)| s)
        }

        fn others_hold(&self, core: usize, line: u64) -> bool {
            self.l1.iter().enumerate().any(|(c, tags)| {
                c != core && tags.get(&line).is_some_and(|&(s, _)| s != CohState::I)
            })
        }

        fn snoop_peers(
            &mut self,
            core: usize,
            line: u64,
            tx: BusTx,
            writebacks: &mut Vec<u64>,
        ) -> bool {
            let mut supplied = false;
            for c in 0..self.cfg.cores {
                if c == core {
                    continue;
                }
                let Some(&(state, stamp)) = self.l1[c].get(&line) else {
                    continue;
                };
                if state == CohState::I {
                    continue;
                }
                let out = self.protocol.on_snoop(state, tx);
                if out.supply && !supplied {
                    supplied = true;
                    self.stats.interventions += 1;
                }
                if out.writeback {
                    writebacks.push(line);
                    self.stats.writeback_flushes += 1;
                }
                if out.next == CohState::I {
                    self.l1[c].remove(&line);
                    self.stats.invalidations += 1;
                } else {
                    self.l1[c].insert(line, (out.next, stamp));
                }
            }
            supplied
        }

        fn fill(&mut self, core: usize, line: u64, state: CohState, writebacks: &mut Vec<u64>) {
            let stamp = self.use_counter;
            let tags = &mut self.l1[core];
            if tags.len() >= self.cfg.l1_lines && !tags.contains_key(&line) {
                let victim = tags
                    .iter()
                    .min_by_key(|(_, &(_, used))| used)
                    .map(|(&l, &(s, _))| (l, s))
                    .expect("full cache has a victim");
                tags.remove(&victim.0);
                if victim.1.is_dirty() {
                    writebacks.push(victim.0);
                    self.stats.writeback_flushes += 1;
                }
            }
            tags.insert(line, (state, stamp));
        }

        /// One access, stamp-scan style; see [`CoherentCluster::access`].
        pub fn access(
            &mut self,
            core: usize,
            addr: u64,
            is_write: bool,
            now: u64,
        ) -> AccessOutcome {
            self.use_counter += 1;
            let line = addr & !(self.cfg.line_bytes - 1);
            let mut writebacks = Vec::new();

            let held = self.l1[core].get(&line).copied();
            if let Some((state, _)) = held.filter(|&(s, _)| s != CohState::I) {
                self.stats.l1_hits += 1;
                let others = self.others_hold(core, line);
                let out = self.protocol.on_hit(state, is_write, others);
                let mut done = now + self.cfg.hit_cycles;
                if let Some(tx) = out.bus {
                    self.stats.count_tx(tx);
                    let data = if tx == BusTx::BusUpd {
                        UPD_WORD_CYCLES
                    } else {
                        0
                    };
                    let (_, bus_done) = self.bus.acquire(now, data);
                    self.snoop_peers(core, line, tx, &mut writebacks);
                    done = done.max(bus_done);
                }
                self.l1[core].insert(line, (out.next, self.use_counter));
                self.sync_bus_stats();
                return AccessOutcome {
                    cycles: done - now,
                    fetch_below: false,
                    writebacks,
                    shared: others,
                };
            }

            self.stats.l1_misses += 1;
            if held.is_some() {
                self.l1[core].remove(&line);
            }
            let others = self.others_hold(core, line);
            let out = self.protocol.on_miss(is_write, others);
            self.stats.count_tx(out.tx);
            let data = if others { C2C_TRANSFER_CYCLES } else { 0 };
            let (_, mut done) = self.bus.acquire(now, data);
            let supplied = self.snoop_peers(core, line, out.tx, &mut writebacks);
            if let Some(tx2) = out.extra_tx {
                self.stats.count_tx(tx2);
                let (_, upd_done) = self.bus.acquire(done, UPD_WORD_CYCLES);
                self.snoop_peers(core, line, tx2, &mut writebacks);
                done = upd_done;
            }
            self.fill(core, line, out.next, &mut writebacks);
            self.sync_bus_stats();
            AccessOutcome {
                cycles: (done - now) + self.cfg.hit_cycles,
                fetch_below: !supplied,
                writebacks,
                shared: others,
            }
        }

        pub fn drain_dirty(&mut self) -> Vec<u64> {
            let mut lines: Vec<u64> = Vec::new();
            for tags in &mut self.l1 {
                tags.retain(|&line, &mut (state, _)| {
                    if state.is_dirty() {
                        lines.push(line);
                        false
                    } else {
                        true
                    }
                });
            }
            lines.sort_unstable();
            self.stats.writeback_flushes += lines.len() as u64;
            lines
        }

        fn sync_bus_stats(&mut self) {
            self.stats.bus_wait_cycles = self.bus.wait_cycles;
            self.stats.bus_busy_cycles = self.bus.busy_cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(kind: ProtocolKind, cores: usize) -> CoherentCluster {
        CoherentCluster::new(
            kind,
            ClusterConfig {
                cores,
                l1_lines: 4,
                line_bytes: 64,
                hit_cycles: 2,
            },
        )
    }

    #[test]
    fn sharing_induced_accesses_are_counted_per_line() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        // Core 0 alone: nothing is sharing-induced.
        assert!(!cl.access(0, 0x100, false, 0).shared);
        // Core 1 misses on the line core 0 holds: sharing-induced.
        assert!(cl.access(1, 0x100, false, 10).shared);
        // Core 0 hits its own copy while core 1 also holds it.
        assert!(
            cl.access(0, 0x120, false, 20).shared,
            "same line, offset addr"
        );
        // A private line on another core never counts.
        assert!(!cl.access(1, 0x2000, false, 30).shared);
    }

    #[test]
    fn mesi_read_then_peer_read_shares_the_line() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        let a = cl.access(0, 0x100, false, 0);
        assert!(a.fetch_below, "first touch misses to memory");
        assert_eq!(cl.probe(0, 0x100), Some(CohState::E));

        let b = cl.access(1, 0x100, false, 100);
        assert!(!b.fetch_below, "peer supplies cache-to-cache");
        assert_eq!(cl.probe(0, 0x100), Some(CohState::S));
        assert_eq!(cl.probe(1, 0x100), Some(CohState::S));
        assert_eq!(cl.stats().interventions, 1);
        assert_eq!(cl.stats().invalidations, 0);
    }

    #[test]
    fn mesi_write_invalidates_sharers() {
        let mut cl = cluster(ProtocolKind::Mesi, 3);
        cl.access(0, 0x100, false, 0);
        cl.access(1, 0x100, false, 100);
        cl.access(2, 0x100, false, 200);
        // Core 0 writes its shared copy: BusUpgr kills the other two.
        let w = cl.access(0, 0x100, true, 300);
        assert!(!w.fetch_below);
        assert_eq!(cl.probe(0, 0x100), Some(CohState::M));
        assert_eq!(cl.probe(1, 0x100), None);
        assert_eq!(cl.probe(2, 0x100), None);
        assert_eq!(cl.stats().bus_upgr, 1);
        assert_eq!(cl.stats().invalidations, 2);
    }

    #[test]
    fn mesi_dirty_supplier_writes_back_on_peer_read() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        cl.access(0, 0x100, true, 0); // miss-write → M
        assert_eq!(cl.probe(0, 0x100), Some(CohState::M));
        let r = cl.access(1, 0x100, false, 100);
        assert!(!r.fetch_below);
        assert_eq!(r.writebacks, vec![0x100], "M holder flushes on demotion");
        assert_eq!(cl.probe(0, 0x100), Some(CohState::S));
        assert_eq!(cl.stats().writeback_flushes, 1);
    }

    #[test]
    fn dragon_shared_write_updates_instead_of_invalidating() {
        let mut cl = cluster(ProtocolKind::Dragon, 2);
        cl.access(0, 0x100, false, 0);
        cl.access(1, 0x100, false, 100);
        // Core 0 writes: BusUpd, peer keeps its (updated) copy.
        let w = cl.access(0, 0x100, true, 200);
        assert!(!w.fetch_below);
        assert_eq!(cl.probe(0, 0x100), Some(CohState::Sm));
        assert_eq!(cl.probe(1, 0x100), Some(CohState::Sc));
        assert_eq!(cl.stats().bus_upd, 1);
        assert_eq!(cl.stats().invalidations, 0);
    }

    #[test]
    fn dragon_owner_supplies_without_writeback() {
        let mut cl = cluster(ProtocolKind::Dragon, 3);
        cl.access(0, 0x100, false, 0);
        cl.access(1, 0x100, false, 10);
        cl.access(0, 0x100, true, 20); // Sm owner
        let r = cl.access(2, 0x100, false, 30);
        assert!(!r.fetch_below);
        assert!(
            r.writebacks.is_empty(),
            "Sm keeps ownership, memory stays stale"
        );
        assert_eq!(cl.probe(0, 0x100), Some(CohState::Sm));
        assert_eq!(cl.probe(2, 0x100), Some(CohState::Sc));
    }

    #[test]
    fn lru_eviction_is_deterministic_and_flushes_dirty_victims() {
        let mut cl = cluster(ProtocolKind::Mesi, 1);
        cl.access(0, 0x000, true, 0); // M — the LRU victim
        cl.access(0, 0x040, false, 1);
        cl.access(0, 0x080, false, 2);
        cl.access(0, 0x0c0, false, 3);
        let out = cl.access(0, 0x100, false, 4); // capacity 4: evicts 0x000
        assert_eq!(out.writebacks, vec![0x000]);
        assert_eq!(cl.probe(0, 0x000), None);
        assert_eq!(cl.probe(0, 0x040), Some(CohState::E));
    }

    #[test]
    fn drain_flushes_all_dirty_lines_in_order() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        cl.access(0, 0x200, true, 0);
        cl.access(1, 0x100, true, 10);
        cl.access(0, 0x300, false, 20);
        assert_eq!(cl.drain_dirty(), vec![0x100, 0x200]);
        assert_eq!(cl.drain_dirty(), Vec::<u64>::new());
    }

    #[test]
    fn bus_contention_is_visible_in_stats() {
        let mut cl = cluster(ProtocolKind::Mesi, 2);
        cl.access(0, 0x100, false, 0);
        // The peer read arrives while the first transaction still holds the
        // bus, so FCFS arbitration makes it wait.
        cl.access(1, 0x100, false, 0);
        let s = cl.stats();
        assert!(s.bus_busy_cycles > 0);
        assert!(s.bus_wait_cycles > 0);
        assert_eq!(s.bus_transactions(), 2);
    }

    /// Seeded xorshift64* (the crate is dependency-free).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn lru_list_matches_the_stamp_scan_oracle() {
        use stamp_oracle::StampCluster;
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let (mut evicting_cases, mut invalidations, mut flushes) = (0, 0, 0);
        for case in 0..200 {
            let kind = if case % 2 == 0 {
                ProtocolKind::Mesi
            } else {
                ProtocolKind::Dragon
            };
            let cfg = ClusterConfig {
                cores: 1 + rng.below(8) as usize,
                l1_lines: 1 + rng.below(8) as usize,
                line_bytes: 64,
                hit_cycles: 2,
            };
            // A line pool a little larger than one L1 keeps evictions,
            // dirty-victim flushes and invalidations frequent.
            let pool = cfg.l1_lines as u64 + 1 + rng.below(2 * cfg.l1_lines as u64);
            let write_pct = rng.below(101);
            let mut lru = CoherentCluster::new(kind, cfg);
            let mut oracle = StampCluster::new(kind, cfg);
            let mut now = 0;
            for step in 0..300 {
                let core = rng.below(cfg.cores as u64) as usize;
                let addr = rng.below(pool) * 64 + rng.below(64);
                let is_write = rng.below(100) < write_pct;
                now += rng.below(40);
                let got = lru.access(core, addr, is_write, now);
                let want = oracle.access(core, addr, is_write, now);
                let ctx = format!("case {case} step {step} {kind:?} {cfg:?}");
                assert_eq!(got, want, "{ctx}");
                assert_eq!(lru.stats(), &oracle.stats, "{ctx}");
                for c in 0..cfg.cores {
                    for l in 0..pool {
                        assert_eq!(lru.probe(c, l * 64), oracle.probe(c, l * 64), "{ctx}");
                    }
                }
            }
            let s = lru.stats();
            evicting_cases += usize::from(s.l1_misses > (cfg.cores * cfg.l1_lines) as u64);
            invalidations += s.invalidations;
            flushes += s.writeback_flushes;
            assert_eq!(lru.drain_dirty(), oracle.drain_dirty(), "case {case}");
            assert_eq!(lru.stats(), &oracle.stats, "case {case}");
        }
        assert!(evicting_cases > 150, "only {evicting_cases} cases evicted");
        assert!(invalidations > 0 && flushes > 0);
    }
}
