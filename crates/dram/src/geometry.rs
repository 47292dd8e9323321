//! DRAM organization: channels, ranks, banks, subarrays, rows and the
//! physical-address → device-coordinate mapping.
//!
//! The asymmetric organization follows §4.3 of the paper: each bank mixes
//! *fast* subarrays (128-cell bitlines) with conventional *slow* subarrays
//! (512-cell bitlines), laid out in one of the three arrangements of Fig. 5
//! (partitioning / interleaving / reduced interleaving). The logical row
//! space of a bank is the union of both kinds; management (in `das-core`)
//! permutes logical rows across the fast and slow *slots* of a migration
//! group.

use core::fmt;

/// Whether a subarray uses short (fast) or conventional (slow) bitlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubarrayKind {
    /// Short-bitline subarray (128 cells/bitline): low tRCD/tRC.
    Fast,
    /// Conventional subarray (512 cells/bitline): baseline timings.
    Slow,
}

impl fmt::Display for SubarrayKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubarrayKind::Fast => write!(f, "fast"),
            SubarrayKind::Slow => write!(f, "slow"),
        }
    }
}

/// Physical placement of fast subarrays within a bank (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arrangement {
    /// All fast subarrays at one end of the bank. Unbounded ratio but long
    /// average migration paths.
    Partitioning,
    /// Strict fast/slow alternation. Locks the ratio near 1:1.
    Interleaving,
    /// The paper's choice: small runs of fast subarrays interleaved among
    /// slow ones, bounding the migration hop distance while allowing a
    /// small fast fraction.
    #[default]
    ReducedInterleaving,
}

/// Coordinates of one bank in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankCoord {
    /// Channel index.
    pub channel: u8,
    /// Rank within the channel.
    pub rank: u8,
    /// Bank within the rank.
    pub bank: u8,
}

impl BankCoord {
    /// Creates a bank coordinate.
    pub const fn new(channel: u8, rank: u8, bank: u8) -> Self {
        BankCoord {
            channel,
            rank,
            bank,
        }
    }
}

impl fmt::Display for BankCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}r{}b{}", self.channel, self.rank, self.bank)
    }
}

/// A decoded memory request target: bank coordinates plus the *logical* row
/// within the bank and the column (cache line within the row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemCoord {
    /// The bank holding the row.
    pub bank: BankCoord,
    /// Logical (pre-translation) row index within the bank.
    pub row: u32,
    /// Cache-line index within the row.
    pub col: u32,
}

/// Globally unique identifier for a logical row: `(channel, rank, bank, row)`
/// packed into a `u64`. Used as the key for translation structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalRowId(pub u64);

impl fmt::Display for GlobalRowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

/// Exact rational fast-level capacity share (e.g. 1/8 of total capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FastRatio {
    num: u32,
    den: u32,
}

impl FastRatio {
    /// The paper's default fast-level share: 1/8 of total capacity.
    pub const PAPER_DEFAULT: FastRatio = FastRatio { num: 1, den: 8 };

    /// Creates a ratio `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, `num == 0`, or `num > den`.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(
            den > 0 && num > 0 && num <= den,
            "invalid fast ratio {num}/{den}"
        );
        FastRatio { num, den }
    }

    /// Numerator.
    pub fn num(self) -> u32 {
        self.num
    }

    /// Denominator.
    pub fn den(self) -> u32 {
        self.den
    }

    /// Applies the ratio to a count.
    ///
    /// # Panics
    ///
    /// Panics if `total * num` is not divisible by `den`; geometries are
    /// chosen so that fast-row counts are exact.
    pub fn apply(self, total: u32) -> u32 {
        let scaled = total as u64 * self.num as u64;
        assert!(
            scaled.is_multiple_of(self.den as u64),
            "{total} rows not divisible into ratio {self}"
        );
        (scaled / self.den as u64) as u32
    }

    /// The ratio as an `f64` fraction.
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl fmt::Display for FastRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

/// One subarray inside a bank: a contiguous run of physical rows sharing
/// bitlines (and, with its neighbours, half row buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subarray {
    /// Fast (short-bitline) or slow (conventional).
    pub kind: SubarrayKind,
    /// First physical row of the subarray.
    pub phys_start: u32,
    /// Number of rows in the subarray.
    pub rows: u32,
}

/// Physical layout of one bank: the ordered list of subarrays and the
/// fast/slow row index spaces.
///
/// Physical rows are numbered `0..rows_per_bank` in layout order. The *fast
/// space* indexes all rows of fast subarrays (in layout order) and the
/// *slow space* all rows of slow subarrays. Management addresses migration
/// targets through these two spaces.
#[derive(Debug, Clone)]
pub struct BankLayout {
    subarrays: Vec<Subarray>,
    fast_rows: u32,
    slow_rows: u32,
    /// For each subarray, the starting index of its rows within its kind's
    /// index space.
    kind_space_start: Vec<u32>,
}

impl BankLayout {
    /// Builds the layout for a bank of `rows_per_bank` rows with the given
    /// fast share and arrangement.
    ///
    /// Fast subarrays hold `fast_subarray_rows` rows, slow ones
    /// `slow_subarray_rows` (128/512 in the paper). Subarrays at the tail
    /// may be partial so that any exact ratio can be realised.
    ///
    /// # Panics
    ///
    /// Panics if the ratio does not divide `rows_per_bank` exactly.
    pub fn build(
        rows_per_bank: u32,
        ratio: FastRatio,
        arrangement: Arrangement,
        fast_subarray_rows: u32,
        slow_subarray_rows: u32,
    ) -> Self {
        let fast_rows = ratio.apply(rows_per_bank);
        let slow_rows = rows_per_bank - fast_rows;
        let mut subarrays = Vec::new();
        let push_run = |subarrays: &mut Vec<Subarray>, kind, mut rows: u32, unit: u32| {
            while rows > 0 {
                let take = rows.min(unit);
                subarrays.push(Subarray {
                    kind,
                    phys_start: 0,
                    rows: take,
                });
                rows -= take;
            }
        };
        match arrangement {
            Arrangement::Partitioning => {
                push_run(
                    &mut subarrays,
                    SubarrayKind::Fast,
                    fast_rows,
                    fast_subarray_rows,
                );
                push_run(
                    &mut subarrays,
                    SubarrayKind::Slow,
                    slow_rows,
                    slow_subarray_rows,
                );
            }
            Arrangement::Interleaving => {
                // Strict alternation of single fast and slow subarrays; the
                // longer side's remainder trails at the end.
                let mut fast_left = fast_rows;
                let mut slow_left = slow_rows;
                while fast_left > 0 && slow_left > 0 {
                    let f = fast_left.min(fast_subarray_rows);
                    push_run(&mut subarrays, SubarrayKind::Fast, f, fast_subarray_rows);
                    fast_left -= f;
                    let s = slow_left.min(slow_subarray_rows);
                    push_run(&mut subarrays, SubarrayKind::Slow, s, slow_subarray_rows);
                    slow_left -= s;
                }
                push_run(
                    &mut subarrays,
                    SubarrayKind::Fast,
                    fast_left,
                    fast_subarray_rows,
                );
                push_run(
                    &mut subarrays,
                    SubarrayKind::Slow,
                    slow_left,
                    slow_subarray_rows,
                );
            }
            Arrangement::ReducedInterleaving => {
                // Each fast subarray is followed by a proportional run of
                // slow rows, spreading the fast level evenly through the
                // bank and bounding the migration hop distance (paper §4.3).
                let fast_runs = fast_rows.div_ceil(fast_subarray_rows).max(1);
                let mut fast_left = fast_rows;
                let mut slow_left = slow_rows;
                for run in 0..fast_runs {
                    let f = fast_left.min(fast_subarray_rows);
                    push_run(&mut subarrays, SubarrayKind::Fast, f, fast_subarray_rows);
                    fast_left -= f;
                    let runs_after = (fast_runs - run - 1) as u64;
                    let s = if runs_after == 0 {
                        slow_left
                    } else {
                        (slow_left as u64 / (runs_after + 1)) as u32
                    };
                    push_run(&mut subarrays, SubarrayKind::Slow, s, slow_subarray_rows);
                    slow_left -= s;
                }
                push_run(
                    &mut subarrays,
                    SubarrayKind::Slow,
                    slow_left,
                    slow_subarray_rows,
                );
            }
        }
        // Assign physical start offsets and kind-space starts.
        let mut phys = 0u32;
        let mut fast_seen = 0u32;
        let mut slow_seen = 0u32;
        let mut kind_space_start = Vec::with_capacity(subarrays.len());
        for sa in &mut subarrays {
            sa.phys_start = phys;
            phys += sa.rows;
            match sa.kind {
                SubarrayKind::Fast => {
                    kind_space_start.push(fast_seen);
                    fast_seen += sa.rows;
                }
                SubarrayKind::Slow => {
                    kind_space_start.push(slow_seen);
                    slow_seen += sa.rows;
                }
            }
        }
        debug_assert_eq!(phys, rows_per_bank);
        debug_assert_eq!(fast_seen, fast_rows);
        debug_assert_eq!(slow_seen, slow_rows);
        BankLayout {
            subarrays,
            fast_rows,
            slow_rows,
            kind_space_start,
        }
    }

    /// Number of rows in fast subarrays.
    pub fn fast_rows(&self) -> u32 {
        self.fast_rows
    }

    /// Number of rows in slow subarrays.
    pub fn slow_rows(&self) -> u32 {
        self.slow_rows
    }

    /// Total rows in the bank.
    pub fn total_rows(&self) -> u32 {
        self.fast_rows + self.slow_rows
    }

    /// The subarrays in physical order.
    pub fn subarrays(&self) -> &[Subarray] {
        &self.subarrays
    }

    /// Physical row of the `i`-th row of the fast space.
    ///
    /// # Panics
    ///
    /// Panics if `i >= fast_rows()`.
    pub fn fast_to_phys(&self, i: u32) -> u32 {
        assert!(i < self.fast_rows, "fast row {i} out of range");
        self.kind_to_phys(SubarrayKind::Fast, i)
    }

    /// Physical row of the `i`-th row of the slow space.
    ///
    /// # Panics
    ///
    /// Panics if `i >= slow_rows()`.
    pub fn slow_to_phys(&self, i: u32) -> u32 {
        assert!(i < self.slow_rows, "slow row {i} out of range");
        self.kind_to_phys(SubarrayKind::Slow, i)
    }

    fn kind_to_phys(&self, kind: SubarrayKind, i: u32) -> u32 {
        // Subarrays of one kind appear in increasing kind-space order, so a
        // linear scan grouped by kind finds the right one; banks have few
        // subarrays (≤ tens), and callers cache results, so this is cheap.
        for (sa, &start) in self.subarrays.iter().zip(&self.kind_space_start) {
            if sa.kind == kind && i >= start && i < start + sa.rows {
                return sa.phys_start + (i - start);
            }
        }
        unreachable!("kind-space index {i} not found")
    }

    /// The subarray index and kind of a physical row.
    ///
    /// # Panics
    ///
    /// Panics if `phys_row` is out of range.
    pub fn classify(&self, phys_row: u32) -> (usize, SubarrayKind) {
        let idx = self
            .subarrays
            .partition_point(|sa| sa.phys_start + sa.rows <= phys_row);
        let sa = self
            .subarrays
            .get(idx)
            .unwrap_or_else(|| panic!("physical row {phys_row} out of range"));
        (idx, sa.kind)
    }

    /// The kind (fast/slow) of a physical row.
    pub fn row_kind(&self, phys_row: u32) -> SubarrayKind {
        self.classify(phys_row).1
    }

    /// Number of subarray boundaries a migrating row crosses between two
    /// physical rows — the migration hop distance of §4.3.
    pub fn migration_hops(&self, phys_a: u32, phys_b: u32) -> u32 {
        let (ia, _) = self.classify(phys_a);
        let (ib, _) = self.classify(phys_b);
        (ia as i64 - ib as i64).unsigned_abs() as u32
    }

    /// Mean migration hop distance between fast and slow rows, used by the
    /// arrangement ablation.
    pub fn mean_fast_slow_hops(&self) -> f64 {
        let mut total = 0u64;
        let mut n = 0u64;
        for (ia, a) in self.subarrays.iter().enumerate() {
            if a.kind != SubarrayKind::Fast {
                continue;
            }
            for (ib, b) in self.subarrays.iter().enumerate() {
                if b.kind != SubarrayKind::Slow {
                    continue;
                }
                let hops = (ia as i64 - ib as i64).unsigned_abs();
                total += hops * (a.rows as u64) * (b.rows as u64);
                n += (a.rows as u64) * (b.rows as u64);
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }
}

/// Full system geometry and address mapping.
///
/// The default mapping places, from least- to most-significant address bits:
/// line offset, channel, column, bank, rank, row — maximising row-buffer
/// locality under the open-page policy of Table 1.
#[derive(Debug, Clone)]
pub struct DramGeometry {
    /// Number of memory channels.
    pub channels: u8,
    /// Ranks per channel.
    pub ranks_per_channel: u8,
    /// Banks per rank.
    pub banks_per_rank: u8,
    /// Rows per bank (logical == physical count; contents are permuted).
    pub rows_per_bank: u32,
    /// Bytes per row (the promotion/migration unit).
    pub row_bytes: u32,
    /// Bytes per cache line / column access.
    pub line_bytes: u32,
}

impl DramGeometry {
    /// The paper's Table 1 system: two 4 GB DDR3-1600 DIMMs, 2 channels,
    /// 2 ranks/channel, 8 banks/rank, 8 KB rows → 32768 rows/bank.
    pub fn paper_full() -> Self {
        DramGeometry {
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            rows_per_bank: 32768,
            row_bytes: 8192,
            line_bytes: 64,
        }
    }

    /// The paper geometry with every capacity divided by `factor`
    /// (rows per bank shrink; row and line sizes are preserved).
    ///
    /// # Panics
    ///
    /// Panics if `factor` does not divide the row count.
    pub fn paper_scaled(factor: u32) -> Self {
        let mut g = Self::paper_full();
        assert!(factor > 0 && g.rows_per_bank.is_multiple_of(factor));
        g.rows_per_bank /= factor;
        g
    }

    /// Total bytes of DRAM in the system.
    pub fn total_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks_per_channel as u64
            * self.banks_per_rank as u64
            * self.rows_per_bank as u64
            * self.row_bytes as u64
    }

    /// Total number of banks in the system.
    pub fn total_banks(&self) -> u32 {
        self.channels as u32 * self.ranks_per_channel as u32 * self.banks_per_rank as u32
    }

    /// Cache lines per row.
    pub fn lines_per_row(&self) -> u32 {
        self.row_bytes / self.line_bytes
    }

    /// Decodes a physical byte address into device coordinates.
    ///
    /// Bit order (low → high): line offset, column, channel, bank, rank,
    /// row. One row-sized block of contiguous addresses therefore maps to
    /// exactly **one** DRAM row (the migration unit), consecutive blocks
    /// rotate over channels and banks, and sequential lines within a block
    /// are row-buffer hits — the natural layout for an open-page policy.
    ///
    /// Addresses wrap modulo the total capacity, so synthetic traces may use
    /// any 64-bit address.
    pub fn decode(&self, addr: u64) -> MemCoord {
        let addr = addr % self.total_bytes();
        let mut a = addr / self.line_bytes as u64;
        let col = (a % self.lines_per_row() as u64) as u32;
        a /= self.lines_per_row() as u64;
        let channel = (a % self.channels as u64) as u8;
        a /= self.channels as u64;
        let bank = (a % self.banks_per_rank as u64) as u8;
        a /= self.banks_per_rank as u64;
        let rank = (a % self.ranks_per_channel as u64) as u8;
        a /= self.ranks_per_channel as u64;
        let row = (a % self.rows_per_bank as u64) as u32;
        MemCoord {
            bank: BankCoord {
                channel,
                rank,
                bank,
            },
            row,
            col,
        }
    }

    /// Re-encodes device coordinates into the canonical byte address of the
    /// first byte of the addressed line. Inverse of [`DramGeometry::decode`].
    pub fn encode(&self, coord: MemCoord) -> u64 {
        let mut a = coord.row as u64;
        a = a * self.ranks_per_channel as u64 + coord.bank.rank as u64;
        a = a * self.banks_per_rank as u64 + coord.bank.bank as u64;
        a = a * self.channels as u64 + coord.bank.channel as u64;
        a = a * self.lines_per_row() as u64 + coord.col as u64;
        a * self.line_bytes as u64
    }

    /// Packs bank coordinates and a logical row into a [`GlobalRowId`].
    pub fn global_row_id(&self, bank: BankCoord, row: u32) -> GlobalRowId {
        let mut id = bank.channel as u64;
        id = id * self.ranks_per_channel as u64 + bank.rank as u64;
        id = id * self.banks_per_rank as u64 + bank.bank as u64;
        id = id * self.rows_per_bank as u64 + row as u64;
        GlobalRowId(id)
    }

    /// Total number of logical rows in the system.
    pub fn total_rows(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank as u64
    }

    /// First byte of the translation table. The table keeps one byte per
    /// row in a region at the very top of DRAM, hidden from the OS, so
    /// this is also the byte size of the address space below it.
    pub fn table_base(&self) -> u64 {
        self.total_bytes() - self.total_rows()
    }

    /// Whole rows the translation table occupies. With the row-interleaved
    /// mapping they are the final rows of every bank.
    pub fn table_rows(&self) -> u64 {
        self.total_rows().div_ceil(self.row_bytes as u64)
    }

    /// Iterates over every bank coordinate in the system.
    pub fn banks(&self) -> impl Iterator<Item = BankCoord> + '_ {
        let (ch, rk, bk) = (self.channels, self.ranks_per_channel, self.banks_per_rank);
        (0..ch).flat_map(move |c| {
            (0..rk).flat_map(move |r| (0..bk).map(move |b| BankCoord::new(c, r, b)))
        })
    }

    /// Flat bank index in `0..total_banks()` for a coordinate.
    pub fn bank_index(&self, bank: BankCoord) -> usize {
        (bank.channel as usize * self.ranks_per_channel as usize + bank.rank as usize)
            * self.banks_per_rank as usize
            + bank.bank as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_full_capacity_is_8gb() {
        let g = DramGeometry::paper_full();
        assert_eq!(g.total_bytes(), 8 << 30);
        assert_eq!(g.total_banks(), 32);
        assert_eq!(g.lines_per_row(), 128);
        assert_eq!(g.total_rows(), 1 << 20);
        // One table byte per row: 1 MB at the top, 128 rows of 8 KB.
        assert_eq!(g.table_base(), (8 << 30) - (1 << 20));
        assert_eq!(g.table_rows(), 128);
    }

    #[test]
    fn scaled_capacity_divides() {
        let g = DramGeometry::paper_scaled(8);
        assert_eq!(g.total_bytes(), 1 << 30);
        assert_eq!(g.rows_per_bank, 4096);
    }

    #[test]
    fn decode_encode_roundtrip() {
        let g = DramGeometry::paper_scaled(8);
        for addr in [0u64, 64, 8192, 123 * 64, 0x3fff_ffc0, 0x1234_5678 & !63] {
            let c = g.decode(addr);
            assert_eq!(g.encode(c), addr % g.total_bytes(), "addr {addr:#x}");
        }
    }

    #[test]
    fn one_row_block_is_one_dram_row() {
        let g = DramGeometry::paper_full();
        let a = g.decode(0);
        let b = g.decode(64);
        let last = g.decode(g.row_bytes as u64 - 64);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(b.col, a.col + 1);
        assert_eq!(last.bank, a.bank);
        assert_eq!(last.col, g.lines_per_row() - 1);
    }

    #[test]
    fn consecutive_row_blocks_rotate_channels_then_banks() {
        let g = DramGeometry::paper_full();
        let row = g.row_bytes as u64;
        let a = g.decode(0);
        let b = g.decode(row);
        let c = g.decode(row * 2);
        assert_eq!(a.bank.channel, 0);
        assert_eq!(b.bank.channel, 1);
        assert_eq!(c.bank.channel, 0);
        assert_ne!(a.bank.bank, c.bank.bank, "third block moves to a new bank");
        assert_eq!(a.row, c.row);
    }

    #[test]
    fn global_row_ids_are_unique_and_dense() {
        let g = DramGeometry::paper_scaled(64);
        let mut seen = std::collections::HashSet::new();
        for bank in g.banks() {
            for row in 0..g.rows_per_bank {
                assert!(seen.insert(g.global_row_id(bank, row).0));
            }
        }
        assert_eq!(seen.len() as u64, g.total_rows());
        assert_eq!(*seen.iter().max().unwrap(), g.total_rows() - 1);
    }

    #[test]
    fn layout_reduced_interleaving_paper_ratio() {
        let l = BankLayout::build(
            32768,
            FastRatio::PAPER_DEFAULT,
            Arrangement::default(),
            128,
            512,
        );
        assert_eq!(l.fast_rows(), 4096);
        assert_eq!(l.slow_rows(), 28672);
        assert_eq!(l.total_rows(), 32768);
        // Fast subarrays are spread out, not all leading.
        let first_slow = l
            .subarrays()
            .iter()
            .position(|s| s.kind == SubarrayKind::Slow);
        let last_fast = l
            .subarrays()
            .iter()
            .rposition(|s| s.kind == SubarrayKind::Fast);
        assert!(first_slow.unwrap() < last_fast.unwrap());
    }

    #[test]
    fn layout_all_ratio_sweeps_build() {
        for den in [4u32, 8, 16, 32] {
            let l = BankLayout::build(
                4096,
                FastRatio::new(1, den),
                Arrangement::ReducedInterleaving,
                128,
                512,
            );
            assert_eq!(l.fast_rows(), 4096 / den);
            assert_eq!(l.total_rows(), 4096);
        }
    }

    #[test]
    fn kind_space_roundtrip() {
        let l = BankLayout::build(4096, FastRatio::new(1, 8), Arrangement::default(), 128, 512);
        for i in 0..l.fast_rows() {
            let p = l.fast_to_phys(i);
            assert_eq!(l.row_kind(p), SubarrayKind::Fast, "fast {i} -> phys {p}");
        }
        for i in 0..l.slow_rows() {
            let p = l.slow_to_phys(i);
            assert_eq!(l.row_kind(p), SubarrayKind::Slow, "slow {i} -> phys {p}");
        }
        // Bijection: every physical row is hit exactly once.
        let mut hit = vec![false; l.total_rows() as usize];
        for i in 0..l.fast_rows() {
            hit[l.fast_to_phys(i) as usize] = true;
        }
        for i in 0..l.slow_rows() {
            hit[l.slow_to_phys(i) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn partitioning_has_longer_paths_than_reduced_interleaving() {
        let part = BankLayout::build(
            4096,
            FastRatio::new(1, 8),
            Arrangement::Partitioning,
            128,
            512,
        );
        let ri = BankLayout::build(
            4096,
            FastRatio::new(1, 8),
            Arrangement::ReducedInterleaving,
            128,
            512,
        );
        assert!(part.mean_fast_slow_hops() > ri.mean_fast_slow_hops());
    }

    #[test]
    fn fast_ratio_validation() {
        assert_eq!(FastRatio::new(1, 8).apply(32), 4);
        assert_eq!(FastRatio::PAPER_DEFAULT.as_f64(), 0.125);
        assert_eq!(format!("{}", FastRatio::new(1, 4)), "1/4");
    }

    #[test]
    #[should_panic(expected = "invalid fast ratio")]
    fn fast_ratio_rejects_zero_denominator() {
        let _ = FastRatio::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn fast_ratio_rejects_inexact_split() {
        let _ = FastRatio::new(1, 3).apply(32);
    }
}
