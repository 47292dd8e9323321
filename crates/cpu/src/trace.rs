//! Memory-reference trace items.
//!
//! A workload is a stream of memory references, each annotated with the
//! number of non-memory instructions preceding it and whether it depends on
//! the previous reference (pointer-chasing serialisation).

/// A per-core reference stream, as a simulation wires it to each core:
/// a synthetic generator, a parsed text trace or a stored-trace reader.
pub type TraceSource = Box<dyn Iterator<Item = TraceItem> + Send>;

/// One memory reference in an instruction trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceItem {
    /// Non-memory instructions executed before this reference.
    pub gap: u32,
    /// Byte address referenced.
    pub addr: u64,
    /// `true` for a store, `false` for a load.
    pub is_write: bool,
    /// If `true`, this reference cannot issue until the previous reference
    /// of the same trace completes (address-dependent chain, e.g. linked
    /// list traversal). Loads in such chains expose no memory-level
    /// parallelism.
    pub depends_on_prev: bool,
}

impl TraceItem {
    /// A simple independent load after `gap` compute instructions.
    pub fn load(gap: u32, addr: u64) -> Self {
        TraceItem {
            gap,
            addr,
            is_write: false,
            depends_on_prev: false,
        }
    }

    /// A store after `gap` compute instructions.
    pub fn store(gap: u32, addr: u64) -> Self {
        TraceItem {
            gap,
            addr,
            is_write: true,
            depends_on_prev: false,
        }
    }

    /// A load that depends on the previous reference.
    pub fn dependent_load(gap: u32, addr: u64) -> Self {
        TraceItem {
            gap,
            addr,
            is_write: false,
            depends_on_prev: true,
        }
    }

    /// Total instructions this item represents (the reference itself plus
    /// its preceding compute gap).
    pub fn insts(&self) -> u64 {
        self.gap as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let l = TraceItem::load(3, 0x40);
        assert!(!l.is_write && !l.depends_on_prev && l.insts() == 4);
        let s = TraceItem::store(0, 0x80);
        assert!(s.is_write && s.insts() == 1);
        let d = TraceItem::dependent_load(1, 0xc0);
        assert!(d.depends_on_prev && !d.is_write);
    }
}
