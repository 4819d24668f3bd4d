//! Per-node local memory forming EARTH's global address space.
//!
//! Each MANNA node had 32 MB of local DRAM; EARTH exposes the union of all
//! node memories as one global address space addressed by (node, offset).
//! This module models one node's share: a flat byte array with a bump
//! allocator. Applications allocate regions (replicated matrices, weight
//! slices, mailboxes for split-phase transfers) and read/write them as
//! bytes.

/// One node's local memory.
pub struct Memory {
    data: Vec<u8>,
    brk: usize,
    limit: usize,
}

impl Memory {
    /// Memory with the given capacity limit (bytes). MANNA nodes had 32 MB.
    pub fn new(limit: usize) -> Self {
        Memory {
            data: Vec::new(),
            brk: 0,
            limit,
        }
    }

    /// Allocate `len` bytes aligned to 8, returning the byte offset.
    /// Panics if the node runs out of memory — on the real machine this
    /// would likewise be fatal.
    pub fn alloc(&mut self, len: u32) -> u32 {
        let aligned = (self.brk + 7) & !7;
        let end = aligned + len as usize;
        assert!(
            end <= self.limit,
            "node memory exhausted: {} + {} > {}",
            aligned,
            len,
            self.limit
        );
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
        self.brk = end;
        aligned as u32
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.brk
    }

    /// Read `len` bytes at `offset`.
    pub fn read(&self, offset: u32, len: u32) -> &[u8] {
        let (o, l) = (offset as usize, len as usize);
        assert!(o + l <= self.data.len(), "read past allocation");
        &self.data[o..o + l]
    }

    /// Write `bytes` at `offset`.
    pub fn write(&mut self, offset: u32, bytes: &[u8]) {
        let o = offset as usize;
        assert!(o + bytes.len() <= self.data.len(), "write past allocation");
        self.data[o..o + bytes.len()].copy_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_monotonic() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc(3);
        let b = m.alloc(5);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 3);
        assert!(m.used() >= 8 + 5);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc(16);
        m.write(a, &[1, 2, 3, 4]);
        assert_eq!(m.read(a, 4), &[1, 2, 3, 4]);
        m.write(a + 8, &3.25f64.to_le_bytes());
        assert_eq!(m.read(a + 8, 8), &3.25f64.to_le_bytes());
        m.write(a, &0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(m.read(a, 4), &0xDEAD_BEEFu32.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "memory exhausted")]
    fn limit_enforced() {
        let mut m = Memory::new(64);
        m.alloc(100);
    }

    #[test]
    #[should_panic(expected = "read past allocation")]
    fn oob_read_detected() {
        let mut m = Memory::new(1 << 10);
        let a = m.alloc(8);
        let _ = m.read(a, 64);
    }
}
