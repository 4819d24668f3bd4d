//! Argument marshalling for remote invocations and tokens.
//!
//! EARTH passes function arguments and transferred data as raw bytes
//! through the network — argument size is what the cost model charges for.
//! `ArgsWriter`/`ArgsReader` are deliberately dumb little-endian codecs so
//! that the simulated message sizes are honest: a 28-byte Eigenvalue task
//! descriptor really occupies 28 bytes on the simulated wire.

use crate::addr::{FrameId, GlobalAddr, SlotId, SlotRef, ThreadId};
use crate::payload::Payload;
use earth_machine::NodeId;

/// Builds an argument byte string.
#[derive(Default, Clone, Debug)]
pub struct ArgsWriter {
    buf: Vec<u8>,
}

impl ArgsWriter {
    /// An empty argument list.
    pub fn new() -> Self {
        ArgsWriter::default()
    }

    /// Append an unsigned 8-bit value.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append an unsigned 16-bit value.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an unsigned 32-bit value.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an unsigned 64-bit value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a signed 32-bit value.
    pub fn i32(&mut self, v: i32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a signed 64-bit value.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a 64-bit float.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a 32-bit float.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a node id (2 bytes).
    pub fn node(&mut self, v: NodeId) -> &mut Self {
        self.u16(v.0)
    }

    /// Append a global address (6 bytes).
    pub fn addr(&mut self, v: GlobalAddr) -> &mut Self {
        self.node(v.node).u32(v.offset)
    }

    /// Append a sync-slot reference (11 bytes).
    pub fn slot(&mut self, v: SlotRef) -> &mut Self {
        self.node(v.node)
            .u32(v.frame.index)
            .u32(v.frame.gen)
            .u8(v.slot.0)
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append raw bytes without a length prefix.
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Current encoded size in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and take the encoded bytes as a shareable [`Payload`]
    /// (one copy, exactly like the old `into_boxed_slice`; empty
    /// argument lists hit the interned empty payload and don't
    /// allocate).
    pub fn finish(self) -> Payload {
        Payload::from(self.buf)
    }
}

/// Reads an argument byte string in the order it was written.
pub struct ArgsReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ArgsReader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        ArgsReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Read an unsigned 8-bit value.
    pub fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Read an unsigned 16-bit value.
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().unwrap())
    }

    /// Read an unsigned 32-bit value.
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Read an unsigned 64-bit value.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read a signed 32-bit value.
    pub fn i32(&mut self) -> i32 {
        i32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Read a signed 64-bit value.
    pub fn i64(&mut self) -> i64 {
        i64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read a 64-bit float.
    pub fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read a 32-bit float.
    pub fn f32(&mut self) -> f32 {
        f32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Read a node id.
    pub fn node(&mut self) -> NodeId {
        NodeId(self.u16())
    }

    /// Read a global address.
    pub fn addr(&mut self) -> GlobalAddr {
        GlobalAddr {
            node: self.node(),
            offset: self.u32(),
        }
    }

    /// Read a sync-slot reference.
    pub fn slot(&mut self) -> SlotRef {
        SlotRef {
            node: self.node(),
            frame: FrameId {
                index: self.u32(),
                gen: self.u32(),
            },
            slot: SlotId(self.u8()),
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> &'a [u8] {
        let n = self.u32() as usize;
        self.take(n)
    }

    /// Every byte not yet consumed, as one borrowed slice; the reader is
    /// left at the end.
    pub fn rest(&mut self) -> &'a [u8] {
        self.take(self.remaining())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Thread-id constant helpers mirroring Threaded-C's `THREAD_n` labels.
pub const THREAD_0: ThreadId = ThreadId(0);
/// `THREAD_1`.
pub const THREAD_1: ThreadId = ThreadId(1);
/// `THREAD_2`.
pub const THREAD_2: ThreadId = ThreadId(2);
/// `THREAD_3`.
pub const THREAD_3: ThreadId = ThreadId(3);
/// `THREAD_4`.
pub const THREAD_4: ThreadId = ThreadId(4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = ArgsWriter::new();
        w.u8(7).u16(300).u32(70_000).u64(1 << 40);
        w.i32(-5).i64(-6).f64(2.5).f32(1.5);
        let b = w.finish();
        let mut r = ArgsReader::new(&b);
        assert_eq!(r.u8(), 7);
        assert_eq!(r.u16(), 300);
        assert_eq!(r.u32(), 70_000);
        assert_eq!(r.u64(), 1 << 40);
        assert_eq!(r.i32(), -5);
        assert_eq!(r.i64(), -6);
        assert_eq!(r.f64(), 2.5);
        assert_eq!(r.f32(), 1.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_refs() {
        let slot = SlotRef {
            node: NodeId(9),
            frame: FrameId { index: 4, gen: 17 },
            slot: SlotId(2),
        };
        let addr = GlobalAddr::new(NodeId(1), 0xABCD);
        let mut w = ArgsWriter::new();
        w.slot(slot).addr(addr).bytes(b"hello");
        let b = w.finish();
        let mut r = ArgsReader::new(&b);
        assert_eq!(r.slot(), slot);
        assert_eq!(r.addr(), addr);
        assert_eq!(r.bytes(), b"hello");
    }

    #[test]
    fn rest_takes_the_unprefixed_tail() {
        let mut w = ArgsWriter::new();
        w.u8(3).u32(9).raw(&[5, 6, 7, 8]);
        let b = w.finish();
        let mut r = ArgsReader::new(&b);
        assert_eq!((r.u8(), r.u32()), (3, 9));
        assert_eq!(r.rest(), &[5, 6, 7, 8]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.rest(), &[] as &[u8]);
    }

    #[test]
    fn eigen_descriptor_is_28_bytes() {
        // Table 1: "3 integers and 2 doubles (4*3+8*2 = 28 bytes)".
        let mut w = ArgsWriter::new();
        w.i32(1).i32(2).i32(3).f64(0.5).f64(1.5);
        assert_eq!(w.len(), 28);
    }

    #[test]
    fn raw_has_no_prefix() {
        let mut w = ArgsWriter::new();
        w.raw(&[1, 2, 3]);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
    }
}
