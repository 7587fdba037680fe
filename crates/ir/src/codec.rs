//! The canonical byte codec: content addresses, the disk artifact cache's
//! format and the server's wire format.
//!
//! The artifact store (`bsg-runtime`) keys compiled programs, profiles and
//! synthesis results by a structural hash of their source.  Hashing a
//! `Debug` rendering — the original scheme — is not injective: every `f64`
//! NaN payload renders as the three characters `NaN`, so two sources that
//! differ only in NaN bits share one rendering (and therefore one cache
//! entry, silently serving the wrong artifact).  [`Canon`] instead emits an
//! explicit, self-delimiting byte encoding:
//!
//! * every enum variant writes a **discriminant byte** before its fields;
//! * every variable-length collection (strings, vectors, maps) writes its
//!   **length as a little-endian `u64` prefix** before its elements
//!   (fixed-size arrays write none: the length is part of the type);
//! * scalars write their fixed-width little-endian bytes; floats write
//!   `to_bits()`, so every NaN payload, signed zero and subnormal is
//!   distinct.
//!
//! Two values of the same type produce the same byte stream iff they are
//! structurally equal, so a 128-bit hash of the stream is a sound content
//! address (up to hash collisions).  Because the stream is self-delimiting
//! it is also a complete serialization: the disk tier persists artifacts as
//! their canonical bytes and [`Decanon`] decodes them.
//!
//! Decoders are **total**: any byte stream either decodes to a value or
//! returns `None` — never a panic, never an out-of-bounds read, never an
//! unbounded allocation.  A truncated or bit-flipped cache file must degrade
//! to a rebuild, not take the harness down, so:
//!
//! * every read is bounds-checked against the remaining input;
//! * length prefixes are *not* trusted for pre-allocation (a corrupt length
//!   of `u64::MAX` reserves nothing; the element loop simply runs out of
//!   bytes and fails);
//! * unknown enum discriminants and invalid scalar encodings (`bool` bytes
//!   other than 0/1, non-UTF-8 strings) decode to `None`.
//!
//! **One declaration per type.**  A composite type states its layout once,
//! with [`codec_layout!`](crate::codec_layout): its field order, or its
//! variants and their tags.  Both traits are generated from that statement,
//! so the encoder and decoder cannot drift apart.  Only leaf types are
//! written by hand, each pair side by side: scalars, strings, collections,
//! the id newtypes, and the few types whose decode is not the mirror of
//! their encode ([`InstClass`] here, `BsgError` in `bsg-runtime`).
//!
//! The round-trip law, checked by the tests at the bottom and by the store's
//! own verification: for every `T: Canon + Decanon`,
//! `decanon(canon(x)) == Some(x)` and the decode consumes exactly the bytes
//! the encode produced.

use crate::hll::{Expr, HllFunction, HllGlobal, HllProgram, LValue, Stmt};
use crate::program::{Block, Function, Global, GlobalInit, Program};
use crate::types::{BlockId, FuncId, GlobalId, Reg, Ty, Value};
use crate::visa::{
    Address, BinOp, Inst, InstClass, MemBase, Operand, OperandKind, Terminator, UnOp,
};
use std::collections::{BTreeMap, BTreeSet};

/// Byte sink for the canonical encoding (implemented by hashers).
pub trait CanonWrite {
    /// Consumes the next chunk of the canonical byte stream.
    fn write(&mut self, bytes: &[u8]);
}

/// A `Vec<u8>` sink, convenient for tests and debugging.
impl CanonWrite for Vec<u8> {
    fn write(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Types with a canonical, injective byte encoding (see the module docs).
pub trait Canon {
    /// Writes `self`'s canonical bytes to `w`.
    fn canon(&self, w: &mut dyn CanonWrite);
}

/// Bounded cursor over a canonical byte stream.
pub struct CanonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> CanonReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        CanonReader { bytes, pos: 0 }
    }

    /// `true` once every input byte has been consumed (decoders for
    /// top-level artifacts require this, so trailing garbage is corruption).
    fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The next `n` bytes, or `None` past the end of input.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(chunk)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N).map(|b| b.try_into().expect("exact length"))
    }

    /// One discriminant / scalar byte.
    pub fn byte(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    /// A little-endian length prefix.  The value is returned untrusted; use
    /// it only to bound a loop that itself reads (and therefore bounds-
    /// checks) each element.
    fn length_prefix(&mut self) -> Option<u64> {
        self.array::<8>().map(u64::from_le_bytes)
    }
}

/// Types decodable from their canonical byte encoding (see the module docs).
pub trait Decanon: Sized {
    /// Decodes one value, advancing the reader; `None` on any malformation.
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self>;
}

/// Encodes `value` to its canonical bytes.
pub fn to_canon_bytes<T: Canon + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.canon(&mut out);
    out
}

/// Decodes a value from a complete canonical byte stream, requiring every
/// input byte to be consumed (trailing garbage is treated as corruption).
pub fn from_canon_bytes<T: Decanon>(bytes: &[u8]) -> Option<T> {
    let mut r = CanonReader::new(bytes);
    let value = T::decanon(&mut r)?;
    r.is_exhausted().then_some(value)
}

/// 64-bit FNV-1a: the integrity checksum over canonical bytes in the disk
/// artifact cache's entries and the server's wire frames.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Declares a type's canonical layout once and derives both [`Canon`] and
/// [`Decanon`] from it.
///
/// * `struct T { a, b, c }` — the named fields, in encoding order.
/// * `enum T { 0 => Unit, 1 => Tuple(a, b), 2 => Struct { x, y } }` — each
///   variant with its one-byte tag, then its fields in the order listed
///   (tuple fields get binding names; struct fields use their own).
///
/// The generated decoder reads fields in the declared order and maps any
/// tag not listed to `None`; every read goes through [`CanonReader`], so it
/// stays total.  Tags are explicit so that reordering a type's variants
/// never changes its bytes.  A field or variant left out of the layout is
/// a compile error: the decoder builds the whole struct literal, and the
/// encoder's match must be exhaustive.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Line(u32, u32),
///     Box { w: u32, h: u32 },
/// }
/// bsg_ir::codec_layout!(enum Shape {
///     0 => Dot,
///     1 => Line(from, to),
///     2 => Box { w, h },
/// });
///
/// let bytes = bsg_ir::codec::to_canon_bytes(&Shape::Line(1, 2));
/// assert_eq!(bytes[0], 1);
/// assert_eq!(bsg_ir::codec::from_canon_bytes(&bytes), Some(Shape::Line(1, 2)));
/// assert_eq!(bsg_ir::codec::from_canon_bytes::<Shape>(&[3]), None);
/// ```
#[macro_export]
macro_rules! codec_layout {
    (struct $t:ident {
        $($field:ident),* $(,)?
    }) => {
        impl $crate::codec::Canon for $t {
            fn canon(&self, w: &mut dyn $crate::codec::CanonWrite) {
                $($crate::codec::Canon::canon(&self.$field, w);)*
            }
        }

        impl $crate::codec::Decanon for $t {
            fn decanon(r: &mut $crate::codec::CanonReader<'_>) -> Option<Self> {
                Some($t {
                    $($field: $crate::codec::Decanon::decanon(r)?,)*
                })
            }
        }
    };
    (enum $t:ident {
        $($tag:literal => $variant:ident
            $(($($tuple:ident),*))?
            $({$($named:ident),*})?
        ),* $(,)?
    }) => {
        impl $crate::codec::Canon for $t {
            fn canon(&self, w: &mut dyn $crate::codec::CanonWrite) {
                match self {
                    $($t::$variant $(($($tuple),*))? $({$($named),*})? => {
                        w.write(&[$tag]);
                        $($($crate::codec::Canon::canon($tuple, w);)*)?
                        $($($crate::codec::Canon::canon($named, w);)*)?
                    })*
                }
            }
        }

        impl $crate::codec::Decanon for $t {
            fn decanon(r: &mut $crate::codec::CanonReader<'_>) -> Option<Self> {
                Some(match r.byte()? {
                    $($tag => {
                        $($(let $tuple = $crate::codec::Decanon::decanon(r)?;)*)?
                        $($(let $named = $crate::codec::Decanon::decanon(r)?;)*)?
                        $t::$variant $(($($tuple),*))? $({$($named),*})?
                    })*
                    _ => return None,
                })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Hand-written leaf pairs.  Each encode sits beside its decode.
// ---------------------------------------------------------------------------

/// Writes a length prefix (little-endian `u64`).
fn put_len(w: &mut dyn CanonWrite, len: usize) {
    w.write(&(len as u64).to_le_bytes());
}

// Integers: fixed-width little-endian bytes.
macro_rules! impl_le {
    ($($t:ty),*) => {$(
        impl Canon for $t {
            fn canon(&self, w: &mut dyn CanonWrite) {
                w.write(&self.to_le_bytes());
            }
        }

        impl Decanon for $t {
            fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
                r.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

impl_le!(u8, u16, u32, u64, i8, i16, i32, i64);

// `usize` travels as `u64`, so the bytes do not depend on the platform.
impl Canon for usize {
    fn canon(&self, w: &mut dyn CanonWrite) {
        (*self as u64).canon(w);
    }
}

impl Decanon for usize {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        usize::try_from(u64::decanon(r)?).ok()
    }
}

// `bool` is one byte, and only 0 and 1 decode.
impl Canon for bool {
    fn canon(&self, w: &mut dyn CanonWrite) {
        w.write(&[u8::from(*self)]);
    }
}

impl Decanon for bool {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

// `f64` travels as its bits: every NaN payload and -0.0 stay distinct, the
// injectivity holes of the `Debug` rendering.
impl Canon for f64 {
    fn canon(&self, w: &mut dyn CanonWrite) {
        self.to_bits().canon(w);
    }
}

impl Decanon for f64 {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        u64::decanon(r).map(f64::from_bits)
    }
}

// Strings are length-prefixed UTF-8; invalid UTF-8 does not decode.
impl Canon for str {
    fn canon(&self, w: &mut dyn CanonWrite) {
        put_len(w, self.len());
        w.write(self.as_bytes());
    }
}

impl Canon for String {
    fn canon(&self, w: &mut dyn CanonWrite) {
        self.as_str().canon(w);
    }
}

impl Decanon for String {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let len = usize::try_from(r.length_prefix()?).ok()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

// `Option` is a two-variant enum: tag 0 for `None`, tag 1 then the value.
impl<T: Canon> Canon for Option<T> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        match self {
            None => w.write(&[0]),
            Some(v) => {
                w.write(&[1]);
                v.canon(w);
            }
        }
    }
}

impl<T: Decanon> Decanon for Option<T> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(None),
            1 => T::decanon(r).map(Some),
            _ => None,
        }
    }
}

// Slices and vectors are length-prefixed; the prefix is never trusted for
// allocation.
impl<T: Canon> Canon for [T] {
    fn canon(&self, w: &mut dyn CanonWrite) {
        put_len(w, self.len());
        for v in self {
            v.canon(w);
        }
    }
}

impl<T: Canon> Canon for Vec<T> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        self.as_slice().canon(w);
    }
}

impl<T: Decanon> Decanon for Vec<T> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let len = r.length_prefix()?;
        // Don't trust the prefix for allocation: a corrupt length fails in
        // the element loop when the input runs dry, having reserved at most
        // one read's worth of memory per element actually present.
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(T::decanon(r)?);
        }
        Some(out)
    }
}

// Fixed-size arrays carry no prefix: the length is part of the type.
impl<T: Canon, const N: usize> Canon for [T; N] {
    fn canon(&self, w: &mut dyn CanonWrite) {
        for v in self {
            v.canon(w);
        }
    }
}

impl<T: Decanon, const N: usize> Decanon for [T; N] {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decanon(r)?);
        }
        out.try_into().ok()
    }
}

// References and boxes are transparent (references only encode: they key
// lookups without cloning).
impl<T: Canon + ?Sized> Canon for &T {
    fn canon(&self, w: &mut dyn CanonWrite) {
        (**self).canon(w);
    }
}

impl<T: Canon> Canon for Box<T> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        (**self).canon(w);
    }
}

impl<T: Decanon> Decanon for Box<T> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        T::decanon(r).map(Box::new)
    }
}

// Tuples are their fields in order, with no tag.
macro_rules! impl_tuple {
    ($($name:ident $index:tt),+) => {
        impl<$($name: Canon),+> Canon for ($($name,)+) {
            fn canon(&self, w: &mut dyn CanonWrite) {
                $(self.$index.canon(w);)+
            }
        }

        impl<$($name: Decanon),+> Decanon for ($($name,)+) {
            fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
                Some(($($name::decanon(r)?,)+))
            }
        }
    };
}

impl_tuple!(A 0, B 1);
impl_tuple!(A 0, B 1, C 2);
impl_tuple!(A 0, B 1, C 2, D 3);

// Maps and sets are length-prefixed and written in ascending key order; a
// duplicate key on decode would silently collapse, so it is corruption.
impl<K: Canon, V: Canon> Canon for BTreeMap<K, V> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        put_len(w, self.len());
        for (k, v) in self {
            k.canon(w);
            v.canon(w);
        }
    }
}

impl<K: Decanon + Ord, V: Decanon> Decanon for BTreeMap<K, V> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let len = r.length_prefix()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decanon(r)?;
            let v = V::decanon(r)?;
            if out.insert(k, v).is_some() {
                return None;
            }
        }
        Some(out)
    }
}

impl<T: Canon> Canon for BTreeSet<T> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        put_len(w, self.len());
        for v in self {
            v.canon(w);
        }
    }
}

impl<T: Decanon + Ord> Decanon for BTreeSet<T> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let len = r.length_prefix()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            if !out.insert(T::decanon(r)?) {
                return None;
            }
        }
        Some(out)
    }
}

// The id newtypes are their `u32`.
macro_rules! impl_id {
    ($($t:ident),*) => {$(
        impl Canon for $t {
            fn canon(&self, w: &mut dyn CanonWrite) {
                self.0.canon(w);
            }
        }

        impl Decanon for $t {
            fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
                u32::decanon(r).map($t)
            }
        }
    )*};
}

impl_id!(Reg, BlockId, FuncId, GlobalId);

// `InstClass` is its index into `InstClass::ALL`, which is also its decode
// table (the enum has too many variants to list twice).
impl Canon for InstClass {
    fn canon(&self, w: &mut dyn CanonWrite) {
        w.write(&[self.index() as u8]);
    }
}

impl Decanon for InstClass {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        InstClass::ALL.get(r.byte()? as usize).copied()
    }
}

// ---------------------------------------------------------------------------
// IR layouts.
// ---------------------------------------------------------------------------

crate::codec_layout!(enum Ty {
    0 => Int,
    1 => Float,
});

crate::codec_layout!(enum Value {
    0 => Int(v),
    1 => Float(v),
});

crate::codec_layout!(enum BinOp {
    0 => Add,
    1 => Sub,
    2 => Mul,
    3 => Div,
    4 => Rem,
    5 => And,
    6 => Or,
    7 => Xor,
    8 => Shl,
    9 => Shr,
    10 => Lt,
    11 => Le,
    12 => Gt,
    13 => Ge,
    14 => Eq,
    15 => Ne,
});

crate::codec_layout!(enum UnOp {
    0 => Neg,
    1 => Not,
    2 => LogicalNot,
    3 => ToFloat,
    4 => ToInt,
    5 => Sqrt,
    6 => Sin,
    7 => Cos,
    8 => Log,
    9 => Abs,
});

crate::codec_layout!(enum OperandKind {
    0 => Register,
    1 => Constant,
    2 => Memory,
});

crate::codec_layout!(enum Expr {
    0 => Int(v),
    1 => Float(v),
    2 => Var(name),
    3 => Index(name, index),
    4 => Bin(op, lhs, rhs),
    5 => Un(op, operand),
    6 => Call(name, args),
});

crate::codec_layout!(enum LValue {
    0 => Var(name),
    1 => Index(name, index),
});

crate::codec_layout!(enum Stmt {
    0 => Assign { target, value },
    1 => If { cond, then_branch, else_branch },
    2 => While { cond, body },
    3 => For { var, init, limit, step, body },
    4 => Call { name, args, dst },
    5 => Return(value),
    6 => Print(value),
    7 => Break,
    8 => Continue,
});

crate::codec_layout!(struct HllGlobal {
    name,
    elems,
    ty,
    init,
    iota,
});

crate::codec_layout!(struct HllFunction {
    name,
    params,
    float_vars,
    body,
});

crate::codec_layout!(struct HllProgram {
    globals,
    functions,
    entry,
});

crate::codec_layout!(enum MemBase {
    0 => Global(id),
    1 => Frame,
});

crate::codec_layout!(struct Address {
    base,
    offset,
    index,
    scale,
});

crate::codec_layout!(enum Operand {
    0 => Reg(reg),
    1 => ImmInt(v),
    2 => ImmFloat(v),
    3 => Mem(addr),
});

crate::codec_layout!(enum Inst {
    0 => Bin { op, ty, dst, lhs, rhs },
    1 => Un { op, ty, dst, src },
    2 => Mov { dst, src },
    3 => Load { dst, addr, ty },
    4 => Store { src, addr, ty },
    5 => Call { func, args, dst },
    6 => Print { src },
    7 => Nop,
});

crate::codec_layout!(enum Terminator {
    0 => Jump(target),
    1 => Branch { cond, taken, not_taken },
    2 => Return(value),
});

crate::codec_layout!(enum GlobalInit {
    0 => Zero,
    1 => Iota,
    2 => Values(values),
    3 => Random { seed, modulus },
});

crate::codec_layout!(struct Global {
    name,
    elems,
    ty,
    init,
});

crate::codec_layout!(struct Block {
    insts,
    term,
});

crate::codec_layout!(struct Function {
    name,
    blocks,
    entry,
    num_regs,
    params,
    frame_words,
});

crate::codec_layout!(struct Program {
    functions,
    globals,
    entry,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FunctionBuilder;

    fn roundtrip<T: Canon + Decanon + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_canon_bytes(value);
        let back: T = from_canon_bytes(&bytes).expect("decodes");
        assert_eq!(&back, value);
        assert_eq!(to_canon_bytes(&back), bytes, "re-encode is stable");
    }

    fn sample_hll() -> HllProgram {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::with_values("tbl", vec![1, 2, 3]));
        p.add_global(HllGlobal::float_zeroed("fs", 8));
        let mut f = FunctionBuilder::new("main");
        f.float_var("x");
        f.assign_var("x", Expr::float(-0.0));
        f.for_loop("i", Expr::int(0), Expr::int(10), |b| {
            b.assign_index(
                "tbl",
                Expr::var("i"),
                Expr::add(Expr::var("i"), Expr::int(7)),
            );
            b.if_then(Expr::lt(Expr::var("i"), Expr::int(5)), |t| {
                t.assign_var("s", Expr::add(Expr::var("s"), Expr::var("i")));
            });
        });
        f.print(Expr::var("s"));
        f.ret(Some(Expr::var("s")));
        p.add_function(f.finish());
        p
    }

    #[test]
    fn fnv64_matches_the_standard_fnv1a_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hll_programs_roundtrip() {
        roundtrip(&sample_hll());
    }

    #[test]
    fn visa_programs_roundtrip() {
        let compiled_shape = {
            let mut p = Program::new();
            let g = p.add_global(Global::zeroed("data", 64));
            let mut f = Function::new("main");
            let a = f.fresh_reg();
            let b = f.fresh_reg();
            let body = f.add_block();
            f.blocks[0].insts = vec![
                Inst::Mov {
                    dst: a,
                    src: Operand::ImmInt(0),
                },
                Inst::Un {
                    op: UnOp::ToFloat,
                    ty: Ty::Float,
                    dst: b,
                    src: a.into(),
                },
            ];
            f.blocks[0].term = Terminator::Jump(body);
            f.blocks[body.index()].insts = vec![
                Inst::Load {
                    dst: a,
                    addr: Address::global_indexed(g, 4, b, 2),
                    ty: Ty::Int,
                },
                Inst::Store {
                    src: Operand::ImmFloat(f64::NAN),
                    addr: Address::frame(3),
                    ty: Ty::Float,
                },
                Inst::Call {
                    func: FuncId(0),
                    args: vec![a.into(), Operand::ImmInt(-7)],
                    dst: Some(b),
                },
                Inst::Print { src: a.into() },
                Inst::Nop,
            ];
            f.blocks[body.index()].term = Terminator::Branch {
                cond: a,
                taken: BlockId(0),
                not_taken: body,
            };
            p.add_function(f);
            p
        };
        // NaN != NaN under PartialEq, so compare canonical bytes instead.
        let bytes = to_canon_bytes(&compiled_shape);
        let back: Program = from_canon_bytes(&bytes).expect("decodes");
        assert_eq!(to_canon_bytes(&back), bytes);
    }

    #[test]
    fn truncated_and_garbage_inputs_decode_to_none() {
        let bytes = to_canon_bytes(&sample_hll());
        for cut in [0, 1, 7, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_canon_bytes::<HllProgram>(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
        let mut garbage = bytes.clone();
        garbage.push(0);
        assert!(
            from_canon_bytes::<HllProgram>(&garbage).is_none(),
            "trailing bytes are corruption"
        );
        assert!(from_canon_bytes::<Stmt>(&[9]).is_none(), "bad discriminant");
        assert!(from_canon_bytes::<bool>(&[2]).is_none(), "bad bool");
    }

    #[test]
    fn corrupt_length_prefixes_do_not_allocate_unboundedly() {
        // A Vec claiming u64::MAX elements must fail fast when the input
        // runs dry, not reserve memory up front.
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(from_canon_bytes::<Vec<u64>>(&bytes).is_none());
    }

    #[test]
    fn scalar_edge_cases_roundtrip() {
        roundtrip(&i64::MIN);
        roundtrip(&u64::MAX);
        roundtrip(&Value::Float(-0.0));
        roundtrip(&String::from("päper"));
        roundtrip(&Some(vec![(1u32, String::from("x"))]));
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let bytes = to_canon_bytes(&nan);
        let back: f64 = from_canon_bytes(&bytes).expect("decodes");
        assert_eq!(back.to_bits(), nan.to_bits(), "NaN payload preserved");
    }

    #[test]
    fn scalars_are_fixed_width_and_strings_length_prefixed() {
        assert_eq!(to_canon_bytes(&1u64).len(), 8);
        assert_eq!(to_canon_bytes(&(-1i64)).len(), 8);
        assert_eq!(to_canon_bytes(&1.5f64).len(), 8);
        assert_eq!(to_canon_bytes("ab").len(), 8 + 2);
        assert_ne!(to_canon_bytes("ab"), to_canon_bytes("ba"));
    }

    #[test]
    fn nan_payloads_are_distinct() {
        let a = f64::from_bits(0x7ff8_0000_0000_0000);
        let b = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "Debug collides");
        assert_ne!(
            to_canon_bytes(&a),
            to_canon_bytes(&b),
            "canonical encoding must not"
        );
    }

    #[test]
    fn adjacent_strings_do_not_merge() {
        // Without length prefixes, ("ab", "c") and ("a", "bc") would emit
        // identical byte streams.
        let x = (String::from("ab"), String::from("c"));
        let y = (String::from("a"), String::from("bc"));
        assert_ne!(to_canon_bytes(&x), to_canon_bytes(&y));
    }

    #[test]
    fn enum_variants_are_discriminated() {
        assert_ne!(
            to_canon_bytes(&Expr::Int(0)),
            to_canon_bytes(&Expr::Float(0.0))
        );
        assert_ne!(
            to_canon_bytes(&Value::Int(0)),
            to_canon_bytes(&Value::Float(0.0))
        );
        assert_ne!(
            to_canon_bytes(&Stmt::Break),
            to_canon_bytes(&Stmt::Continue)
        );
    }

    #[test]
    fn programs_encode_structurally() {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::zeroed("g", 4));
        let mut f = HllFunction::new("main");
        f.body.push(Stmt::Return(Some(Expr::int(1))));
        p.add_function(f);
        assert_eq!(to_canon_bytes(&p), to_canon_bytes(&p.clone()));
        let mut q = p.clone();
        q.functions[0].body[0] = Stmt::Return(Some(Expr::int(2)));
        assert_ne!(to_canon_bytes(&p), to_canon_bytes(&q));
    }
}
