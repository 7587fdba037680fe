//! Pins the canonical byte format.
//!
//! The canonical codec (`bsg_ir::codec`) is the artifact store's disk
//! format and the server's wire format, and every `SourceId` content
//! address is a hash of it.  `PINNED` records the `SourceId` of registry
//! programs, their compiled forms, profiles, syntheses and every reply and
//! error shape, so any change to any type's byte layout fails here.  A
//! deliberate layout change must bump the disk `FORMAT_VERSION` or the
//! wire `PROTO_VERSION` and re-record the table: the failure message
//! prints the current table in paste-ready form.
//!
//! The same file checks that every codec'd type round-trips, that the
//! samples reach every enum tag, and that the first unused tag of each enum
//! decodes to `None`.  It names only `to_canon_bytes`, `from_canon_bytes`,
//! `CanonReader` and `Decanon`, so it compiles against any revision that
//! keeps those.

use bsg_bench::{suite, InputSize, Workload, SYNTH_TARGET_INSTRUCTIONS};
use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
use bsg_ir::codec::{from_canon_bytes, to_canon_bytes, CanonReader, Decanon};
use bsg_ir::hll::{Expr, HllGlobal, HllProgram, LValue, Stmt};
use bsg_ir::program::GlobalInit;
use bsg_ir::visa::OperandKind;
use bsg_ir::{
    Address, BinOp, BlockId, FuncId, GlobalId, Inst, MemBase, Operand, Program, Reg, Terminator,
    Ty, UnOp, Value,
};
use bsg_profile::{profile_program, ProfileConfig, StatisticalProfile};
use bsg_runtime::{BsgError, DiskStats, KindStats, SourceId, StoreStats};
use bsg_server::{Request, Response, ServerStats};
use bsg_synth::{synthesize_with_target, SynthesisConfig, TargetedSynthesis};
use bsg_uarch::cache::CacheConfig;
use std::fmt::Debug;

/// Kernels whose profile and synthesis are pinned (integer, pointer-heavy
/// and floating-point code).
const PROFILED: [&str; 3] = ["crc32", "qsort", "fft"];

fn compiled(hll: &HllProgram, options: CompileOptions) -> Program {
    compile(hll, &options)
        .expect("registry kernels compile")
        .program
}

/// The `-O0` profile and the targeted synthesis of `w`, built directly
/// (the artifact store, and so `BSG_ARTIFACT_DIR`, plays no part).
fn profile_and_synthesis(w: &Workload) -> (StatisticalProfile, TargetedSynthesis) {
    let program = compiled(&w.program, CompileOptions::portable(OptLevel::O0));
    let profile = profile_program(&program, &w.name, &ProfileConfig::default());
    let synthesis = synthesize_with_target(
        &profile,
        &SynthesisConfig::default(),
        SYNTH_TARGET_INSTRUCTIONS,
    );
    (profile, synthesis)
}

fn errors() -> Vec<BsgError> {
    vec![
        BsgError::TaskPanic {
            message: "boom".into(),
        },
        BsgError::BuildFailed {
            kind: "profile",
            key: "00ff".into(),
            message: "compile failed".into(),
        },
        BsgError::Io {
            op: "rename",
            path: "/cache/x.bsg".into(),
            message: "disk full".into(),
        },
        BsgError::DeadlineExceeded {
            elapsed_ms: 120,
            deadline_ms: 50,
        },
        BsgError::InvalidRequest {
            message: "undecodable payload".into(),
        },
        BsgError::Overloaded {
            queue_depth: 64,
            limit: 64,
        },
    ]
}

fn populated_server_stats() -> ServerStats {
    let kind = |n: u64| KindStats {
        hits: n,
        writes: n + 1,
        bytes_written: 1000 * n + 7,
    };
    ServerStats {
        workers: 8,
        requests_served: 41,
        batches: 5,
        protocol_errors: 2,
        queue_depth: 3,
        max_queue_depth: 17,
        shed_count: 6,
        preempted_count: 4,
        store: StoreStats {
            compiled_builds: 1,
            compiled_hits: 2,
            profile_builds: 3,
            profile_hits: 4,
            c_text_builds: 5,
            c_text_hits: 6,
            synthesis_builds: 7,
            synthesis_hits: 8,
            build_failures: 9,
            disk: DiskStats {
                hits: 10,
                misses: 11,
                writes: 12,
                corrupt: 13,
                evicted: 14,
                io_errors: 15,
                degraded: true,
                per_kind: [kind(1), kind(2), kind(3), kind(4)],
            },
        },
    }
}

fn responses(profile: &StatisticalProfile, synthesis: &TargetedSynthesis) -> Vec<Response> {
    vec![
        Response::Profile(profile.clone()),
        Response::Synthesis(synthesis.clone()),
        Response::Measure {
            dynamic_instructions: 12_345,
        },
        Response::Figure("Table I\n1 2 3\n".to_string()),
        Response::Stats(populated_server_stats()),
        Response::Shutdown,
    ]
}

fn requests(w: &Workload, profile: &StatisticalProfile) -> Vec<Request> {
    vec![
        Request::Profile {
            program: (*w.program).clone(),
            options: CompileOptions::portable(OptLevel::O1),
            name: w.name.clone(),
            config: ProfileConfig::default(),
        },
        Request::Synthesize {
            profile: profile.clone(),
            config: SynthesisConfig::default(),
            target_instructions: SYNTH_TARGET_INSTRUCTIONS,
        },
        Request::Measure {
            program: (*w.program).clone(),
            options: CompileOptions::new(OptLevel::O2, TargetIsa::X86_64),
        },
        Request::Figure {
            name: "fig04".to_string(),
        },
        Request::Stats,
        Request::Shutdown,
    ]
}

/// `(label, content address)` for every pinned value, in a stable order.
fn current_digests() -> Vec<(String, SourceId)> {
    let mut out = Vec::new();
    let kernels = suite(InputSize::Small);
    for w in &kernels {
        out.push((format!("hll {}", w.name), SourceId::of(w.program.as_ref())));
        for level in [OptLevel::O0, OptLevel::O2] {
            let program = compiled(&w.program, CompileOptions::new(level, TargetIsa::X86));
            out.push((format!("x86 {level:?} {}", w.name), SourceId::of(&program)));
        }
    }
    let mut first = None;
    for kernel in PROFILED {
        let w = kernels
            .iter()
            .find(|w| w.kernel == kernel)
            .expect("profiled kernel is in the small suite");
        let (profile, synthesis) = profile_and_synthesis(w);
        out.push((format!("profile {}", w.name), SourceId::of(&profile)));
        out.push((format!("synthesis {}", w.name), SourceId::of(&synthesis)));
        first.get_or_insert((w.clone(), profile, synthesis));
    }
    let (w, profile, synthesis) = first.expect("at least one profiled kernel");
    for (i, e) in errors().iter().enumerate() {
        out.push((format!("error {i}"), SourceId::of(e)));
    }
    for (i, r) in responses(&profile, &synthesis).iter().enumerate() {
        out.push((format!("response {i}"), SourceId::of(r)));
    }
    for r in requests(&w, &profile) {
        let label = format!("request kind {}", r.kind());
        out.push((label, SourceId::of(&(r.kind(), r.payload()))));
    }
    out.push((
        "server stats".to_string(),
        SourceId::of(&populated_server_stats()),
    ));
    out
}

/// `SourceId`s recorded before the codec was generated from one layout
/// declaration per type.
const PINNED: &[(&str, &str)] = &[
    ("hll adpcm/small", "aaf4607707e48b77e3a48d37414ff55f"),
    ("x86 O0 adpcm/small", "9ff55bb870f1ab359e0ba72e1f96afbb"),
    ("x86 O2 adpcm/small", "70f15c6ced1d0a45f4d27dacd80f2a41"),
    ("hll basicmath/small", "636cf37b10ddda4806c8b0849c1a62f1"),
    ("x86 O0 basicmath/small", "cafc2a138e73af5a11adca641bd95989"),
    ("x86 O2 basicmath/small", "5da0bca74250090ef01c85df26328e65"),
    ("hll bitcount/small", "6b10f06b3286de3eb7bc215a3b9f617d"),
    ("x86 O0 bitcount/small", "f3c47cd83fd62f0f83339f0cf6528d8f"),
    ("x86 O2 bitcount/small", "c2caf9a456bcb8b4c18420318c6b8bb8"),
    ("hll crc32/small", "922339689e28331f072b37c35b4fd4e9"),
    ("x86 O0 crc32/small", "ab95c646b336d28e7d4eba48033d2504"),
    ("x86 O2 crc32/small", "0da28c83a478a493e8bebdcad1e793e3"),
    ("hll dijkstra/small", "b9c2ef9b408a368511ea198358b7bdca"),
    ("x86 O0 dijkstra/small", "55db92663342cd710c9fd3d7c09be293"),
    ("x86 O2 dijkstra/small", "711fb576c6b311a53ca46442004d9418"),
    ("hll fft/small", "39d038af39d083f580c7986ee8948486"),
    ("x86 O0 fft/small", "6f212f56c3f384cb88ceed2ad58d8d24"),
    ("x86 O2 fft/small", "e6ae5b48241fc28db1f1db571a3f47f3"),
    ("hll gsm/small", "91ca697c0fd5af2db9fef2bf64c6d8b1"),
    ("x86 O0 gsm/small", "99421428f92c63afaaca59dc0d2b68b2"),
    ("x86 O2 gsm/small", "ad9b5bbf00312a05a8c966c06ecd288b"),
    ("hll jpeg/small", "22a5a9832578a85cceb8ccdbfa1e7e70"),
    ("x86 O0 jpeg/small", "4610876d83370cd4bcf1ca9d03ab42f7"),
    ("x86 O2 jpeg/small", "38dd1162baa7baf0a71a3d93107fc283"),
    ("hll patricia/small", "351f99838a9790cfe768d33c8313889b"),
    ("x86 O0 patricia/small", "831e87cb6af882d81dfb665548624a0f"),
    ("x86 O2 patricia/small", "575fd1a5faf9adc636fe1b55e9a588d3"),
    ("hll qsort/small", "333bd2dfd4e71f941e0b0a0a0b77a0c8"),
    ("x86 O0 qsort/small", "c56feab4969af37c8a1d3b5336714bd2"),
    ("x86 O2 qsort/small", "2957b8c43de007b74ab53137f7002783"),
    ("hll sha/small", "cd024af3894251360a0a7ce2dd0b3482"),
    ("x86 O0 sha/small", "cbee80274e8a296f329b9f89c87df84b"),
    ("x86 O2 sha/small", "fb48f11844ac58e8810ce108fce07f29"),
    ("hll stringsearch/small", "1961d0058c78098c28b4cfc087b54bc4"),
    (
        "x86 O0 stringsearch/small",
        "ee71f1ecaa23c8a95d850ace2e6afde2",
    ),
    (
        "x86 O2 stringsearch/small",
        "53a197f438e313938b4982b39d806e4d",
    ),
    ("hll susan/small", "2a53dec508697b7abf17bf4c45f979ed"),
    ("x86 O0 susan/small", "434a89cabe5071e054663139d18b6403"),
    ("x86 O2 susan/small", "14dd9347fd6f32cf1f8264d9a90f4f5b"),
    ("hll huffman/small", "f4d3d29dbc13b2284e51499d802c9912"),
    ("x86 O0 huffman/small", "391fe00d21ec678d610778cc3c76c1b6"),
    ("x86 O2 huffman/small", "1a8d2edc2120e3b9db8184db62336e7e"),
    ("hll lu/small", "089a2cf96db879d0c3c2f7a2e5dde4c9"),
    ("x86 O0 lu/small", "0a4ad643728f97ac959ecdc4c1030300"),
    ("x86 O2 lu/small", "612ce8a40ec24d0de0923b78d7e196bd"),
    ("hll nbody/small", "fd4a6a0c9ff7ee9514589014289251d9"),
    ("x86 O0 nbody/small", "a1f7d2e43c9bf9f2ca7beadf59184b5c"),
    ("x86 O2 nbody/small", "239f9775e35b307b3b3fa3f3345eeba2"),
    ("hll regexscan/small", "d9b571391433fd039047dd0064e3f7ae"),
    ("x86 O0 regexscan/small", "231b185ac61093d19b78966779b4b2cd"),
    ("x86 O2 regexscan/small", "794b1079793cc2dc05dbb3ea73ccc4ef"),
    ("hll sjoin/small", "6c30526795ce12ac565a493098c77ce5"),
    ("x86 O0 sjoin/small", "c41e2baade665a3b83c3129d68754cde"),
    ("x86 O2 sjoin/small", "ffafc94f2b511da3479f651511fed3a5"),
    ("profile crc32/small", "61e1fae3dd634ce4dd4935c72a09811f"),
    ("synthesis crc32/small", "2baae341695d43b1912bae841ba1c8ea"),
    ("profile qsort/small", "c024ef43c5ac723ee55e22dfc3f1cb2b"),
    ("synthesis qsort/small", "878ea3741ef9069395dcdc7db3b7a264"),
    ("profile fft/small", "1e998a97291c257a76d08a7a64db4989"),
    ("synthesis fft/small", "0a855c38b2713289eed05c77df2ddc4b"),
    ("error 0", "ba35f025f11feb9d7b0620b6fb09576c"),
    ("error 1", "77c4875e7a47c9aa9a778730f5052a38"),
    ("error 2", "1871428b9d66dbc7a0c8c6acf900628a"),
    ("error 3", "97d51426d1ee0d648f3e39484c3d4fb0"),
    ("error 4", "6326344775d56cff6cbe88470d4f30f0"),
    ("error 5", "ef0d5a16a2f555b1811f4540ec31a058"),
    ("response 0", "620876678c13f625d64d77a589ffb79d"),
    ("response 1", "a228099330de425b583f175ad77ccd91"),
    ("response 2", "33c50b2d2003c02a172694e1083c38dc"),
    ("response 3", "22c9e08bddfb948a25a2ebd9bc802069"),
    ("response 4", "acd36e5b3b353177f5ea0b0a607d2d18"),
    ("response 5", "d228cb690b1a8caf78912b704e4a0e58"),
    ("request kind 0", "a67b110648c9ad52ae4a3f6fc7d892fe"),
    ("request kind 1", "0913ec66e07ae1f5958dfb5c6731b932"),
    ("request kind 2", "2df93dba3870f2d880c25b29264446de"),
    ("request kind 3", "503d4a0b7e54a4030c9f2a6690d9c59c"),
    ("request kind 4", "adce6bbc32039a34f954b4480d193933"),
    ("request kind 5", "26eec829490393bdadf2f4d779bc2358"),
    ("server stats", "e2db5ce6da71c5782fdb2ec4b7397ffa"),
];

#[test]
fn content_addresses_match_the_recorded_format() {
    let current: Vec<(String, String)> = current_digests()
        .into_iter()
        .map(|(label, id)| (label, id.to_string()))
        .collect();
    let pinned: Vec<(String, String)> = PINNED
        .iter()
        .map(|(label, hex)| (label.to_string(), hex.to_string()))
        .collect();
    if current != pinned {
        let mut table = String::new();
        for (label, hex) in &current {
            table.push_str(&format!("    ({label:?}, {hex:?}),\n"));
        }
        let changed: Vec<&String> = current
            .iter()
            .filter(|entry| !pinned.contains(entry))
            .map(|(label, _)| label)
            .collect();
        panic!(
            "canonical format changed for {changed:?}; if deliberate, bump FORMAT_VERSION / \
             PROTO_VERSION and re-record PINNED:\n{table}"
        );
    }
}

fn roundtrips<T: Decanon + PartialEq + Debug>(value: &T, bytes: &[u8]) {
    assert_eq!(
        from_canon_bytes::<T>(bytes).as_ref(),
        Some(value),
        "{} does not round-trip",
        std::any::type_name::<T>()
    );
}

/// Asserts `decode(encode(v)) == Some(v)` for each value.
macro_rules! assert_roundtrip {
    ($($value:expr),+ $(,)?) => {$({
        let value = $value;
        roundtrips(&value, &to_canon_bytes(&value));
    })+};
}

/// Round-trips every sample, asserts the samples' leading tag bytes are
/// exactly `0..n` (so every variant is covered), and asserts the first
/// unused tag `n` decodes to `None` even with plenty of input left.
fn check_enum<T: Decanon + PartialEq + Debug>(samples: &[T], encode: impl Fn(&T) -> Vec<u8>) {
    let name = std::any::type_name::<T>();
    let mut tags = Vec::new();
    for value in samples {
        let bytes = encode(value);
        tags.push(bytes[0]);
        roundtrips(value, &bytes);
    }
    tags.sort_unstable();
    tags.dedup();
    let n = tags.len() as u8;
    assert_eq!(tags, (0..n).collect::<Vec<u8>>(), "{name} tags");
    let mut unused = vec![n];
    unused.extend([0u8; 64]);
    assert!(
        T::decanon(&mut CanonReader::new(&unused)).is_none(),
        "{name} accepts unused tag {n}"
    );
}

macro_rules! assert_enum {
    ($t:ty: $($value:expr),+ $(,)?) => {
        check_enum::<$t>(&[$($value),+], to_canon_bytes)
    };
}

#[test]
fn every_codec_type_roundtrips_and_rejects_unknown_tags() {
    let kernels = suite(InputSize::Small);
    let w = kernels
        .iter()
        .find(|w| w.kernel == PROFILED[0])
        .expect("profiled kernel is in the small suite");
    let (profile, synthesis) = profile_and_synthesis(w);
    let program = compiled(
        &w.program,
        CompileOptions::new(OptLevel::O2, TargetIsa::X86),
    );
    let hll: HllProgram = (*w.program).clone();
    let boxed = |e: Expr| Box::new(e);
    let addr = Address::global_indexed(GlobalId(2), 4, Reg(3), 8);

    // bsg-ir.
    assert_enum!(Ty: Ty::Int, Ty::Float);
    assert_enum!(Value: Value::Int(-3), Value::Float(2.5));
    assert_enum!(BinOp:
        BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem, BinOp::And, BinOp::Or,
        BinOp::Xor, BinOp::Shl, BinOp::Shr, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge,
        BinOp::Eq, BinOp::Ne,
    );
    assert_enum!(UnOp:
        UnOp::Neg, UnOp::Not, UnOp::LogicalNot, UnOp::ToFloat, UnOp::ToInt, UnOp::Sqrt,
        UnOp::Sin, UnOp::Cos, UnOp::Log, UnOp::Abs,
    );
    assert_enum!(OperandKind:
        OperandKind::Register, OperandKind::Constant, OperandKind::Memory,
    );
    assert_enum!(Expr:
        Expr::Int(-7),
        Expr::Float(0.5),
        Expr::Var("x".into()),
        Expr::Index("tbl".into(), boxed(Expr::Int(1))),
        Expr::Bin(BinOp::Mul, boxed(Expr::Var("x".into())), boxed(Expr::Int(3))),
        Expr::Un(UnOp::Sqrt, boxed(Expr::Float(2.0))),
        Expr::Call("f".into(), vec![Expr::Int(1), Expr::Var("y".into())]),
    );
    assert_enum!(LValue:
        LValue::Var("x".into()),
        LValue::Index("tbl".into(), boxed(Expr::Int(2))),
    );
    assert_enum!(Stmt:
        Stmt::Assign { target: LValue::Var("x".into()), value: Expr::Int(1) },
        Stmt::If {
            cond: Expr::Var("c".into()),
            then_branch: vec![Stmt::Break],
            else_branch: vec![Stmt::Continue],
        },
        Stmt::While { cond: Expr::Int(0), body: vec![Stmt::Print(Expr::Int(1))] },
        Stmt::For {
            var: "i".into(),
            init: Expr::Int(0),
            limit: Expr::Int(10),
            step: Expr::Int(1),
            body: vec![Stmt::Return(None)],
        },
        Stmt::Call {
            name: "f".into(),
            args: vec![Expr::Int(4)],
            dst: Some(LValue::Var("r".into())),
        },
        Stmt::Return(Some(Expr::Int(9))),
        Stmt::Print(Expr::Float(-1.5)),
        Stmt::Break,
        Stmt::Continue,
    );
    assert_roundtrip!(
        HllGlobal::with_values("tbl", vec![1, -2, 3]),
        HllGlobal::float_zeroed("fs", 8),
        hll.functions[0].clone(),
        hll.clone(),
    );
    assert_enum!(MemBase: MemBase::Global(GlobalId(1)), MemBase::Frame);
    assert_roundtrip!(addr, Address::frame(-3));
    assert_enum!(Operand:
        Operand::Reg(Reg(5)),
        Operand::ImmInt(-9),
        Operand::ImmFloat(1.25),
        Operand::Mem(addr),
    );
    assert_enum!(Inst:
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: Reg(1),
            lhs: Operand::Reg(Reg(2)),
            rhs: Operand::ImmInt(3),
        },
        Inst::Un { op: UnOp::Neg, ty: Ty::Float, dst: Reg(1), src: Operand::ImmFloat(2.0) },
        Inst::Mov { dst: Reg(4), src: Operand::Mem(addr) },
        Inst::Load { dst: Reg(5), addr, ty: Ty::Int },
        Inst::Store { src: Operand::Reg(Reg(5)), addr: Address::frame(2), ty: Ty::Float },
        Inst::Call { func: FuncId(1), args: vec![Operand::ImmInt(1)], dst: Some(Reg(6)) },
        Inst::Print { src: Operand::Reg(Reg(6)) },
        Inst::Nop,
    );
    assert_enum!(Terminator:
        Terminator::Jump(BlockId(3)),
        Terminator::Branch { cond: Reg(1), taken: BlockId(2), not_taken: BlockId(4) },
        Terminator::Return(Some(Operand::Reg(Reg(0)))),
    );
    assert_enum!(GlobalInit:
        GlobalInit::Zero,
        GlobalInit::Iota,
        GlobalInit::Values(vec![Value::Int(1), Value::Float(0.25)]),
        GlobalInit::Random { seed: 42, modulus: 1000 },
    );
    assert_roundtrip!(
        program.globals[0].clone(),
        program.functions[0].blocks[0].clone(),
        program.functions[0].clone(),
        program.clone(),
    );

    // bsg-compiler.
    assert_enum!(OptLevel: OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3);
    assert_enum!(TargetIsa: TargetIsa::X86, TargetIsa::X86_64, TargetIsa::Ia64);
    assert_roundtrip!(CompileOptions::new(OptLevel::O3, TargetIsa::Ia64));

    // bsg-synth.
    assert_roundtrip!(
        SynthesisConfig {
            reduction_factor: 17,
            seed: 99,
            function_count: 3,
            stream_elems: 512,
            max_segments: 8,
        },
        synthesis.benchmark.stats,
        synthesis.benchmark.clone(),
        synthesis.clone(),
    );

    // bsg-uarch.
    assert_roundtrip!(CacheConfig::kb(32));

    // bsg-profile.
    let (site, branch) = profile
        .branches
        .iter()
        .next()
        .expect("profile has a branch");
    let (_, memory) = profile
        .memory
        .iter()
        .next()
        .expect("profile has a memory site");
    let (node, code) = profile.block_code.iter().next().expect("profile has code");
    let sfgl_loop = profile.sfgl.loops.first().expect("profile has a loop");
    assert_roundtrip!(
        *site,
        *branch,
        *memory,
        profile.mix.clone(),
        code[0].clone(),
        ProfileConfig {
            reference_cache: CacheConfig::kb(4),
            max_instructions: 1 << 20,
        },
        profile.clone(),
        *node,
        sfgl_loop.clone(),
        profile.sfgl.clone(),
    );

    // bsg-runtime.
    let stats = populated_server_stats();
    assert_roundtrip!(stats.store.disk.per_kind[3], stats.store.disk, stats.store);

    // bsg-server.
    assert_roundtrip!(stats);
    check_enum(&responses(&profile, &synthesis), to_canon_bytes);
}
