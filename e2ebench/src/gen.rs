//! Seeded inputs: the three workloads, their per-client op streams, and
//! the byte pattern every staged or written file carries.
//!
//! Everything here is a pure function of the `--seed` argument, so two
//! runs with one seed send the appliance the same requests in the same
//! order and expect the same bytes back.

use nest_simenv::arrivals::SplitMix64;
use std::sync::Arc;

/// One of the benchmark's workloads (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallFiles,
    BulkRead,
    BulkWrite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SmallFiles,
        Workload::BulkRead,
        Workload::BulkWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallFiles => "small-files",
            Workload::BulkRead => "bulk-read",
            Workload::BulkWrite => "bulk-write",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size shape, or the smoke shape the self-tests use.
    pub fn spec(self, smoke: bool) -> Spec {
        let (files, outputs, big) = if smoke {
            (200, 8, 256 << 10)
        } else {
            (4000, 64, 4 << 20)
        };
        match self {
            Workload::SmallFiles => Spec {
                inputs: files,
                outputs_per_client: outputs,
                file_size: 4 << 10,
                mix: [70, 20, 10],
                zipf: true,
                ops_per_session: Some(16),
            },
            Workload::BulkRead => Spec {
                inputs: if smoke { 4 } else { 32 },
                outputs_per_client: 0,
                file_size: big,
                mix: [100, 0, 0],
                zipf: false,
                ops_per_session: None,
            },
            Workload::BulkWrite => Spec {
                inputs: 0,
                outputs_per_client: if smoke { 2 } else { 8 },
                file_size: big,
                mix: [0, 100, 0],
                zipf: false,
                ops_per_session: None,
            },
        }
    }
}

/// The staged state and the op mix of one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Shared read-only input files.
    pub inputs: usize,
    /// Output files each client owns and overwrites.
    pub outputs_per_client: usize,
    /// Size of every file, staged or written.
    pub file_size: usize,
    /// Percent of GET, PUT and stat ops.
    pub mix: [u32; 3],
    /// Zipf(s = 1) input popularity; uniform otherwise.
    pub zipf: bool,
    /// Ops after which a client closes its session and opens a new one
    /// (one session per grid job); `None` keeps one connection.
    pub ops_per_session: Option<usize>,
}

impl Spec {
    /// The op kind the workload sends most; its latencies are `lead_*`.
    pub fn lead(&self) -> OpKind {
        let most = self.mix.iter().max().copied().unwrap_or(0);
        OpKind::ALL
            .into_iter()
            .find(|k| self.mix[k.index()] == most)
            .unwrap_or(OpKind::Get)
    }

    /// The op kind with the most work per op, whose median latency is
    /// `slow_p50_us`. A PUT moves the bytes and rewrites the lot table,
    /// so it is the PUT wherever the workload writes, else the lead kind.
    pub fn slow(&self) -> OpKind {
        if self.mix[OpKind::Put.index()] > 0 {
            OpKind::Put
        } else {
            self.lead()
        }
    }
}

/// Clients per run; client `i` speaks `Proto::for_client(i)`.
pub const CLIENTS: usize = 2;

/// The wire protocol of one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Chirp,
    Http,
}

impl Proto {
    pub fn for_client(client: usize) -> Self {
        if client.is_multiple_of(2) {
            Proto::Chirp
        } else {
            Proto::Http
        }
    }
}

/// A file of the staged namespace: shared input `i` or output `j` of a
/// client. Its id keys its byte pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileRef {
    Input(usize),
    Output {
        client: usize,
        index: usize,
    },
    /// Written only by a traced run's PUT probe, after its windows.
    Probe,
}

impl FileRef {
    pub fn path(self) -> String {
        match self {
            FileRef::Input(i) => format!("/in_{i:05}.dat"),
            FileRef::Output { client, index } => format!("/out_c{client}_{index:03}.dat"),
            FileRef::Probe => "/probe.dat".into(),
        }
    }

    fn id(self, spec: &Spec) -> u64 {
        match self {
            FileRef::Input(i) => i as u64,
            FileRef::Output { client, index } => {
                (spec.inputs + client * spec.outputs_per_client + index) as u64
            }
            FileRef::Probe => u64::MAX >> 24,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
    Stat,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Get, OpKind::Put, OpKind::Stat];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Stat => "stat",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One request of a client's stream. A PUT carries the version it
/// writes, which selects the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub file: FileRef,
    pub version: u32,
}

/// The endless, seeded op stream of one client.
pub struct OpStream {
    rng: SplitMix64,
    spec: Spec,
    client: usize,
    /// Zipf CDF over popularity ranks (empty when uniform).
    cdf: Vec<f64>,
    /// Popularity rank -> input index, shuffled by the seed so the hot
    /// set differs between seeds.
    rank_to_input: Vec<usize>,
    /// Next version per owned output (version 0 is the staged one).
    versions: Vec<u32>,
}

impl OpStream {
    pub fn new(spec: &Spec, seed: u64, client: usize) -> Self {
        let mut shuffle = SplitMix64::new(seed ^ 0x005e_ed0f_1a7e);
        let mut rank_to_input: Vec<usize> = (0..spec.inputs).collect();
        for i in (1..rank_to_input.len()).rev() {
            rank_to_input.swap(i, shuffle.next_below((i + 1) as u64) as usize);
        }
        let cdf = if spec.zipf {
            let weights: Vec<f64> = (1..=spec.inputs).map(|r| 1.0 / r as f64).collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            rng: SplitMix64::new(seed.wrapping_mul(0x100_0000_01b3) ^ (client as u64 + 1) << 48),
            spec: spec.clone(),
            client,
            cdf,
            rank_to_input,
            versions: vec![1; spec.outputs_per_client],
        }
    }

    fn pick_input(&mut self) -> FileRef {
        let rank = if self.cdf.is_empty() {
            self.rng.next_below(self.spec.inputs as u64) as usize
        } else {
            let u = self.rng.next_f64();
            self.cdf
                .partition_point(|&c| c < u)
                .min(self.spec.inputs - 1)
        };
        FileRef::Input(self.rank_to_input[rank])
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let roll = self.rng.next_below(100) as u32;
        let [get, put, _] = self.spec.mix;
        let kind = if roll < get {
            OpKind::Get
        } else if roll < get + put {
            OpKind::Put
        } else {
            OpKind::Stat
        };
        Some(match kind {
            OpKind::Put => {
                let index = self.rng.next_below(self.spec.outputs_per_client as u64) as usize;
                let version = self.versions[index];
                self.versions[index] += 1;
                Op {
                    kind,
                    file: FileRef::Output {
                        client: self.client,
                        index,
                    },
                    version,
                }
            }
            _ => Op {
                kind,
                file: self.pick_input(),
                version: 0,
            },
        })
    }
}

/// Length of the pattern block. A prime, so no chunk or buffer size
/// lines up with it and a misplaced chunk never compares equal.
pub const BLOCK: usize = 65_521;

/// File contents: version `v` of file `f` is the seed's pattern block
/// repeated from a per-(seed, f, v) offset, so bytes can be checked at
/// memcmp speed without holding any file in memory.
pub struct Pattern {
    block: Vec<u8>,
    seed: u64,
}

impl Pattern {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xb10c_cafe);
        let mut block = Vec::with_capacity(BLOCK + 8);
        while block.len() < BLOCK {
            block.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        block.truncate(BLOCK);
        Self { block, seed }
    }

    /// Offset into the block of byte 0 of `file` at `version`.
    pub fn shift(&self, spec: &Spec, file: FileRef, version: u32) -> usize {
        let mut rng = SplitMix64::new(self.seed ^ file.id(spec) << 20 ^ u64::from(version));
        rng.next_below(BLOCK as u64) as usize
    }

    /// Calls `f` with consecutive slices that together make `len` bytes
    /// starting at block offset `shift`.
    pub fn for_each_slice(
        &self,
        shift: usize,
        len: usize,
        mut f: impl FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut pos = shift % BLOCK;
        let mut left = len;
        while left > 0 {
            let n = left.min(BLOCK - pos);
            f(&self.block[pos..pos + n])?;
            left -= n;
            pos = (pos + n) % BLOCK;
        }
        Ok(())
    }

    /// The whole content as one buffer (staging and in-process PUTs).
    pub fn bytes(&self, shift: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.for_each_slice(shift, len, |s| {
            out.extend_from_slice(s);
            Ok(())
        })
        .expect("collecting into a Vec cannot fail");
        out
    }

    /// A checker for a body that should start at block offset `shift`.
    pub fn checker(self: &Arc<Self>, shift: usize) -> Checker {
        Checker {
            pattern: Arc::clone(self),
            pos: shift % BLOCK,
            seen: 0,
            ok: true,
        }
    }
}

/// Compares a body against its pattern as the bytes arrive.
pub struct Checker {
    pattern: Arc<Pattern>,
    pos: usize,
    pub seen: u64,
    pub ok: bool,
}

impl Checker {
    pub fn feed(&mut self, mut data: &[u8]) {
        self.seen += data.len() as u64;
        while !data.is_empty() {
            let n = data.len().min(BLOCK - self.pos);
            if data[..n] != self.pattern.block[self.pos..self.pos + n] {
                self.ok = false;
            }
            data = &data[n..];
            self.pos = (self.pos + n) % BLOCK;
        }
    }

    /// True when exactly `len` matching bytes were fed.
    pub fn complete(&self, len: u64) -> bool {
        self.ok && self.seen == len
    }
}
