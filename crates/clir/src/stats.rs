//! Dynamic execution statistics.
//!
//! The device performance models in `bop-fpga`, `bop-gpu` and `bop-cpu`
//! are driven by these counters rather than by hand-written formulas per
//! kernel: the interpreter counts what actually executed, and the models
//! convert counts into cycles. `block_execs` is the FPGA-relevant metric
//! (each basic-block execution of a work-item occupies one slot of the
//! synthesized pipeline), while the op counters drive the GPU/CPU
//! throughput models.

use crate::ir::{BinOp, Builtin};
use crate::types::{AddressSpace, ScalarType};

/// Counts of executed operations by class and width.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpCounts {
    /// f32 additions/subtractions.
    pub add32: u64,
    /// f64 additions/subtractions.
    pub add64: u64,
    /// f32 multiplications.
    pub mul32: u64,
    /// f64 multiplications.
    pub mul64: u64,
    /// f32 divisions / remainders.
    pub div32: u64,
    /// f64 divisions / remainders.
    pub div64: u64,
    /// f32 min/max.
    pub minmax32: u64,
    /// f64 min/max.
    pub minmax64: u64,
    /// f32 `exp`/`log` evaluations.
    pub transc32: u64,
    /// f64 `exp`/`log` evaluations.
    pub transc64: u64,
    /// f32 `pow` evaluations.
    pub pow32: u64,
    /// f64 `pow` evaluations.
    pub pow64: u64,
    /// f32 `sqrt` evaluations.
    pub sqrt32: u64,
    /// f64 `sqrt` evaluations.
    pub sqrt64: u64,
    /// Comparisons (any type).
    pub cmp: u64,
    /// Selects.
    pub select: u64,
    /// Integer/boolean ALU operations (including address arithmetic).
    pub int_alu: u64,
    /// Scalar conversions.
    pub cast: u64,
    /// Register copies.
    pub mov: u64,
    /// Work-item geometry queries.
    pub wi_query: u64,
}

impl OpCounts {
    pub(crate) fn count_bin(&mut self, op: BinOp, ty: ScalarType) {
        let f32w = ty == ScalarType::F32;
        if ty.is_float() {
            match op {
                BinOp::Add | BinOp::Sub => *pick(f32w, &mut self.add32, &mut self.add64) += 1,
                BinOp::Mul => *pick(f32w, &mut self.mul32, &mut self.mul64) += 1,
                BinOp::Div | BinOp::Rem => *pick(f32w, &mut self.div32, &mut self.div64) += 1,
                BinOp::Min | BinOp::Max => *pick(f32w, &mut self.minmax32, &mut self.minmax64) += 1,
                _ => self.int_alu += 1,
            }
        } else {
            self.int_alu += 1;
        }
    }

    pub(crate) fn count_builtin(&mut self, func: Builtin, ty: ScalarType) {
        let f32w = ty == ScalarType::F32;
        match func {
            Builtin::Exp | Builtin::Log => *pick(f32w, &mut self.transc32, &mut self.transc64) += 1,
            Builtin::Pow => *pick(f32w, &mut self.pow32, &mut self.pow64) += 1,
            Builtin::Sqrt => *pick(f32w, &mut self.sqrt32, &mut self.sqrt64) += 1,
        }
    }

    /// Simple floating-point operations (add/sub/mul/min/max/cmp-adjacent)
    /// at the given width, the unit the GPU ALU model charges 1 slot for.
    pub fn simple_flops(&self, f64_width: bool) -> u64 {
        if f64_width {
            self.add64 + self.mul64 + self.minmax64
        } else {
            self.add32 + self.mul32 + self.minmax32
        }
    }

    /// Expensive floating-point operations (div/transcendental/pow/sqrt) at
    /// the given width.
    pub fn hard_flops(&self, f64_width: bool) -> u64 {
        if f64_width {
            self.div64 + self.transc64 + self.pow64 + self.sqrt64
        } else {
            self.div32 + self.transc32 + self.pow32 + self.sqrt32
        }
    }

    /// Total counted operations of any class.
    pub fn total(&self) -> u64 {
        self.clone().counters_mut().into_iter().map(|c| *c).sum()
    }

    /// Every op counter, each once.
    fn counters_mut(&mut self) -> [&mut u64; 20] {
        let OpCounts {
            add32,
            add64,
            mul32,
            mul64,
            div32,
            div64,
            minmax32,
            minmax64,
            transc32,
            transc64,
            pow32,
            pow64,
            sqrt32,
            sqrt64,
            cmp,
            select,
            int_alu,
            cast,
            mov,
            wi_query,
        } = self;
        [
            add32, add64, mul32, mul64, div32, div64, minmax32, minmax64, transc32, transc64,
            pow32, pow64, sqrt32, sqrt64, cmp, select, int_alu, cast, mov, wi_query,
        ]
    }
}

fn pick<'a>(f32w: bool, a: &'a mut u64, b: &'a mut u64) -> &'a mut u64 {
    if f32w {
        a
    } else {
        b
    }
}

/// Counts and byte volumes of memory accesses by address space.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MemCounts {
    /// Number of loads from global/constant memory.
    pub global_loads: u64,
    /// Bytes loaded from global/constant memory.
    pub global_load_bytes: u64,
    /// Number of stores to global memory.
    pub global_stores: u64,
    /// Bytes stored to global memory.
    pub global_store_bytes: u64,
    /// Number of local-memory loads.
    pub local_loads: u64,
    /// Bytes loaded from local memory.
    pub local_load_bytes: u64,
    /// Number of local-memory stores.
    pub local_stores: u64,
    /// Bytes stored to local memory.
    pub local_store_bytes: u64,
    /// Number of private-memory accesses (either direction).
    pub private_accesses: u64,
}

impl MemCounts {
    pub(crate) fn count_load(&mut self, space: AddressSpace, bytes: usize) {
        match space {
            AddressSpace::Global | AddressSpace::Constant => {
                self.global_loads += 1;
                self.global_load_bytes += bytes as u64;
            }
            AddressSpace::Local => {
                self.local_loads += 1;
                self.local_load_bytes += bytes as u64;
            }
            AddressSpace::Private => self.private_accesses += 1,
            AddressSpace::Pipe => unreachable!("pipes are not load/store addressable"),
        }
    }

    pub(crate) fn count_store(&mut self, space: AddressSpace, bytes: usize) {
        match space {
            AddressSpace::Global | AddressSpace::Constant => {
                self.global_stores += 1;
                self.global_store_bytes += bytes as u64;
            }
            AddressSpace::Local => {
                self.local_stores += 1;
                self.local_store_bytes += bytes as u64;
            }
            AddressSpace::Private => self.private_accesses += 1,
            AddressSpace::Pipe => unreachable!("pipes are not load/store addressable"),
        }
    }

    /// Total bytes moved to/from global memory.
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes
    }

    /// Every memory counter, each once.
    fn counters_mut(&mut self) -> [&mut u64; 9] {
        let MemCounts {
            global_loads,
            global_load_bytes,
            global_stores,
            global_store_bytes,
            local_loads,
            local_load_bytes,
            local_stores,
            local_store_bytes,
            private_accesses,
        } = self;
        [
            global_loads,
            global_load_bytes,
            global_stores,
            global_store_bytes,
            local_loads,
            local_load_bytes,
            local_stores,
            local_store_bytes,
            private_accesses,
        ]
    }
}

/// All statistics produced by one (or several, merged) work-group runs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Executions of each basic block, summed over work-items. A block
    /// execution corresponds to one occupancy slot of the FPGA pipeline.
    pub block_execs: Vec<u64>,
    /// Work-group barrier releases.
    pub barriers: u64,
    /// Work-item execution phases (segments between suspensions).
    pub item_phases: u64,
    /// Successful pipe reads.
    pub pipe_reads: u64,
    /// Successful pipe writes.
    pub pipe_writes: u64,
    /// Read attempts that stalled on an empty FIFO.
    pub pipe_read_stalls: u64,
    /// Write attempts that stalled on a full FIFO.
    pub pipe_write_stalls: u64,
    /// Operation counts by class.
    pub ops: OpCounts,
    /// Memory access counts by space.
    pub mem: MemCounts,
}

impl ExecStats {
    /// Statistics for a function with `blocks` basic blocks, all counters
    /// zero.
    pub fn with_blocks(blocks: usize) -> ExecStats {
        ExecStats { block_execs: vec![0; blocks], ..ExecStats::default() }
    }

    /// Total basic-block executions (pipeline slots).
    pub fn total_block_execs(&self) -> u64 {
        self.block_execs.iter().sum()
    }

    /// The one list of counters: the scalar counters, the op and memory
    /// counters, then `block_execs`, each once and always in this order.
    /// Merging, scaling, dividing and the performance model's fit all go
    /// through it, and its patterns are exhaustive, so a new counter is a
    /// compile error here until it is listed, not a silent omission.
    fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        let ExecStats {
            block_execs,
            barriers,
            item_phases,
            pipe_reads,
            pipe_writes,
            pipe_read_stalls,
            pipe_write_stalls,
            ops,
            mem,
        } = self;
        [barriers, item_phases, pipe_reads, pipe_writes, pipe_read_stalls, pipe_write_stalls]
            .into_iter()
            .chain(ops.counters_mut())
            .chain(mem.counters_mut())
            .chain(block_execs)
    }

    /// Accumulate `other` into `self`.
    ///
    /// # Panics
    /// Panics if the block counts refer to functions with different block
    /// counts (merging stats of unrelated kernels is a bug).
    pub fn merge(&mut self, other: &ExecStats) {
        if self.block_execs.is_empty() {
            self.block_execs = vec![0; other.block_execs.len()];
        }
        assert_eq!(
            self.block_execs.len(),
            other.block_execs.len(),
            "merging stats of different kernels"
        );
        let mut other = other.clone();
        for (a, b) in self.counters_mut().zip(other.counters_mut()) {
            *a += *b;
        }
    }

    /// Add `n` times `profile`'s counters. A profile carries no block
    /// counts (its `block_execs` is empty), so the block counts of `self`
    /// stay as they are: this is how the lanes engine charges a block's
    /// op and memory profile once per execution count.
    pub(crate) fn add_scaled(&mut self, profile: &ExecStats, n: u64) {
        debug_assert!(profile.block_execs.is_empty(), "a profile has no block counts");
        let mut profile = profile.clone();
        for (a, b) in self.counters_mut().zip(profile.counters_mut()) {
            *a += *b * n;
        }
    }

    /// Apply `f` to every counter.
    fn map_counts(&self, f: impl Fn(u64) -> u64) -> ExecStats {
        let mut out = self.clone();
        for c in out.counters_mut() {
            *c = f(*c);
        }
        out
    }

    /// Scale every counter by `k` (used when extrapolating a measured
    /// per-option profile to a batch of `k` options).
    pub fn scaled(&self, k: u64) -> ExecStats {
        self.map_counts(|c| c * k)
    }

    /// Divide every counter by `k`, rounding down (the per-batch share
    /// of statistics measured over `k` identical batches).
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn divided(&self, k: u64) -> ExecStats {
        assert!(k > 0, "division by zero batches");
        self.map_counts(|c| c / k)
    }

    /// Every counter as one flat vector, in a fixed order that ends with
    /// `block_execs`. [`ExecStats::from_counts`] inverts it.
    pub fn to_counts(&self) -> Vec<u64> {
        self.clone().counters_mut().map(|c| *c).collect()
    }

    /// Rebuild the statistics of a kernel with `blocks` basic blocks from
    /// the flat vector of [`ExecStats::to_counts`].
    ///
    /// # Panics
    /// Panics if `counts` is shorter than that vector.
    pub fn from_counts(counts: &[u64], blocks: usize) -> ExecStats {
        let mut out = ExecStats::with_blocks(blocks);
        let mut counts = counts.iter();
        for c in out.counters_mut() {
            *c = *counts.next().expect("counts cover every counter");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_op_classification() {
        let mut c = OpCounts::default();
        c.count_bin(BinOp::Add, ScalarType::F64);
        c.count_bin(BinOp::Sub, ScalarType::F64);
        c.count_bin(BinOp::Mul, ScalarType::F32);
        c.count_bin(BinOp::Max, ScalarType::F64);
        c.count_bin(BinOp::Add, ScalarType::I64);
        assert_eq!(c.add64, 2);
        assert_eq!(c.mul32, 1);
        assert_eq!(c.minmax64, 1);
        assert_eq!(c.int_alu, 1);
        assert_eq!(c.simple_flops(true), 3);
        assert_eq!(c.simple_flops(false), 1);
    }

    #[test]
    fn builtin_classification() {
        let mut c = OpCounts::default();
        c.count_builtin(Builtin::Pow, ScalarType::F64);
        c.count_builtin(Builtin::Exp, ScalarType::F32);
        c.count_builtin(Builtin::Sqrt, ScalarType::F64);
        assert_eq!(c.pow64, 1);
        assert_eq!(c.transc32, 1);
        assert_eq!(c.hard_flops(true), 2);
        assert_eq!(c.hard_flops(false), 1);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = ExecStats::with_blocks(2);
        a.block_execs[0] = 3;
        a.ops.add64 = 5;
        a.mem.count_load(AddressSpace::Global, 8);
        let mut b = ExecStats::with_blocks(2);
        b.block_execs[1] = 4;
        b.barriers = 2;
        a.merge(&b);
        assert_eq!(a.total_block_execs(), 7);
        assert_eq!(a.barriers, 2);
        let s = a.scaled(3);
        assert_eq!(s.total_block_execs(), 21);
        assert_eq!(s.ops.add64, 15);
        assert_eq!(s.mem.global_load_bytes, 24);
        assert_eq!(s.barriers, 6);
        assert_eq!(s.divided(3), a, "dividing undoes exact scaling");
    }

    #[test]
    fn every_counter_merges_scales_divides_and_round_trips() {
        let mut a = ExecStats::with_blocks(3);
        for (i, c) in a.counters_mut().enumerate() {
            *c = i as u64 + 1;
        }
        let counts = a.to_counts();
        assert_eq!(counts.len(), 35 + 3, "35 scalar counters, then the block counts");
        assert_eq!(ExecStats::from_counts(&counts, 3), a);
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b, a.scaled(2), "merge adds every counter");
        assert_eq!(b.divided(2), a);
        assert_eq!(b.pipe_write_stalls, 2 * a.pipe_write_stalls);
        assert_eq!(a.ops.total(), (7..=26).sum::<u64>(), "the op counters follow the six scalars");
    }

    #[test]
    #[should_panic(expected = "different kernels")]
    fn merging_mismatched_blocks_panics() {
        let mut a = ExecStats::with_blocks(2);
        let b = ExecStats::with_blocks(3);
        a.merge(&b);
    }
}
