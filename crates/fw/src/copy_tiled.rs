//! Tiled Floyd-Warshall with the copy optimization of Lam, Rothberg &
//! Wolf [20] (cited in the paper's §2/§3.1): when the data must stay in
//! the usual row-major layout (e.g. it is shared with other code), each
//! tile is copied into a contiguous scratch buffer before the kernel runs
//! and the result is copied back. This buys the Block Data Layout's
//! conflict-freedom at the cost of `O(B²)` copy work per kernel call —
//! the classic alternative the BDL makes unnecessary, included so the
//! trade can be measured (`repro layouts` / the `fw_bench` group).
//!
//! The copies live in an accessor, [`CopyAccess`], whose kernel call
//! copies in, runs FWI on the scratch tiles and copies out; the tiled
//! driver runs it like any other accessor.

use cachegraph_graph::Weight;
use cachegraph_layout::RowMajor;

use crate::kernel::{fwi, CellAccess, View};
use crate::matrix::FwMatrix;
use crate::tiled::run_tiled;

/// Identifies which of the three scratch buffers a tile operand uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Operand {
    A,
    B,
    C,
}

/// Matrix storage whose [`CellAccess::fwi_block`] runs the kernel on
/// contiguous scratch copies of the three tiles.
pub(crate) struct CopyAccess<'a> {
    data: &'a mut [Weight],
    b: usize,
    /// Three contiguous `b x b` buffers, one per operand, in one
    /// allocation: A at 0, B at `b²`, C at `2b²`.
    scratch: Vec<Weight>,
    /// Tiles copied in or out so far.
    pub(crate) copies: u64,
}

impl<'a> CopyAccess<'a> {
    pub(crate) fn new(data: &'a mut [Weight], b: usize) -> Self {
        Self { data, b, scratch: vec![0; 3 * b * b], copies: 0 }
    }

    fn offset(&self, op: Operand) -> usize {
        match op {
            Operand::A => 0,
            Operand::B => self.b * self.b,
            Operand::C => 2 * self.b * self.b,
        }
    }

    fn view(&self, op: Operand) -> View {
        View { offset: self.offset(op), stride: self.b }
    }

    /// Copy a tile from the matrix into scratch slot `op`.
    fn copy_in(&mut self, tile: View, op: Operand) {
        let (off, b) = (self.offset(op), self.b);
        for i in 0..b {
            let s = tile.at(i, 0);
            self.scratch[off + i * b..off + (i + 1) * b].copy_from_slice(&self.data[s..s + b]);
        }
        self.copies += 1;
    }

    /// Copy scratch slot `op` back into the matrix tile.
    fn copy_out(&mut self, tile: View, op: Operand) {
        let (off, b) = (self.offset(op), self.b);
        for i in 0..b {
            let d = tile.at(i, 0);
            self.data[d..d + b].copy_from_slice(&self.scratch[off + i * b..off + (i + 1) * b]);
        }
        self.copies += 1;
    }
}

impl CellAccess for CopyAccess<'_> {
    fn read(&mut self, idx: usize) -> Weight {
        self.data[idx]
    }

    fn write(&mut self, idx: usize, v: Weight) {
        self.data[idx] = v;
    }

    /// FWI on scratch copies of the three tiles, preserving aliasing:
    /// operands that refer to the same tile share one scratch slot, so the
    /// in-place update semantics of the aliased kernel are kept.
    fn fwi_block(&mut self, a: View, bt: View, ct: View, size: usize) {
        debug_assert_eq!(size, self.b, "tiles must be the accessor's tile size");
        self.copy_in(a, Operand::A);
        let b_op = if bt == a {
            Operand::A
        } else {
            self.copy_in(bt, Operand::B);
            Operand::B
        };
        let c_op = if ct == a {
            Operand::A
        } else if ct == bt {
            b_op
        } else {
            self.copy_in(ct, Operand::C);
            Operand::C
        };
        let (va, vb, vc) = (self.view(Operand::A), self.view(b_op), self.view(c_op));
        fwi(&mut self.scratch, va, vb, vc, size);
        self.copy_out(a, Operand::A);
    }
}

/// Tiled Floyd-Warshall over a **row-major** matrix with per-tile
/// copy-in/copy-out. Same phase structure and result as
/// [`fw_tiled`](crate::fw_tiled).
pub fn fw_tiled_copy(m: &mut FwMatrix<RowMajor>, b: usize) {
    let (layout, n) = (*m.layout(), m.n());
    run_tiled(&layout, n, &mut CopyAccess::new(m.storage_mut(), b), b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_iterative_slice;
    use cachegraph_graph::INF;
    use cachegraph_rng::StdRng;

    fn random_costs(n: usize, density: f64, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut costs = vec![INF; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    costs[i * n + j] = 0;
                } else if rng.gen_bool(density) {
                    costs[i * n + j] = rng.gen_range(1..100);
                }
            }
        }
        costs
    }

    #[test]
    fn matches_baseline() {
        for n in [8usize, 16, 24, 32] {
            let costs = random_costs(n, 0.3, n as u64);
            let mut expect = costs.clone();
            fw_iterative_slice(&mut expect, n);
            for b in [2usize, 4, 8] {
                if n % b != 0 {
                    continue;
                }
                let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
                fw_tiled_copy(&mut m, b);
                assert_eq!(m.to_row_major(), expect, "n={n} b={b}");
            }
        }
    }

    #[test]
    fn aliased_operands_share_scratch() {
        // The diagonal call (A = B = C) must behave exactly like the
        // in-place kernel, including intermediate-value reuse.
        let n = 8;
        let costs = random_costs(n, 0.6, 9);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);
        let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
        fw_tiled_copy(&mut m, n); // single tile: one fully-aliased call
        assert_eq!(m.to_row_major(), expect);
    }

    #[test]
    fn single_element_tiles() {
        let n = 4;
        let costs = random_costs(n, 0.5, 3);
        let mut expect = costs.clone();
        fw_iterative_slice(&mut expect, n);
        let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
        fw_tiled_copy(&mut m, 1);
        assert_eq!(m.to_row_major(), expect);
    }
}
