//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Tape`] records every operation of one forward pass as a node with an
//! explicit op descriptor. [`Tape::backward`] walks the tape in reverse
//! and dispatches on the descriptor, accumulating gradients into parents
//! and finally into a [`Gradients`] set keyed by [`ParamId`]. The explicit
//! enum (instead of boxed closures) keeps the borrow story simple, makes
//! each backward rule independently testable, and costs nothing at the
//! matrix sizes HiGNN uses.
//!
//! The op set is exactly what the paper's architectures need: linear
//! algebra, concatenation, row gathering (embedding lookup), a fused
//! gather + mean-pool (embedding lookup and fixed-fanout aggregation in
//! one pass, never materializing the gathered intermediate),
//! fixed-fanout and variable-segment mean aggregation (GraphSAGE), the
//! activations the paper names (leaky ReLU, sigmoid), and a numerically
//! stable binary-cross-entropy-with-logits reduction (Eqs. 5, 7, 12).
//!
//! ## Memory
//!
//! Parameter leaves are recorded **by reference** ([`ParamId`]) — reading
//! a parameter never copies it. Intermediate buffers are heap-allocated
//! per op by default ([`Tape::new`]); a tape built with
//! [`Tape::with_workspace`] instead leases every forward and backward
//! buffer from a [`Workspace`] pool and returns them in
//! [`Tape::recycle`], so a steady-state training loop performs no
//! per-minibatch allocation in the tape step. Pooling is bitwise-invisible: leased buffers are
//! zero-filled or fully overwritten before use, so both modes produce
//! identical bits (see DESIGN.md, "Performance & determinism contract").

use crate::matrix::Matrix;
use crate::param::{Gradients, ParamId, ParamStore};
use crate::simd;
use crate::workspace::Workspace;

/// Handle to a value on the tape. Cheap to copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    id: usize,
    rows: usize,
    cols: usize,
}

impl Var {
    /// Number of rows of the value this handle refers to.
    pub fn rows(self) -> usize {
        self.rows
    }

    /// Number of columns of the value this handle refers to.
    pub fn cols(self) -> usize {
        self.cols
    }
}

/// Operation descriptor for one tape node.
#[derive(Debug)]
enum Op {
    /// Constant input; no gradient flows out.
    Input,
    /// Leaf referring to a trainable parameter.
    Param(ParamId),
    /// `C = A * B`.
    MatMul(usize, usize),
    /// Elementwise `A + B` (same shape).
    Add(usize, usize),
    /// `X + bias` where `bias` is `1 x cols`, broadcast over rows.
    AddBias(usize, usize),
    /// Elementwise `A * B`.
    Mul(usize, usize),
    /// Row-wise scaling: `out[i][j] = x[i][j] * col[i][0]`.
    MulColBroadcast(usize, usize),
    /// `alpha * A`.
    Scale(usize, f32),
    /// Horizontal concatenation.
    ConcatCols(Vec<usize>),
    /// Row gather: `out.row(k) = src.row(idx[k])`.
    GatherRows { src: usize, idx: Vec<usize> },
    /// Fused row gather + mean over consecutive groups of `group`
    /// gathered rows: `out.row(g) = mean_r src.row(idx[g*group + r])`.
    GatherMeanPoolRows { src: usize, idx: Vec<usize>, group: usize },
    /// Mean over consecutive groups of `group` rows.
    MeanPoolRows { src: usize, group: usize },
    /// Mean over variable-length row segments given by `offsets`
    /// (`offsets.len() == num_segments + 1`); empty segments yield zeros.
    SegmentMean { src: usize, offsets: Vec<usize> },
    /// Max over consecutive groups of `group` rows; `argmax` records the
    /// winning source row per output entry for the backward pass.
    MaxPoolRows { src: usize, argmax: Vec<u32> },
    /// Leaky ReLU with negative slope `alpha`.
    LeakyRelu { src: usize, alpha: f32 },
    /// Logistic sigmoid.
    Sigmoid(usize),
    /// Hyperbolic tangent.
    Tanh(usize),
    /// Mean of all entries, producing a `1 x 1` scalar.
    MeanAll(usize),
    /// Sum of all entries, producing a `1 x 1` scalar.
    SumAll(usize),
    /// Sum of squared entries, producing a `1 x 1` scalar (L2 penalty).
    SumSquares(usize),
    /// Mean binary cross entropy with logits against fixed targets;
    /// produces a `1 x 1` scalar.
    BceWithLogits { logits: usize, targets: Vec<f32> },
}

/// Where a node's forward value lives: owned by the tape, or borrowed
/// from the [`ParamStore`] (parameter leaves are never copied).
enum Stored {
    Owned(Matrix),
    Param(ParamId),
}

struct Node {
    value: Stored,
    op: Op,
    /// True when a [`Op::Param`] leaf lies under this node, so a
    /// gradient flowing into it can reach a parameter.
    needs_grad: bool,
}

/// One forward pass under construction.
pub struct Tape<'s> {
    store: &'s ParamStore,
    nodes: Vec<Node>,
    ws: Option<&'s Workspace>,
}

impl<'s> Tape<'s> {
    /// Creates an empty tape bound to a parameter store. Intermediate
    /// buffers are heap-allocated per op.
    pub fn new(store: &'s ParamStore) -> Self {
        Tape { store, nodes: Vec::new(), ws: None }
    }

    /// Creates an empty tape whose forward and backward buffers are
    /// leased from `ws`. Produces bitwise-identical values and gradients
    /// to [`Tape::new`]. Call [`Tape::recycle`] once the pass is done to
    /// return the buffers for the next minibatch (a tape that simply
    /// drops frees them instead — correct, but the pool goes cold).
    pub fn with_workspace(store: &'s ParamStore, ws: &'s Workspace) -> Self {
        Tape { store, nodes: Vec::new(), ws: Some(ws) }
    }

    /// Consumes the tape, returning every pooled node buffer to the
    /// attached workspace. No-op (plain drop) without a workspace.
    ///
    /// [`Tape::input`] values were allocated by the caller, not leased,
    /// so they drop here: the pool then holds only buffers it allocated
    /// itself, and its size follows the largest set of buffers a pass had
    /// out at once instead of filling up with the caller's inputs.
    pub fn recycle(mut self) {
        if let Some(ws) = self.ws {
            for node in self.nodes.drain(..) {
                if matches!(node.op, Op::Input) {
                    continue;
                }
                if let Stored::Owned(m) = node.value {
                    ws.reclaim(m.into_data());
                }
            }
        }
    }

    fn push(&mut self, value: Stored, op: Op) -> Var {
        let (rows, cols) = match &value {
            Stored::Owned(m) => m.shape(),
            Stored::Param(p) => self.store.get(*p).shape(),
        };
        let needs_grad = match &op {
            Op::Input => false,
            Op::Param(_) => true,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::AddBias(a, b)
            | Op::Mul(a, b)
            | Op::MulColBroadcast(a, b) => self.needs(*a) || self.needs(*b),
            Op::ConcatCols(parts) => parts.iter().any(|&p| self.needs(p)),
            Op::Scale(src, _)
            | Op::GatherRows { src, .. }
            | Op::GatherMeanPoolRows { src, .. }
            | Op::MeanPoolRows { src, .. }
            | Op::SegmentMean { src, .. }
            | Op::MaxPoolRows { src, .. }
            | Op::LeakyRelu { src, .. }
            | Op::Sigmoid(src)
            | Op::Tanh(src)
            | Op::MeanAll(src)
            | Op::SumAll(src)
            | Op::SumSquares(src)
            | Op::BceWithLogits { logits: src, .. } => self.needs(*src),
        };
        let id = self.nodes.len();
        self.nodes.push(Node { value, op, needs_grad });
        Var { id, rows, cols }
    }

    /// Whether node `id` has a parameter under it (see [`Node::needs_grad`]).
    fn needs(&self, id: usize) -> bool {
        self.nodes[id].needs_grad
    }

    fn nval(&self, id: usize) -> &Matrix {
        match &self.nodes[id].value {
            Stored::Owned(m) => m,
            Stored::Param(p) => self.store.get(*p),
        }
    }

    /// Borrows the computed value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        self.nval(v.id)
    }

    /// The scalar value of a `1 x 1` variable.
    pub fn scalar(&self, v: Var) -> f32 {
        assert_eq!((v.rows, v.cols), (1, 1), "scalar() on non-scalar var");
        self.nval(v.id).get(0, 0)
    }

    // ---- buffer management --------------------------------------------

    /// An all-zeros matrix, pool-leased when a workspace is attached.
    fn mat_zeroed(&self, rows: usize, cols: usize) -> Matrix {
        match self.ws {
            Some(ws) => Matrix::from_vec(rows, cols, ws.lease_zeroed(rows * cols)),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A constant-filled matrix.
    fn mat_full(&self, rows: usize, cols: usize, v: f32) -> Matrix {
        match self.ws {
            Some(ws) => {
                let mut buf = ws.lease_empty(rows * cols);
                buf.resize(rows * cols, v);
                Matrix::from_vec(rows, cols, buf)
            }
            None => Matrix::full(rows, cols, v),
        }
    }

    /// A copy of `src` (pool-backed clone).
    fn mat_copy(&self, src: &Matrix) -> Matrix {
        match self.ws {
            Some(ws) => {
                let mut buf = ws.lease_empty(src.len());
                buf.extend_from_slice(src.data());
                let (rows, cols) = src.shape();
                Matrix::from_vec(rows, cols, buf)
            }
            None => src.clone(),
        }
    }

    /// Elementwise map of `src` into a fresh (possibly pooled) matrix.
    fn mat_map(&self, src: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
        match self.ws {
            Some(ws) => {
                let mut buf = ws.lease_empty(src.len());
                buf.extend(src.data().iter().map(|&a| f(a)));
                let (rows, cols) = src.shape();
                Matrix::from_vec(rows, cols, buf)
            }
            None => src.map(f),
        }
    }

    /// Elementwise zip of two same-shape matrices.
    fn mat_zip(&self, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(a.shape(), b.shape(), "elementwise op: shape mismatch");
        let mut out = match self.ws {
            Some(ws) => ws.lease_empty(a.len()),
            None => Vec::with_capacity(a.len()),
        };
        out.extend(a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y)));
        let (rows, cols) = a.shape();
        Matrix::from_vec(rows, cols, out)
    }

    /// Returns a dead intermediate's buffer to the pool (no-op without a
    /// workspace — the matrix just drops).
    fn reclaim_mat(&self, m: Matrix) {
        if let Some(ws) = self.ws {
            ws.reclaim(m.into_data());
        }
    }

    // ---- leaves -------------------------------------------------------

    /// Records a constant input (no gradient).
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(Stored::Owned(value), Op::Input)
    }

    /// Records a trainable parameter leaf. The value is read from the
    /// store by reference — no copy is made.
    pub fn param(&mut self, id: ParamId) -> Var {
        self.push(Stored::Param(id), Op::Param(id))
    }

    // ---- ops ----------------------------------------------------------

    /// `a * b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.mat_zeroed(a.rows, b.cols);
        self.value(a).matmul_into(self.value(b), &mut out);
        self.push(Stored::Owned(out), Op::MatMul(a.id, b.id))
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.mat_zip(self.value(a), self.value(b), |x, y| x + y);
        self.push(Stored::Owned(value), Op::Add(a.id, b.id))
    }

    /// `x + bias`, broadcasting the `1 x cols` bias over rows.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let mut value = self.mat_copy(self.value(x));
        value.add_row_broadcast_assign(self.value(bias));
        self.push(Stored::Owned(value), Op::AddBias(x.id, bias.id))
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.mat_zip(self.value(a), self.value(b), |x, y| x * y);
        self.push(Stored::Owned(value), Op::Mul(a.id, b.id))
    }

    /// Scales each row of `x` by the matching entry of the `n x 1`
    /// column `col` (e.g. attention-weighted pooling).
    pub fn mul_col_broadcast(&mut self, x: Var, col: Var) -> Var {
        let (xm, cm) = (self.value(x), self.value(col));
        assert_eq!(cm.cols(), 1, "mul_col_broadcast: col must be n x 1");
        assert_eq!(xm.rows(), cm.rows(), "mul_col_broadcast: row mismatch");
        let mut out = self.mat_copy(xm);
        let cm = self.value(col);
        for i in 0..out.rows() {
            let c = cm.get(i, 0);
            for v in out.row_mut(i) {
                *v *= c;
            }
        }
        self.push(Stored::Owned(out), Op::MulColBroadcast(x.id, col.id))
    }

    /// `alpha * a`.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let value = self.mat_map(self.value(a), |v| v * alpha);
        self.push(Stored::Owned(value), Op::Scale(a.id, alpha))
    }

    /// Horizontal concatenation of `parts`.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        let rows = parts[0].rows;
        let total: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = self.mat_zeroed(rows, total);
        let mut offset = 0;
        for p in parts {
            let pm = self.nval(p.id);
            assert_eq!(pm.rows(), rows, "concat_cols: row count mismatch");
            for i in 0..rows {
                out.row_mut(i)[offset..offset + p.cols].copy_from_slice(pm.row(i));
            }
            offset += p.cols;
        }
        self.push(Stored::Owned(out), Op::ConcatCols(parts.iter().map(|p| p.id).collect()))
    }

    /// Row gather (embedding lookup): `out.row(k) = src.row(idx[k])`.
    pub fn gather_rows(&mut self, src: Var, idx: &[usize]) -> Var {
        let mut out = self.mat_zeroed(idx.len(), src.cols);
        let src_m = self.value(src);
        for (k, &i) in idx.iter().enumerate() {
            out.set_row(k, src_m.row(i));
        }
        self.push(Stored::Owned(out), Op::GatherRows { src: src.id, idx: idx.to_vec() })
    }

    /// Fused row gather + fixed-fanout mean aggregation:
    /// `out.row(g) = mean_r src.row(idx[g*group + r])`, computed in one
    /// pass without materializing the gathered `idx.len() x d`
    /// intermediate. Bitwise identical to `gather_rows` followed by
    /// `mean_pool_rows` (same `r`-ascending accumulation order).
    pub fn gather_mean_pool_rows(&mut self, src: Var, idx: &[usize], group: usize) -> Var {
        assert!(group > 0, "gather_mean_pool_rows: group must be positive");
        assert_eq!(
            idx.len() % group,
            0,
            "gather_mean_pool_rows: {} indices not divisible by {}",
            idx.len(),
            group
        );
        let mut out = self.mat_zeroed(idx.len() / group, src.cols);
        self.value(src).gather_mean_pool_rows_into(idx, group, &mut out);
        self.push(
            Stored::Owned(out),
            Op::GatherMeanPoolRows { src: src.id, idx: idx.to_vec(), group },
        )
    }

    /// Mean over consecutive groups of `group` rows (fixed-fanout
    /// neighbour aggregation).
    pub fn mean_pool_rows(&mut self, src: Var, group: usize) -> Var {
        assert!(group > 0, "mean_pool_rows: group must be positive");
        assert_eq!(
            src.rows % group,
            0,
            "mean_pool_rows: {} rows not divisible by {}",
            src.rows,
            group
        );
        let mut out = self.mat_zeroed(src.rows / group, src.cols);
        self.value(src).mean_pool_rows_into(group, &mut out);
        self.push(Stored::Owned(out), Op::MeanPoolRows { src: src.id, group })
    }

    /// Max over consecutive groups of `group` rows (max-pooling
    /// aggregation). Gradient flows only to each column's winning row.
    pub fn max_pool_rows(&mut self, src: Var, group: usize) -> Var {
        assert!(group > 0, "max_pool_rows: group must be positive");
        assert_eq!(
            src.rows % group,
            0,
            "max_pool_rows: {} rows not divisible by {}",
            src.rows,
            group
        );
        let out_rows = src.rows / group;
        let cols = src.cols;
        let mut out = self.mat_zeroed(out_rows, cols);
        let mut argmax = vec![0u32; out_rows * cols];
        let src_m = self.value(src);
        for g in 0..out_rows {
            for c in 0..cols {
                let mut best = f32::MIN;
                let mut best_row = g * group;
                for r in 0..group {
                    let v = src_m.get(g * group + r, c);
                    if v > best {
                        best = v;
                        best_row = g * group + r;
                    }
                }
                out.set(g, c, best);
                argmax[g * cols + c] = best_row as u32;
            }
        }
        self.push(Stored::Owned(out), Op::MaxPoolRows { src: src.id, argmax })
    }

    /// Mean over variable-length row segments (full-neighbourhood
    /// aggregation). `offsets` must be non-decreasing with
    /// `offsets[0] == 0` and `offsets.last() == src.rows()`.
    pub fn segment_mean(&mut self, src: Var, offsets: &[usize]) -> Var {
        assert!(offsets.len() >= 2, "segment_mean: need at least one segment");
        assert_eq!(offsets[0], 0, "segment_mean: offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            src.rows,
            "segment_mean: offsets must end at src row count"
        );
        let segs = offsets.len() - 1;
        let mut out = self.mat_zeroed(segs, src.cols);
        let src_m = self.value(src);
        for s in 0..segs {
            let (lo, hi) = (offsets[s], offsets[s + 1]);
            assert!(lo <= hi, "segment_mean: offsets must be non-decreasing");
            if lo == hi {
                continue;
            }
            let inv = 1.0 / (hi - lo) as f32;
            for r in lo..hi {
                let src_row = src_m.row(r);
                let out_row = out.row_mut(s);
                for (o, &v) in out_row.iter_mut().zip(src_row) {
                    *o += v * inv;
                }
            }
        }
        self.push(Stored::Owned(out), Op::SegmentMean { src: src.id, offsets: offsets.to_vec() })
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, x: Var, alpha: f32) -> Var {
        // Lanes never interact, so the blend has the scalar map's bits
        // 8 lanes at a time.
        let mut value = self.mat_copy(self.value(x));
        simd::leaky_relu(value.data_mut(), alpha);
        self.push(Stored::Owned(value), Op::LeakyRelu { src: x.id, alpha })
    }

    /// Standard ReLU (leaky ReLU with zero slope).
    pub fn relu(&mut self, x: Var) -> Var {
        self.leaky_relu(x, 0.0)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let value = self.mat_map(self.value(x), stable_sigmoid);
        self.push(Stored::Owned(value), Op::Sigmoid(x.id))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let value = self.mat_map(self.value(x), f32::tanh);
        self.push(Stored::Owned(value), Op::Tanh(x.id))
    }

    /// Mean of all entries (scalar).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let value = self.mat_full(1, 1, self.value(x).mean());
        self.push(Stored::Owned(value), Op::MeanAll(x.id))
    }

    /// Sum of all entries (scalar).
    pub fn sum_all(&mut self, x: Var) -> Var {
        let value = self.mat_full(1, 1, self.value(x).sum());
        self.push(Stored::Owned(value), Op::SumAll(x.id))
    }

    /// Sum of squared entries (scalar, L2 penalty).
    pub fn sum_squares(&mut self, x: Var) -> Var {
        let value = self.mat_full(1, 1, self.value(x).sum_squares());
        self.push(Stored::Owned(value), Op::SumSquares(x.id))
    }

    /// Mean binary cross entropy with logits (scalar).
    ///
    /// `logits` must be `n x 1` and `targets.len() == n`. Uses the
    /// numerically stable form `max(x,0) - x*t + ln(1 + e^{-|x|})`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let lm = self.value(logits);
        assert_eq!(lm.cols(), 1, "bce_with_logits: logits must be n x 1");
        assert_eq!(lm.rows(), targets.len(), "bce_with_logits: target length mismatch");
        let n = targets.len().max(1) as f32;
        let mut total = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            let x = lm.get(i, 0);
            let loss = x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
            total += loss as f64;
        }
        let value = self.mat_full(1, 1, (total / n as f64) as f32);
        self.push(
            Stored::Owned(value),
            Op::BceWithLogits { logits: logits.id, targets: targets.to_vec() },
        )
    }

    // ---- backward -----------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar `loss`, returning
    /// gradients for every parameter leaf the loss depends on.
    ///
    /// A subtree with no parameter under it gets no gradient at all: a
    /// binary op computes (and a concatenation copies out) only the
    /// operand gradients that can reach a parameter, so constant inputs
    /// — fixed features, weight columns — cost no backward work. Every
    /// gradient that is computed has the same bits either way.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!((loss.rows, loss.cols), (1, 1), "backward: loss must be scalar");
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        if self.needs(loss.id) {
            grads[loss.id] = Some(self.mat_full(1, 1, 1.0));
        }
        let mut out = Gradients::new(self.store);

        for id in (0..=loss.id).rev() {
            let Some(g) = grads[id].take() else { continue };
            match &self.nodes[id].op {
                Op::Input => self.reclaim_mat(g),
                Op::Param(pid) => {
                    if let Some(merged) = out.accumulate_owned(*pid, g) {
                        self.reclaim_mat(merged);
                    }
                }
                Op::MatMul(a, b) => {
                    let (av, bv) = (self.nval(*a), self.nval(*b));
                    if self.needs(*a) {
                        let mut ga = self.mat_zeroed(g.rows(), bv.rows());
                        match self.ws {
                            // Lease the nt pack panel from the workspace so
                            // the backward step stays allocation-free.
                            Some(ws) => {
                                let mut scratch = ws.lease_aligned(g.cols() * bv.rows());
                                g.matmul_nt_into_scratch(bv, &mut ga, &mut scratch);
                                ws.recycle_aligned(scratch);
                            }
                            None => g.matmul_nt_into(bv, &mut ga),
                        }
                        accum(&mut grads, *a, ga, self.ws);
                    }
                    if self.needs(*b) {
                        let mut gb = self.mat_zeroed(av.cols(), g.cols());
                        av.matmul_tn_into(&g, &mut gb);
                        accum(&mut grads, *b, gb, self.ws);
                    }
                    self.reclaim_mat(g);
                }
                Op::Add(a, b) => match (self.needs(*a), self.needs(*b)) {
                    (true, true) => {
                        let ga = self.mat_copy(&g);
                        accum(&mut grads, *a, ga, self.ws);
                        accum(&mut grads, *b, g, self.ws);
                    }
                    (true, false) => accum(&mut grads, *a, g, self.ws),
                    (false, _) => accum(&mut grads, *b, g, self.ws),
                },
                Op::AddBias(x, bias) => {
                    // Bias gradient is the column-wise sum of g.
                    let gb = self.needs(*bias).then(|| {
                        let mut gb = self.mat_zeroed(1, g.cols());
                        for i in 0..g.rows() {
                            let row = g.row(i);
                            for (o, &v) in gb.row_mut(0).iter_mut().zip(row) {
                                *o += v;
                            }
                        }
                        gb
                    });
                    if self.needs(*x) {
                        accum(&mut grads, *x, g, self.ws);
                    } else {
                        self.reclaim_mat(g);
                    }
                    if let Some(gb) = gb {
                        accum(&mut grads, *bias, gb, self.ws);
                    }
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (self.nval(*a), self.nval(*b));
                    if self.needs(*a) {
                        let ga = self.mat_zip(&g, bv, |x, y| x * y);
                        accum(&mut grads, *a, ga, self.ws);
                    }
                    if self.needs(*b) {
                        let gb = self.mat_zip(&g, av, |x, y| x * y);
                        accum(&mut grads, *b, gb, self.ws);
                    }
                    self.reclaim_mat(g);
                }
                Op::MulColBroadcast(x, col) => {
                    let (xm, cm) = (self.nval(*x), self.nval(*col));
                    let gc = self.needs(*col).then(|| {
                        let mut gc = self.mat_zeroed(cm.rows(), 1);
                        for i in 0..xm.rows() {
                            let (gr, xr) = (g.row(i), xm.row(i));
                            let dot = gr.iter().zip(xr).fold(0f32, |d, (&gv, &xv)| d + gv * xv);
                            gc.set(i, 0, dot);
                        }
                        gc
                    });
                    if self.needs(*x) {
                        let mut gx = g;
                        for i in 0..xm.rows() {
                            let c = cm.get(i, 0);
                            gx.row_mut(i).iter_mut().for_each(|gv| *gv *= c);
                        }
                        accum(&mut grads, *x, gx, self.ws);
                    } else {
                        self.reclaim_mat(g);
                    }
                    if let Some(gc) = gc {
                        accum(&mut grads, *col, gc, self.ws);
                    }
                }
                Op::Scale(a, alpha) => {
                    let mut ga = g;
                    ga.scale_assign(*alpha);
                    accum(&mut grads, *a, ga, self.ws);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let pc = self.nval(p).cols();
                        if self.needs(p) {
                            let mut gp = self.mat_zeroed(g.rows(), pc);
                            for i in 0..g.rows() {
                                gp.row_mut(i).copy_from_slice(&g.row(i)[offset..offset + pc]);
                            }
                            accum(&mut grads, p, gp, self.ws);
                        }
                        offset += pc;
                    }
                    self.reclaim_mat(g);
                }
                Op::GatherRows { src, idx } => {
                    let src_m = self.nval(*src);
                    let mut gs = self.mat_zeroed(src_m.rows(), src_m.cols());
                    for (k, &i) in idx.iter().enumerate() {
                        let grow = g.row(k);
                        for (o, &v) in gs.row_mut(i).iter_mut().zip(grow) {
                            *o += v;
                        }
                    }
                    accum(&mut grads, *src, gs, self.ws);
                    self.reclaim_mat(g);
                }
                Op::GatherMeanPoolRows { src, idx, group } => {
                    // Same accumulation order as MeanPoolRows backward
                    // (`v * inv` per entry) followed by the GatherRows
                    // scatter-add in ascending `k`: bitwise identical to
                    // the unfused pair.
                    let src_m = self.nval(*src);
                    let inv = 1.0 / *group as f32;
                    let mut gs = self.mat_zeroed(src_m.rows(), src_m.cols());
                    for (k, &i) in idx.iter().enumerate() {
                        let grow = g.row(k / group);
                        for (o, &v) in gs.row_mut(i).iter_mut().zip(grow) {
                            *o += v * inv;
                        }
                    }
                    accum(&mut grads, *src, gs, self.ws);
                    self.reclaim_mat(g);
                }
                Op::MeanPoolRows { src, group } => {
                    let src_m = self.nval(*src);
                    let inv = 1.0 / *group as f32;
                    let mut gs = self.mat_zeroed(src_m.rows(), src_m.cols());
                    for r in 0..src_m.rows() {
                        let grow = g.row(r / group);
                        for (o, &v) in gs.row_mut(r).iter_mut().zip(grow) {
                            *o = v * inv;
                        }
                    }
                    accum(&mut grads, *src, gs, self.ws);
                    self.reclaim_mat(g);
                }
                Op::SegmentMean { src, offsets } => {
                    let src_m = self.nval(*src);
                    let mut gs = self.mat_zeroed(src_m.rows(), src_m.cols());
                    for s in 0..offsets.len() - 1 {
                        let (lo, hi) = (offsets[s], offsets[s + 1]);
                        if lo == hi {
                            continue;
                        }
                        let inv = 1.0 / (hi - lo) as f32;
                        let grow = g.row(s);
                        for r in lo..hi {
                            for (o, &v) in gs.row_mut(r).iter_mut().zip(grow) {
                                *o += v * inv;
                            }
                        }
                    }
                    accum(&mut grads, *src, gs, self.ws);
                    self.reclaim_mat(g);
                }
                Op::MaxPoolRows { src, argmax } => {
                    let src_m = self.nval(*src);
                    let cols = src_m.cols();
                    let mut gs = self.mat_zeroed(src_m.rows(), cols);
                    for gr in 0..g.rows() {
                        for c in 0..cols {
                            let winner = argmax[gr * cols + c] as usize;
                            let cur = gs.get(winner, c);
                            gs.set(winner, c, cur + g.get(gr, c));
                        }
                    }
                    accum(&mut grads, *src, gs, self.ws);
                    self.reclaim_mat(g);
                }
                Op::LeakyRelu { src, alpha } => {
                    let x = self.nval(*src);
                    let mut gx = g;
                    simd::leaky_relu_bwd(gx.data_mut(), x.data(), *alpha);
                    accum(&mut grads, *src, gx, self.ws);
                }
                Op::Sigmoid(src) => {
                    let y = self.nval(id);
                    let mut gx = g;
                    for (gv, &yv) in gx.data_mut().iter_mut().zip(y.data()) {
                        *gv *= yv * (1.0 - yv);
                    }
                    accum(&mut grads, *src, gx, self.ws);
                }
                Op::Tanh(src) => {
                    let y = self.nval(id);
                    let mut gx = g;
                    for (gv, &yv) in gx.data_mut().iter_mut().zip(y.data()) {
                        *gv *= 1.0 - yv * yv;
                    }
                    accum(&mut grads, *src, gx, self.ws);
                }
                Op::MeanAll(src) => {
                    let src_m = self.nval(*src);
                    let gv = g.get(0, 0) / src_m.len().max(1) as f32;
                    let gs = self.mat_full(src_m.rows(), src_m.cols(), gv);
                    accum(&mut grads, *src, gs, self.ws);
                    self.reclaim_mat(g);
                }
                Op::SumAll(src) => {
                    let src_m = self.nval(*src);
                    let gs = self.mat_full(src_m.rows(), src_m.cols(), g.get(0, 0));
                    accum(&mut grads, *src, gs, self.ws);
                    self.reclaim_mat(g);
                }
                Op::SumSquares(src) => {
                    let src_m = self.nval(*src);
                    let gv = 2.0 * g.get(0, 0);
                    let gs = self.mat_map(src_m, |v| v * gv);
                    accum(&mut grads, *src, gs, self.ws);
                    self.reclaim_mat(g);
                }
                Op::BceWithLogits { logits, targets } => {
                    let lm = self.nval(*logits);
                    let n = targets.len().max(1) as f32;
                    let scale = g.get(0, 0) / n;
                    let mut gl = self.mat_zeroed(lm.rows(), 1);
                    for (i, &t) in targets.iter().enumerate() {
                        let y = stable_sigmoid(lm.get(i, 0));
                        gl.set(i, 0, scale * (y - t));
                    }
                    accum(&mut grads, *logits, gl, self.ws);
                    self.reclaim_mat(g);
                }
            }
        }
        out
    }
}

fn accum(grads: &mut [Option<Matrix>], id: usize, g: Matrix, ws: Option<&Workspace>) {
    match &mut grads[id] {
        Some(existing) => {
            existing.add_assign(&g);
            if let Some(ws) = ws {
                ws.reclaim(g.into_data());
            }
        }
        slot @ None => *slot = Some(g),
    }
}

/// Numerically stable sigmoid.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_param_grads;
    use crate::init::xavier_uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_values() {
        let store = ParamStore::new();
        let mut t = Tape::new(&store);
        let a = t.input(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = t.input(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c).data(), &[1.0, 2.0, 3.0, 4.0]);
        let s = t.sum_all(c);
        assert_eq!(t.scalar(s), 10.0);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(stable_sigmoid(100.0) <= 1.0);
        assert!(stable_sigmoid(-100.0) >= 0.0);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(stable_sigmoid(-100.0).is_finite());
    }

    #[test]
    fn matmul_gradients_check() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let w = store.add("w", xavier_uniform(3, 4, &mut rng));
        let x = xavier_uniform(5, 3, &mut rng);
        check_param_grads(&store, &[w], 1e-2, 2e-2, |t| {
            let wx = t.param(w);
            let xv = t.input(x.clone());
            let y = t.matmul(xv, wx);
            t.mean_all(y)
        });
    }

    #[test]
    fn mlp_style_graph_gradients_check() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let w1 = store.add("w1", xavier_uniform(4, 6, &mut rng));
        let b1 = store.add("b1", Matrix::zeros(1, 6));
        let w2 = store.add("w2", xavier_uniform(6, 1, &mut rng));
        let x = xavier_uniform(7, 4, &mut rng);
        let targets = vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0];
        check_param_grads(&store, &[w1, b1, w2], 1e-2, 2e-2, move |t| {
            let xv = t.input(x.clone());
            let w1v = t.param(w1);
            let b1v = t.param(b1);
            let w2v = t.param(w2);
            let h = t.matmul(xv, w1v);
            let h = t.add_bias(h, b1v);
            let h = t.leaky_relu(h, 0.1);
            let logits = t.matmul(h, w2v);
            t.bce_with_logits(logits, &targets)
        });
    }

    #[test]
    fn gather_and_pool_gradients_check() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let emb = store.add("emb", xavier_uniform(5, 3, &mut rng));
        let idx = vec![0usize, 2, 2, 4, 1, 3];
        check_param_grads(&store, &[emb], 1e-2, 2e-2, move |t| {
            let e = t.param(emb);
            let g = t.gather_rows(e, &idx);
            let pooled = t.mean_pool_rows(g, 2); // 3 groups of 2
            let sq = t.sum_squares(pooled);
            t.scale(sq, 0.5)
        });
    }

    #[test]
    fn fused_gather_mean_pool_gradients_check() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut store = ParamStore::new();
        let emb = store.add("emb", xavier_uniform(5, 3, &mut rng));
        let idx = vec![0usize, 2, 2, 4, 1, 3];
        check_param_grads(&store, &[emb], 1e-2, 2e-2, move |t| {
            let e = t.param(emb);
            let pooled = t.gather_mean_pool_rows(e, &idx, 2);
            let sq = t.sum_squares(pooled);
            t.scale(sq, 0.5)
        });
    }

    #[test]
    fn fused_gather_mean_pool_is_bitwise_identical_to_composition() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut store = ParamStore::new();
        let emb = store.add("emb", xavier_uniform(7, 4, &mut rng));
        let idx = vec![0usize, 6, 2, 4, 1, 3, 5, 5, 2, 0, 6, 1];
        for group in [1usize, 2, 3, 4, 6] {
            let (fused_v, fused_g) = {
                let mut t = Tape::new(&store);
                let e = t.param(emb);
                let p = t.gather_mean_pool_rows(e, &idx, group);
                let loss = t.sum_squares(p);
                let grads = t.backward(loss);
                (t.value(p).clone(), grads.get(emb).unwrap().clone())
            };
            let (plain_v, plain_g) = {
                let mut t = Tape::new(&store);
                let e = t.param(emb);
                let gth = t.gather_rows(e, &idx);
                let p = t.mean_pool_rows(gth, group);
                let loss = t.sum_squares(p);
                let grads = t.backward(loss);
                (t.value(p).clone(), grads.get(emb).unwrap().clone())
            };
            for (a, b) in fused_v.data().iter().zip(plain_v.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "forward bits differ (group {group})");
            }
            for (a, b) in fused_g.data().iter().zip(plain_g.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "gradient bits differ (group {group})");
            }
        }
    }

    #[test]
    fn pooled_tape_is_bitwise_identical_to_fresh() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut store = ParamStore::new();
        let w1 = store.add("w1", xavier_uniform(4, 6, &mut rng));
        let b1 = store.add("b1", xavier_uniform(1, 6, &mut rng));
        let w2 = store.add("w2", xavier_uniform(6, 1, &mut rng));
        let x = xavier_uniform(7, 4, &mut rng);
        let targets = vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0];
        let run = |ws: Option<&Workspace>| {
            let mut t = match ws {
                Some(ws) => Tape::with_workspace(&store, ws),
                None => Tape::new(&store),
            };
            let xv = t.input(x.clone());
            let w1v = t.param(w1);
            let b1v = t.param(b1);
            let w2v = t.param(w2);
            let h = t.matmul(xv, w1v);
            let h = t.add_bias(h, b1v);
            let h = t.leaky_relu(h, 0.1);
            let logits = t.matmul(h, w2v);
            let loss = t.bce_with_logits(logits, &targets);
            let grads = t.backward(loss);
            let loss_v = t.scalar(loss);
            let grad_v = [w1, b1, w2].map(|p| grads.get(p).unwrap().clone());
            t.recycle();
            (loss_v, grad_v)
        };
        let (loss_fresh, grads_fresh) = run(None);
        let ws = Workspace::new();
        // Two pooled runs: the second reuses warm buffers.
        let (loss_p1, grads_p1) = run(Some(&ws));
        let (loss_p2, grads_p2) = run(Some(&ws));
        assert_eq!(loss_fresh.to_bits(), loss_p1.to_bits());
        assert_eq!(loss_fresh.to_bits(), loss_p2.to_bits());
        for pooled in [&grads_p1, &grads_p2] {
            for (f, p) in grads_fresh.iter().zip(pooled.iter()) {
                assert_eq!(f.shape(), p.shape());
                for (a, b) in f.data().iter().zip(p.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "pooled gradient bits differ");
                }
            }
        }
    }

    #[test]
    fn pooled_tape_step_allocates_nothing_after_warmup() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut store = ParamStore::new();
        let w1 = store.add("w1", xavier_uniform(4, 6, &mut rng));
        let b1 = store.add("b1", Matrix::zeros(1, 6));
        let w2 = store.add("w2", xavier_uniform(6, 1, &mut rng));
        let x = xavier_uniform(7, 4, &mut rng);
        let targets = vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0];
        let ws = Workspace::new();
        let step = |ws: &Workspace| {
            let mut t = Tape::with_workspace(&store, ws);
            let xv = t.input(x.clone());
            let w1v = t.param(w1);
            let b1v = t.param(b1);
            let w2v = t.param(w2);
            let h = t.matmul(xv, w1v);
            let h = t.add_bias(h, b1v);
            let h = t.leaky_relu(h, 0.1);
            let logits = t.matmul(h, w2v);
            let loss = t.bce_with_logits(logits, &targets);
            let grads = t.backward(loss);
            t.recycle();
            grads.recycle_into(ws);
        };
        // Warmup.
        step(&ws);
        step(&ws);
        let warm = ws.fresh_allocs();
        for _ in 0..1000 {
            step(&ws);
        }
        assert_eq!(
            ws.fresh_allocs(),
            warm,
            "tape step allocated after warmup ({} fresh allocs over 1000 minibatches)",
            ws.fresh_allocs() - warm
        );
        assert!(ws.retained_buffers() <= crate::workspace::MAX_PER_BUCKET * 8);
    }

    #[test]
    fn constant_operands_get_no_gradient_and_lease_less() {
        // The same graph twice: `x` once as an input, once as a
        // parameter. It feeds every binary op and a concatenation.
        let mut rng = StdRng::seed_from_u64(25);
        let mut store = ParamStore::new();
        let x = xavier_uniform(5, 3, &mut rng);
        let xp = store.add("x", x.clone());
        let others = [
            store.add("w1", xavier_uniform(3, 4, &mut rng)),
            store.add("b1", xavier_uniform(1, 4, &mut rng)),
            store.add("w2", xavier_uniform(7, 2, &mut rng)),
            store.add("q", xavier_uniform(5, 3, &mut rng)),
            store.add("col", xavier_uniform(5, 1, &mut rng)),
            store.add("b3", xavier_uniform(1, 3, &mut rng)),
        ];
        let [w1, b1, w2, q, col, b3] = others;
        let col_in = xavier_uniform(5, 1, &mut rng);
        let run = |x_is_param: bool| {
            let ws = Workspace::new();
            let mut t = Tape::with_workspace(&store, &ws);
            let xv = if x_is_param { t.param(xp) } else { t.input(x.clone()) };
            let [w1, b1, w2, q, col, b3] = others.map(|p| t.param(p));
            let h = t.matmul(xv, w1);
            let h = t.add_bias(h, b1);
            let c = t.concat_cols(&[xv, h]);
            let y = t.matmul(c, w2);
            let m = t.mul(xv, q);
            let a = t.add(xv, q);
            let s = t.mul_col_broadcast(xv, col);
            let ci = t.input(col_in.clone());
            let hs = t.mul_col_broadcast(h, ci);
            let xb = t.add_bias(xv, b3);
            let mut loss = t.sum_squares(y);
            for v in [m, a, s, hs, xb] {
                let sq = t.sum_squares(v);
                loss = t.add(loss, sq);
            }
            let grads = t.backward(loss);
            let leases = ws.leases();
            (grads, leases)
        };
        let (with_input, input_leases) = run(false);
        let (with_param, param_leases) = run(true);
        assert!(with_input.get(xp).is_none(), "an input received a gradient");
        assert!(with_param.get(xp).is_some());
        for p in [w1, b1, w2, q, col, b3] {
            let (a, b) = (with_input.get(p).unwrap(), with_param.get(p).unwrap());
            assert_eq!(
                a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "gradient of {} changed with x's role",
                store.name(p)
            );
        }
        assert!(
            input_leases < param_leases,
            "input tape leased {input_leases} buffers, param tape {param_leases}"
        );
    }

    #[test]
    fn param_leaves_are_read_by_reference() {
        let mut store = ParamStore::new();
        let p = store.add("p", Matrix::full(2, 2, 1.5));
        let mut t = Tape::new(&store);
        let v = t.param(p);
        assert!(
            std::ptr::eq(t.value(v), store.get(p)),
            "param leaf copied the stored matrix"
        );
    }

    #[test]
    fn segment_mean_gradients_check() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = ParamStore::new();
        let emb = store.add("emb", xavier_uniform(6, 2, &mut rng));
        // Segments: [0..2), [2..2) empty, [2..6)
        let offsets = vec![0usize, 2, 2, 6];
        check_param_grads(&store, &[emb], 1e-2, 2e-2, move |t| {
            let e = t.param(emb);
            let m = t.segment_mean(e, &offsets);
            t.sum_squares(m)
        });
    }

    #[test]
    fn concat_sub_mul_gradients_check() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut store = ParamStore::new();
        let a = store.add("a", xavier_uniform(3, 2, &mut rng));
        let b = store.add("b", xavier_uniform(3, 3, &mut rng));
        check_param_grads(&store, &[a, b], 1e-2, 2e-2, move |t| {
            let av = t.param(a);
            let bv = t.param(b);
            let c = t.concat_cols(&[av, bv]);
            let d = t.tanh(c);
            let e = t.mul(d, c);
            let f = t.add(e, c);
            t.mean_all(f)
        });
    }

    #[test]
    fn max_pool_forward_and_gradients() {
        let store = ParamStore::new();
        let mut t = Tape::new(&store);
        let x = t.input(Matrix::from_vec(4, 2, vec![1.0, 9.0, 3.0, 2.0, -1.0, 0.0, 5.0, -4.0]));
        let p = t.max_pool_rows(x, 2);
        assert_eq!(t.value(p).data(), &[3.0, 9.0, 5.0, 0.0]);

        // Gradient check (use distinct values so argmax is stable under
        // the finite-difference perturbation).
        let mut rng = StdRng::seed_from_u64(20);
        let mut store = ParamStore::new();
        let src = store.add("src", xavier_uniform(6, 3, &mut rng));
        check_param_grads(&store, &[src], 1e-3, 2e-2, move |t| {
            let v = t.param(src);
            let pooled = t.max_pool_rows(v, 3);
            t.sum_squares(pooled)
        });
    }

    #[test]
    fn mul_col_broadcast_gradients_check() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut store = ParamStore::new();
        let x = store.add("x", xavier_uniform(4, 3, &mut rng));
        let c = store.add("c", xavier_uniform(4, 1, &mut rng));
        check_param_grads(&store, &[x, c], 1e-2, 2e-2, move |t| {
            let xv = t.param(x);
            let cv = t.param(c);
            let scaled = t.mul_col_broadcast(xv, cv);
            t.sum_squares(scaled)
        });
    }

    #[test]
    fn mul_col_broadcast_forward() {
        let store = ParamStore::new();
        let mut t = Tape::new(&store);
        let x = t.input(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let c = t.input(Matrix::column_vector(&[10.0, -1.0]));
        let y = t.mul_col_broadcast(x, c);
        assert_eq!(t.value(y).data(), &[10.0, 20.0, -3.0, -4.0]);
    }

    #[test]
    fn backward_only_touches_dependencies() {
        let mut store = ParamStore::new();
        let used = store.add("used", Matrix::full(1, 1, 2.0));
        let unused = store.add("unused", Matrix::full(1, 1, 3.0));
        let mut t = Tape::new(&store);
        let u = t.param(used);
        let loss = t.sum_squares(u);
        let grads = t.backward(loss);
        assert!(grads.get(used).is_some());
        assert!(grads.get(unused).is_none());
        // d/du u^2 = 2u = 4.
        assert!((grads.get(used).unwrap().get(0, 0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn fanout_accumulates_gradients() {
        let mut store = ParamStore::new();
        let p = store.add("p", Matrix::full(1, 1, 3.0));
        let mut t = Tape::new(&store);
        let v = t.param(p);
        let doubled = t.add(v, v); // uses v twice
        let loss = t.sum_all(doubled);
        let grads = t.backward(loss);
        assert!((grads.get(p).unwrap().get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn bce_matches_manual_computation() {
        let store = ParamStore::new();
        let mut t = Tape::new(&store);
        let logits = t.input(Matrix::column_vector(&[0.0, 2.0]));
        let loss = t.bce_with_logits(logits, &[1.0, 0.0]);
        let expected = (-0.5f32.ln() + (1.0 + 2.0f32.exp()).ln() - 0.0) / 2.0;
        // -log(sigmoid(0)) = ln 2; -log(1 - sigmoid(2)) = ln(1 + e^2).
        let manual = ((2.0f32).ln() + (1.0 + (2.0f32).exp()).ln()) / 2.0;
        assert!((t.scalar(loss) - manual).abs() < 1e-5, "{} vs {}", t.scalar(loss), expected);
    }
}
