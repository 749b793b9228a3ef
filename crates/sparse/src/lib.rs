#![allow(clippy::needless_range_loop)] // indexed loops are the clearer idiom in the numeric kernels
#![warn(missing_docs)]

//! Sparse and small-dense linear algebra substrate ("PETSc" stand-in).
//!
//! The paper's solver is built on PETSc's distributed CSR matrices; this
//! crate provides the serial kernels — CSR storage ([`csr::CsrMatrix`]),
//! sparse matrix-vector products, sparse matrix-matrix products and the
//! Galerkin triple product `R A Rᵀ` ([`csr`]), dense Cholesky/LU for coarse
//! and block solves ([`dense`]), vector kernels ([`vector`]) — plus the flop
//! accounting ([`flops`]) that the paper's efficiency metrics (§6) are
//! defined in terms of. The distributed layer lives in `pmg-parallel`.
//!
//! Every kernel runs on its caller's thread; see [`vector`] for the
//! reduction contract.
//!
//! # Quickstart
//!
//! Assemble a small matrix through the COO builder, multiply, and take a
//! Galerkin triple product:
//!
//! ```
//! use pmg_sparse::{CooBuilder, CsrMatrix, vector};
//!
//! // A 1D Laplacian on 4 points.
//! let mut coo = CooBuilder::new(4, 4);
//! for i in 0..4 {
//!     coo.push(i, i, 2.0);
//!     if i + 1 < 4 {
//!         coo.push(i, i + 1, -1.0);
//!         coo.push(i + 1, i, -1.0);
//!     }
//! }
//! let a: CsrMatrix = coo.build();
//!
//! let x = vec![1.0, 2.0, 3.0, 4.0];
//! let mut y = vec![0.0; 4];
//! a.spmv(&x, &mut y);
//! assert_eq!(y, vec![0.0, 0.0, 0.0, 5.0]);
//!
//! // Aggregate pairs {0,1} and {2,3}: R is 2x4, coarse operator is R A Rᵀ.
//! let mut r = CooBuilder::new(2, 4);
//! r.push(0, 0, 1.0);
//! r.push(0, 1, 1.0);
//! r.push(1, 2, 1.0);
//! r.push(1, 3, 1.0);
//! let coarse = a.rap(&r.build());
//! assert_eq!(coarse.nrows(), 2);
//! assert_eq!(coarse.get(0, 0), 2.0); // 2+2-1-1
//!
//! // Deterministic BLAS-1: a fixed pairwise summation tree.
//! let d = vector::dot(&x, &x);
//! assert_eq!(d, 30.0);
//! ```

pub mod bsr;
pub mod csr;
pub mod dense;
pub mod flops;
pub mod op;
pub mod plan;
pub mod vector;

pub use bsr::{for_each_tile, Bsr3Matrix, MaskedBsr3, MaskedBsr3Writer, MaskedRow};
pub use csr::{CooBuilder, CsrMatrix, PatternFingerprint};
pub use dense::DenseMatrix;
pub use op::Operator;
pub use plan::RapPlan;
