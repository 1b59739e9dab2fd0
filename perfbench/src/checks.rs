//! Correctness checks. Every timed operation is verified outside its timed
//! interval and counted here as one attempted (and possibly failed)
//! operation; any failure makes the run exit non-zero.

use bro_matrix::{CooMatrix, CsrMatrix, Permutation};
use bro_verify::{compare, Tolerance};

/// Failure messages kept for the report; later ones are only counted.
const KEPT_FAILURES: usize = 10;

/// Attempted and failed operation counts.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations verified.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(what());
            }
        }
    }

    /// An SpMV output against the CPU reference.
    pub fn spmv(&mut self, what: &str, got: &[f64], reference: &Reference) {
        let mismatch = compare(got, &reference.y, &reference.terms, &Tolerance::default());
        self.check(mismatch.is_none(), || format!("{what}: {}", mismatch.expect("a mismatch")));
    }

    /// A decoded matrix against the matrix that was encoded.
    pub fn lossless(&mut self, what: &str, got: &CooMatrix<f64>, want: &CooMatrix<f64>) {
        self.check(got == want, || format!("{what}: decoded matrix differs from the input"));
    }

    /// A row ordering must be a bijection on `0..n`.
    pub fn bijection(&mut self, what: &str, p: &Permutation, n: usize) {
        let mut seen = vec![false; n];
        let ok = p.len() == n
            && p.as_slice().iter().all(|&i| {
                let fresh = (i as usize) < n && !seen[i as usize];
                if fresh {
                    seen[i as usize] = true;
                }
                fresh
            });
        self.check(ok, || format!("{what}: ordering is not a permutation of 0..{n}"));
    }

    /// Folds another run's counts into this one.
    pub fn merge(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.iter().take(room).cloned());
    }
}

/// The expected output of `A·x` and the number of terms in each row, which
/// scales the tolerance.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `A·x` from `CsrMatrix::spmv`.
    pub y: Vec<f64>,
    /// Non-zeros per row.
    pub terms: Vec<u32>,
}

impl Reference {
    /// Computes the reference product of `a` with `x`.
    pub fn new(a: &CooMatrix<f64>, csr: &CsrMatrix<f64>, x: &[f64]) -> Reference {
        Reference {
            y: csr.spmv(x).expect("x is generated with the matrix's column count"),
            terms: a.row_lengths(),
        }
    }

    /// The reference for the row-permuted matrix `p·A`.
    pub fn permuted(&self, p: &Permutation) -> Reference {
        Reference { y: p.apply_vec(&self.y), terms: p.apply_vec(&self.terms) }
    }
}
