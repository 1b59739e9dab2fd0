//! The codec's offline stages — encode, `.bro` write, read and
//! `decompress` — as calls timed through the [`Recorder`]; `prepare` runs
//! them in its timed phase.

use bro_core::{read_bro_coo, read_bro_ell, write_bro_coo, write_bro_ell};
use bro_core::{BroCoo, BroCooConfig, BroEll, BroEllConfig};
use bro_matrix::CooMatrix;

use crate::checks::Checks;
use crate::layers::Recorder;

/// The `.bro` container a matrix is stored in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// BRO-ELL.
    Ell,
    /// BRO-COO.
    Coo,
}

/// Encodes `a` into `store`, writes and reads it back in memory and
/// decompresses it, checking the result equals `a`. Returns the host
/// seconds spent in the codec.
pub fn round_trip(
    rec: &Recorder,
    checks: &mut Checks,
    what: &str,
    a: &CooMatrix<f64>,
    store: Store,
) -> f64 {
    let nnz = a.nnz();
    let mut buf = Vec::new();
    let (decoded, secs) = match store {
        Store::Ell => {
            let (bro, t_enc) = rec.time("core/encode/bro-ell", nnz, || {
                BroEll::<f64>::from_coo(a, &BroEllConfig::default())
            });
            let (written, t_write) =
                rec.time("core/write/bro-ell", nnz, || write_bro_ell(&bro, &mut buf));
            written.expect("writing to memory cannot fail");
            let (read, t_read) = rec.time("core/read/bro-ell", nnz, || {
                read_bro_ell::<f64, u32, _>(&mut buf.as_slice())
            });
            let read = read.expect("a just-written BRO-ELL stream reads back");
            let (m, t_dec) = rec.time("core/decompress/bro-ell", nnz, || read.decompress());
            (m, t_enc + t_write + t_read + t_dec)
        }
        Store::Coo => {
            let (bro, t_enc) = rec.time("core/encode/bro-coo", nnz, || {
                BroCoo::<f64>::compress(a, &BroCooConfig::default())
            });
            let (written, t_write) =
                rec.time("core/write/bro-coo", nnz, || write_bro_coo(&bro, &mut buf));
            written.expect("writing to memory cannot fail");
            let (read, t_read) = rec.time("core/read/bro-coo", nnz, || {
                read_bro_coo::<f64, u32, _>(&mut buf.as_slice())
            });
            let read = read.expect("a just-written BRO-COO stream reads back");
            let (m, t_dec) = rec.time("core/decompress/bro-coo", nnz, || read.decompress());
            (m, t_enc + t_write + t_read + t_dec)
        }
    };
    checks.lossless(what, &decoded, a);
    secs
}
