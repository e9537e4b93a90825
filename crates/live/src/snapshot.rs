//! An epoch-stamped immutable database snapshot.
//!
//! One [`DbSnapshot`] is the complete read-side world for a
//! localization epoch: the condensed fingerprint database, the query
//! index built over it, and the sanitized motion database with its
//! construction report. Snapshots are shared behind `Arc`s by the
//! publisher, every in-flight reader, and every live localizer — they
//! are never mutated, only replaced wholesale at an epoch boundary.

use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_motion::builder::BuildReport;
use moloc_motion::matrix::MotionDb;
use std::sync::Arc;

/// The immutable databases one epoch serves from.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    /// The publish generation this snapshot belongs to. Epoch 0 is the
    /// initial (pre-update) database; every successful publish
    /// increments it by one.
    pub epoch: u64,
    /// The condensed per-location fingerprint database.
    pub fdb: Arc<FingerprintDb>,
    /// The k-NN query index built over `fdb`.
    pub index: Arc<FingerprintIndex>,
    /// The sanitized crowdsourced motion database.
    pub motion_db: Arc<MotionDb>,
    /// Construction counters for the motion database (coarse/fine
    /// rejections, underpopulated pairs). Part of the content digest:
    /// two logs that saw different RLM streams must hash differently
    /// even when every difference was filtered out.
    pub motion_report: BuildReport,
}

impl DbSnapshot {
    /// FNV-1a digest over the snapshot's *content* — every fingerprint
    /// bit, every motion pair's fitted Gaussian bits, and the build
    /// report counters. The `epoch` stamp is deliberately excluded:
    /// the incremental-vs-rebuild equivalence contract compares a
    /// published epoch-N snapshot against a from-scratch epoch-0
    /// rebuild, and those must collide exactly when their databases
    /// are bit-identical.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(self.fdb.ap_count() as u64);
        for (id, fp) in self.fdb.iter() {
            h.eat(u64::from(id.get()));
            for &v in fp.values() {
                h.eat(v.to_bits());
            }
        }
        h.eat(self.motion_db.pair_count() as u64);
        for (a, b, stats) in self.motion_db.iter() {
            h.eat(u64::from(a.get()));
            h.eat(u64::from(b.get()));
            h.eat(stats.direction.mean().to_bits());
            h.eat(stats.direction.std().to_bits());
            h.eat(stats.offset.mean().to_bits());
            h.eat(stats.offset.std().to_bits());
            h.eat(stats.sample_count);
        }
        let r = &self.motion_report;
        for counter in [
            r.observed,
            r.rejected_coarse,
            r.rejected_unmapped,
            r.rejected_fine,
            r.underpopulated_pairs,
            r.pairs_built,
        ] {
            h.eat(counter);
        }
        h.finish()
    }
}

/// Minimal FNV-1a accumulator (same constants as the checkpoint and
/// chaos digests elsewhere in the workspace).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_fingerprint::fingerprint::Fingerprint;
    use moloc_geometry::LocationId;

    fn snap(epoch: u64, values: &[f64]) -> DbSnapshot {
        let fdb = FingerprintDb::from_fingerprints(vec![
            (LocationId::new(1), Fingerprint::new(values.to_vec())),
            (
                LocationId::new(2),
                Fingerprint::new(vec![-70.0; values.len()]),
            ),
        ])
        .expect("valid db");
        let index = FingerprintIndex::build(&fdb);
        DbSnapshot {
            epoch,
            fdb: Arc::new(fdb),
            index: Arc::new(index),
            motion_db: Arc::new(MotionDb::new(4)),
            motion_report: BuildReport::default(),
        }
    }

    #[test]
    fn digest_ignores_epoch_but_sees_content() {
        let a = snap(0, &[-40.0, -55.0]);
        let b = snap(17, &[-40.0, -55.0]);
        assert_eq!(a.digest(), b.digest(), "epoch must not enter the digest");

        let c = snap(0, &[-40.0, -55.5]);
        assert_ne!(a.digest(), c.digest(), "a changed RSS bit must change it");
    }

    #[test]
    fn digest_sees_report_counters() {
        let a = snap(0, &[-40.0]);
        let mut b = snap(0, &[-40.0]);
        b.motion_report.rejected_coarse = 1;
        assert_ne!(
            a.digest(),
            b.digest(),
            "a filtered-out RLM still distinguishes the streams"
        );

        let mut c = snap(0, &[-40.0]);
        c.motion_report.rejected_unmapped = 1;
        assert_ne!(a.digest(), c.digest(), "unmapped drops are content too");
        assert_ne!(
            b.digest(),
            c.digest(),
            "coarse and unmapped rejections must hash differently"
        );
    }
}
