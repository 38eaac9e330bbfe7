//! Output digests: FNV-1a over the `Debug` rendering of simulated
//! outputs. `Debug` prints every field and the shortest round-trip form
//! of each float, so two digests agree exactly when the outputs are
//! bit-identical.

use std::fmt::{self, Write as _};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

impl Digest {
    /// The digest of one value.
    pub fn of(value: &impl fmt::Debug) -> Digest {
        let mut d = Digest::default();
        d.add(value);
        d
    }

    /// Folds `value`'s `Debug` rendering into the digest.
    pub fn add(&mut self, value: &impl fmt::Debug) {
        let _ = write!(self, "{value:?};");
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}
