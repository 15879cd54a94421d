//! Digest helpers shared by the suites that pin absolute goldens.

use sophie::solve::SolveEvent;

/// Streaming FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// FNV-1a digest of an event stream rendered to JSONL, one line per event.
pub fn event_digest(events: &[SolveEvent]) -> u64 {
    let mut h = Fnv::default();
    for e in events {
        h.feed(e.to_json().as_bytes());
        h.feed(b"\n");
    }
    h.0
}
